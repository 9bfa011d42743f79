package wfq

import "testing"

// A flow that went idle restarts from the current virtual time, not
// from its own last finish: its stale stamp banks no credit.
func TestReaddedFlowRestartsFromVirtualTime(t *testing.T) {
	s := mustNew(t, 1)
	// Serve flow 1 alone so its last finish (and virtual time) reach 100.
	s.Enqueue(&Item{Flow: 1, Size: 100})
	s.Dequeue()
	if s.virtual != 100 {
		t.Fatalf("virtual = %v, want 100", s.virtual)
	}

	// Advance virtual time further with another flow.
	s.Enqueue(&Item{Flow: 2, Size: 150})
	s.Dequeue() // virtual = 250

	// Flow 1 comes back: a fresh item stamps from virtual time (250),
	// not its stale last finish (100), and finishes at 250+50.
	it := &Item{Flow: 1, Size: 50}
	s.Enqueue(it)
	if it.finish != 300 {
		t.Fatalf("re-added flow finish = %v, want 300 (virtual 250 + 50)", it.finish)
	}
	if s.flows[1].last != 300 {
		t.Fatalf("flow 1 last finish = %v, want 300", s.flows[1].last)
	}
}

// A backlogged flow's last finish sits ahead of virtual time, and its
// next item stamps from there, not from virtual time.
func TestBackloggedFlowStampsFromPendingFinish(t *testing.T) {
	s := mustNew(t, 1)
	s.Enqueue(&Item{Flow: 3, Size: 1000})
	ahead := &Item{Flow: 3, Size: 10}
	s.Enqueue(ahead)
	if ahead.finish != 1010 || s.virtual != 0 {
		t.Fatalf("backlogged flow stamped from virtual time: finish=%v virtual=%v", ahead.finish, s.virtual)
	}
}

func mustHier(t *testing.T, tenantW, flowW float64) *Hierarchical {
	t.Helper()
	h, err := NewHierarchical(tenantW, flowW)
	if err != nil {
		t.Fatalf("NewHierarchical(%v, %v): %v", tenantW, flowW, err)
	}
	return h
}

func TestHierarchicalRejectsBadWeights(t *testing.T) {
	if _, err := NewHierarchical(0, 1); err == nil {
		t.Fatal("zero tenant weight accepted")
	}
	if _, err := NewHierarchical(1, 0); err == nil {
		t.Fatal("zero flow weight accepted")
	}
}

func TestHierarchicalEmptyDequeue(t *testing.T) {
	h := mustHier(t, 1, 1)
	if it := h.Dequeue(); it != nil {
		t.Fatalf("Dequeue on empty = %+v, want nil", it)
	}
}

// A tenant fanning out over many lambda flows must not gain share over
// a tenant with one flow — the outer queue arbitrates purely by tenant
// weight. Flat WFQ keyed by lambda would give the fan-out tenant 4/5
// of the service; hierarchical WFQ keeps it at 1/2.
func TestHierarchicalIsolatesFanOut(t *testing.T) {
	h := mustHier(t, 1, 1)
	const perFlow = 8
	for i := 0; i < perFlow; i++ {
		for flow := uint32(10); flow < 14; flow++ { // tenant 1: four flows
			h.Enqueue(1, &Item{Flow: flow, Size: 100, Payload: "fan"})
		}
		h.Enqueue(2, &Item{Flow: 20, Size: 100, Payload: "solo"})
	}
	// First 2*perFlow dequeues: equal split despite the 4:1 flow count.
	counts := map[string]int{}
	for i := 0; i < 2*perFlow; i++ {
		it := h.Dequeue()
		if it == nil {
			t.Fatal("early empty")
		}
		counts[it.Payload.(string)]++
	}
	if counts["solo"] != perFlow || counts["fan"] != perFlow {
		t.Fatalf("service split = %v, want equal %d/%d", counts, perFlow, perFlow)
	}
	// Within the fan-out tenant the four flows share equally.
	rest := map[uint32]int{}
	for it := h.Dequeue(); it != nil; it = h.Dequeue() {
		rest[it.Flow]++
	}
	for flow := uint32(10); flow < 14; flow++ {
		// Each flow had perFlow queued and perFlow/4 served above.
		if rest[flow] != perFlow-perFlow/4 {
			t.Fatalf("inner flow %d remaining = %d, counts=%v", flow, rest[flow], rest)
		}
	}
}

func TestHierarchicalTenantWeights(t *testing.T) {
	h := mustHier(t, 1, 1)
	if err := h.SetTenantWeight(1, 3); err != nil {
		t.Fatal(err)
	}
	// Both tenants backlogged with equal-size items: the weight-3
	// tenant gets ~3/4 of the first 16 services.
	for i := 0; i < 30; i++ {
		h.Enqueue(1, &Item{Flow: 10, Size: 100, Payload: "hi"})
		h.Enqueue(2, &Item{Flow: 20, Size: 100, Payload: "lo"})
	}
	counts := map[string]int{}
	for i := 0; i < 16; i++ {
		counts[h.Dequeue().Payload.(string)]++
	}
	if counts["hi"] != 12 || counts["lo"] != 4 {
		t.Fatalf("3:1 weighted split over 16 = %v, want 12/4", counts)
	}
}

func TestHierarchicalLen(t *testing.T) {
	h := mustHier(t, 1, 1)
	h.Enqueue(1, &Item{Flow: 10, Size: 1})
	h.Enqueue(1, &Item{Flow: 11, Size: 1})
	h.Enqueue(2, &Item{Flow: 20, Size: 1})
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	for h.Dequeue() != nil {
	}
	if h.Len() != 0 {
		t.Fatal("drain left state")
	}
}

// Tokens are recycled: a long enqueue/dequeue churn must not grow the
// token free list beyond the high-water backlog.
func TestHierarchicalTokenReuse(t *testing.T) {
	h := mustHier(t, 1, 1)
	for round := 0; round < 100; round++ {
		for i := 0; i < 4; i++ {
			h.Enqueue(uint32(i%2), &Item{Flow: uint32(i), Size: 64})
		}
		for h.Dequeue() != nil {
		}
	}
	if len(h.tokens) > 4 {
		t.Fatalf("token free list grew to %d, want <= high-water 4", len(h.tokens))
	}
}
