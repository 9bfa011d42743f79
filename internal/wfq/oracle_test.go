package wfq

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refScheduler is the reference Scheduler is held to: one heap entry
// per queued item, keyed on (finish, seq), with the same stamps. It
// keeps its stamps in its own entries, so it can run beside a Scheduler
// on the very same items.
type refScheduler struct {
	weights    map[uint32]float64
	lastFinish map[uint32]float64
	virtual    float64
	seq        uint64
	heap       refHeap
	defaultW   float64
}

type refEntry struct {
	it     *Item
	finish float64
	seq    uint64
}

func newRef(defaultW float64) *refScheduler {
	return &refScheduler{
		weights:    make(map[uint32]float64),
		lastFinish: make(map[uint32]float64),
		defaultW:   defaultW,
	}
}

func (s *refScheduler) setWeight(flow uint32, w float64) { s.weights[flow] = w }

func (s *refScheduler) enqueue(it *Item) {
	start := s.virtual
	if last, ok := s.lastFinish[it.Flow]; ok && last > start {
		start = last
	}
	size := it.Size
	if size == 0 {
		size = 1
	}
	w, ok := s.weights[it.Flow]
	if !ok {
		w = s.defaultW
	}
	e := refEntry{it: it, finish: start + float64(size)/w, seq: s.seq}
	s.seq++
	s.lastFinish[it.Flow] = e.finish
	heap.Push(&s.heap, e)
}

func (s *refScheduler) dequeue() *Item {
	if s.heap.Len() == 0 {
		return nil
	}
	e := heap.Pop(&s.heap).(refEntry)
	if e.finish > s.virtual {
		s.virtual = e.finish
	}
	return e.it
}

type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(refEntry)) }

func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// refHier is Hierarchical over reference schedulers: one outer token
// per queued item, of the item's size.
type refHier struct {
	outer *refScheduler
	inner map[uint32]*refScheduler
	flowW float64
}

func (h *refHier) enqueue(tenant uint32, it *Item) {
	q, ok := h.inner[tenant]
	if !ok {
		q = newRef(h.flowW)
		h.inner[tenant] = q
	}
	q.enqueue(it)
	h.outer.enqueue(&Item{Flow: tenant, Size: it.Size})
}

func (h *refHier) dequeue() *Item {
	tok := h.outer.dequeue()
	if tok == nil {
		return nil
	}
	return h.inner[tok.Flow].dequeue()
}

// fuzzWeight maps a byte to a positive weight with divisors 1 to 8, so
// many stamps are inexact in binary.
func fuzzWeight(b byte) float64 { return float64(b%32+1) / float64(b>>5+1) }

// FuzzSchedulerMatchesHeap drives one operation stream through a
// Scheduler and a Hierarchical and their per-item heap references, and
// wants every dequeue to return the same item and every virtual time
// bit-equal. ops[0] picks 1 to 3 tenants, ops[1] and ops[2] the default
// tenant and flow weights; then each pair (op, arg) is an enqueue
// (flow arg%8, tenant (arg>>3)%tenants, size op>>2, 0 included), a
// dequeue, or a SetWeight of flow and tenant (op>>2)%8 and
// (op>>2)%tenants to fuzzWeight(arg). A zero size stamps like size 1,
// so equal finishes across flows are common and the arrival tie-break
// decides them.
func FuzzSchedulerMatchesHeap(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 4, 2, 0, 8, 2, 0, 2, 0})
	f.Add([]byte{0, 7, 3, 3, 9, 4, 1, 8, 10, 2, 0, 7, 33, 2, 0, 2, 0})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+rng.Intn(512))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 3 {
			return
		}
		tenants := uint32(ops[0]%3) + 1
		tenantW, flowW := fuzzWeight(ops[1]), fuzzWeight(ops[2])
		flat, err := New(flowW)
		if err != nil {
			t.Fatal(err)
		}
		hier, err := NewHierarchical(tenantW, flowW)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(flowW)
		refH := &refHier{outer: newRef(tenantW), inner: make(map[uint32]*refScheduler), flowW: flowW}

		check := func(step int) {
			t.Helper()
			got, want := flat.Dequeue(), ref.dequeue()
			if got != want {
				t.Fatalf("step %d: Scheduler served %+v, the heap %+v", step, got, want)
			}
			got, want = hier.Dequeue(), refH.dequeue()
			if got != want {
				t.Fatalf("step %d: Hierarchical served %+v, the heap %+v", step, got, want)
			}
		}
		for i := 3; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 4 {
			case 0, 1:
				flow, tenant, size := uint32(arg%8), uint32(arg>>3)%tenants, uint64(op>>2)
				it := &Item{Flow: flow, Size: size}
				flat.Enqueue(it)
				ref.enqueue(it)
				it = &Item{Flow: flow, Size: size}
				hier.Enqueue(tenant, it)
				refH.enqueue(tenant, it)
			case 2:
				check(i)
			case 3:
				w := fuzzWeight(arg)
				if err := flat.SetWeight(uint32(op>>2)%8, w); err != nil {
					t.Fatal(err)
				}
				ref.setWeight(uint32(op>>2)%8, w)
				if err := hier.SetTenantWeight(uint32(op>>2)%tenants, w); err != nil {
					t.Fatal(err)
				}
				refH.outer.setWeight(uint32(op>>2)%tenants, w)
			}
			if math.Float64bits(flat.virtual) != math.Float64bits(ref.virtual) ||
				math.Float64bits(hier.outer.virtual) != math.Float64bits(refH.outer.virtual) {
				t.Fatalf("step %d: virtual time %v / %v, the heap %v / %v",
					i, flat.virtual, hier.outer.virtual, ref.virtual, refH.outer.virtual)
			}
			for tenant, q := range refH.inner {
				if v := hier.inner[tenant].virtual; math.Float64bits(v) != math.Float64bits(q.virtual) {
					t.Fatalf("step %d: tenant %d virtual time %v, the heap %v", i, tenant, v, q.virtual)
				}
			}
			if flat.Len() != ref.heap.Len() || hier.Len() != refH.outer.heap.Len() {
				t.Fatalf("step %d: Len %d / %d, the heap %d / %d",
					i, flat.Len(), hier.Len(), ref.heap.Len(), refH.outer.heap.Len())
			}
		}
		for flat.Len() > 0 || hier.Len() > 0 {
			check(len(ops))
		}
		check(len(ops))
	})
}
