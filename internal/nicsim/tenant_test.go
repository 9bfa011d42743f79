package nicsim

import (
	"testing"

	"lambdanic/internal/sim"
)

// A batch tenant fanning out over two lambdas must not squeeze the
// interactive tenant's single lambda below its weighted share: with
// weights 3:1 the interactive tenant gets ~3/4 of a saturated thread.
func TestTenantWFQIsolatesNoisyNeighbor(t *testing.T) {
	s := sim.New(1)
	cfg := smallConfig(1)
	cfg.Dispatch = DispatchTenantWFQ
	cfg.TenantOf = func(lambdaID uint32) uint32 {
		if lambdaID == 1 {
			return 10 // interactive
		}
		return 20 // batch (lambdas 2 and 3)
	}
	cfg.TenantWeights = map[uint32]float64{10: 3, 20: 1}
	n := newNIC(t, s, cfg)
	img := &fakeImage{lambdas: map[uint32]fakeLambda{
		1: {instr: 100}, 2: {instr: 100}, 3: {instr: 100},
	}, static: 1000}
	loadSingle(t, n, img)

	// The batch tenant floods two flows before the interactive tenant's
	// requests arrive — the worst case for flat per-lambda WFQ, where
	// the 2:1 flow count would hand batch 2/3 of the service.
	var order []uint32
	record := func(id uint32) func(Response, error) {
		return func(Response, error) { order = append(order, id) }
	}
	for i := 0; i < 12; i++ {
		n.Inject(&Request{LambdaID: 2, Payload: make([]byte, 100)}, record(2))
		n.Inject(&Request{LambdaID: 3, Payload: make([]byte, 100)}, record(3))
	}
	for i := 0; i < 12; i++ {
		n.Inject(&Request{LambdaID: 1, Payload: make([]byte, 100)}, record(1))
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}

	// Once both tenants are backlogged (after the first in-flight
	// request), a 3:1 outer split should serve ~3 interactive per batch.
	interactiveEarly := 0
	for _, id := range order[1:13] {
		if id == 1 {
			interactiveEarly++
		}
	}
	if interactiveEarly < 8 {
		t.Errorf("interactive got %d of first 12 backlogged services, want >= 8 (3:1 weights)", interactiveEarly)
	}
	if got := n.TenantCompleted(10); got != 12 {
		t.Errorf("TenantCompleted(interactive) = %d, want 12", got)
	}
	if got := n.TenantCompleted(20); got != 24 {
		t.Errorf("TenantCompleted(batch) = %d, want 24", got)
	}
	if got := n.Stats().Completed; got != 36 {
		t.Errorf("Completed = %d, want 36", got)
	}
}

// Nil TenantOf degrades to a single tenant: everything schedules and
// counts under tenant 0.
func TestTenantWFQNilClassifier(t *testing.T) {
	s := sim.New(1)
	cfg := smallConfig(1)
	cfg.Dispatch = DispatchTenantWFQ
	n := newNIC(t, s, cfg)
	loadSingle(t, n, image(1, fakeLambda{instr: 10}))
	for i := 0; i < 5; i++ {
		n.Inject(&Request{LambdaID: 1}, nil)
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got := n.TenantCompleted(0); got != 5 {
		t.Errorf("TenantCompleted(0) = %d, want 5", got)
	}
}

// Crash must drain the hierarchical queue like the flat one.
func TestTenantWFQCrashDrainsQueue(t *testing.T) {
	s := sim.New(1)
	cfg := smallConfig(1)
	cfg.Dispatch = DispatchTenantWFQ
	n := newNIC(t, s, cfg)
	loadSingle(t, n, image(1, fakeLambda{instr: 1000}))
	for i := 0; i < 4; i++ {
		n.Inject(&Request{LambdaID: 1}, nil)
	}
	if n.queueDepth() != 3 {
		t.Fatalf("queueDepth = %d, want 3 queued behind 1 running", n.queueDepth())
	}
	n.Crash()
	if n.queueDepth() != 0 {
		t.Fatalf("queueDepth after crash = %d, want 0", n.queueDepth())
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().Dropped; got != 4 {
		t.Errorf("Dropped = %d, want 4 (3 queued + 1 in flight)", got)
	}
}

func TestTenantWFQRejectsBadWeight(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Dispatch = DispatchTenantWFQ
	cfg.TenantWeights = map[uint32]float64{1: -2}
	if _, err := New(sim.New(1), cfg); err == nil {
		t.Fatal("negative tenant weight accepted")
	}
}
