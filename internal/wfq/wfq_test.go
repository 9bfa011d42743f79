package wfq

import (
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, w float64) *Scheduler {
	t.Helper()
	s, err := New(w)
	if err != nil {
		t.Fatalf("New(%v): %v", w, err)
	}
	return s
}

func TestNewRejectsNonPositiveWeight(t *testing.T) {
	for _, w := range []float64{0, -1} {
		if _, err := New(w); err == nil {
			t.Errorf("New(%v) succeeded, want error", w)
		}
	}
}

func TestSetWeightRejectsNonPositive(t *testing.T) {
	s := mustNew(t, 1)
	if err := s.SetWeight(1, 0); err == nil {
		t.Error("SetWeight(1, 0) succeeded, want error")
	}
}

func TestEmptyDequeue(t *testing.T) {
	s := mustNew(t, 1)
	if got := s.Dequeue(); got != nil {
		t.Errorf("Dequeue on empty = %v, want nil", got)
	}
}

func TestFIFOWithinFlow(t *testing.T) {
	s := mustNew(t, 1)
	for i := 0; i < 5; i++ {
		s.Enqueue(&Item{Flow: 1, Size: 10, Payload: i})
	}
	for i := 0; i < 5; i++ {
		it := s.Dequeue()
		if it == nil || it.Payload.(int) != i {
			t.Fatalf("item %d out of order: %+v", i, it)
		}
	}
}

func TestEqualWeightsInterleave(t *testing.T) {
	// Two backlogged flows with equal weights and equal sizes must be
	// served alternately.
	s := mustNew(t, 1)
	for i := 0; i < 4; i++ {
		s.Enqueue(&Item{Flow: 1, Size: 100, Payload: "a"})
		s.Enqueue(&Item{Flow: 2, Size: 100, Payload: "b"})
	}
	var order []string
	for it := s.Dequeue(); it != nil; it = s.Dequeue() {
		order = append(order, it.Payload.(string))
	}
	for i := 0; i+1 < len(order); i += 2 {
		if order[i] == order[i+1] {
			t.Fatalf("flows not interleaved: %v", order)
		}
	}
}

func TestWeightedShare(t *testing.T) {
	// Flow 1 has weight 3, flow 2 weight 1: in any service window of
	// backlogged equal-size items, flow 1 should receive ~3x the
	// service.
	s := mustNew(t, 1)
	if err := s.SetWeight(1, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		s.Enqueue(&Item{Flow: 1, Size: 10})
		s.Enqueue(&Item{Flow: 2, Size: 10})
	}
	counts := map[uint32]int{}
	for i := 0; i < 200; i++ {
		it := s.Dequeue()
		counts[it.Flow]++
	}
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("service ratio = %v (counts %v), want ~3", ratio, counts)
	}
}

func TestLargePacketsPenalized(t *testing.T) {
	// With equal weights, a flow sending 10x larger items should be
	// served ~10x less often.
	s := mustNew(t, 1)
	for i := 0; i < 400; i++ {
		s.Enqueue(&Item{Flow: 1, Size: 100})
		s.Enqueue(&Item{Flow: 2, Size: 10})
	}
	counts := map[uint32]int{}
	for i := 0; i < 220; i++ {
		counts[s.Dequeue().Flow]++
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 8 || ratio > 12 {
		t.Errorf("service ratio = %v (counts %v), want ~10", ratio, counts)
	}
}

func TestIdleFlowDoesNotBankCredit(t *testing.T) {
	// A flow that was idle while another was served must not be able to
	// monopolize the scheduler afterwards: its start time is the current
	// virtual time, not its stale last finish.
	s := mustNew(t, 1)
	for i := 0; i < 100; i++ {
		s.Enqueue(&Item{Flow: 1, Size: 10})
	}
	for i := 0; i < 100; i++ {
		s.Dequeue()
	}
	// Now flow 2 wakes up and both are backlogged.
	for i := 0; i < 50; i++ {
		s.Enqueue(&Item{Flow: 1, Size: 10})
		s.Enqueue(&Item{Flow: 2, Size: 10})
	}
	counts := map[uint32]int{}
	for i := 0; i < 40; i++ {
		counts[s.Dequeue().Flow]++
	}
	if counts[1] < 15 || counts[2] < 15 {
		t.Errorf("late-arriving flow starved: %v", counts)
	}
}

func TestZeroSizeItems(t *testing.T) {
	s := mustNew(t, 1)
	s.Enqueue(&Item{Flow: 1, Size: 0})
	s.Enqueue(&Item{Flow: 1, Size: 0})
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if s.Dequeue() == nil || s.Dequeue() == nil {
		t.Fatal("zero-size items not dequeued")
	}
}

func TestConservationProperty(t *testing.T) {
	// Property: everything enqueued is dequeued exactly once, in
	// nondecreasing virtual-finish order.
	f := func(flows []uint8, sizes []uint8) bool {
		s, err := New(1)
		if err != nil {
			return false
		}
		n := len(flows)
		if len(sizes) < n {
			n = len(sizes)
		}
		for i := 0; i < n; i++ {
			s.Enqueue(&Item{Flow: uint32(flows[i] % 4), Size: uint64(sizes[i]), Payload: i})
		}
		seen := make(map[int]bool, n)
		prev := -1.0
		for it := s.Dequeue(); it != nil; it = s.Dequeue() {
			idx := it.Payload.(int)
			if seen[idx] {
				return false
			}
			seen[idx] = true
			if it.finish < prev {
				return false
			}
			prev = it.finish
		}
		return len(seen) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A flow that stays backlogged cycles through its FIFO's backing array:
// steady-state churn at a fixed depth never regrows it.
func TestFlowFIFOReusesBackingArray(t *testing.T) {
	s := mustNew(t, 1)
	for i := 0; i < 100; i++ {
		s.Enqueue(&Item{Flow: 1, Size: 10})
	}
	ring := s.flows[1].ring
	for i := 0; i < 1000; i++ {
		s.Enqueue(s.Dequeue())
	}
	if got := s.flows[1].ring; &got[0] != &ring[0] || len(got) != len(ring) {
		t.Fatalf("FIFO regrew from %d to %d slots", len(ring), len(got))
	}
}
