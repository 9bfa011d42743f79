package drf

import (
	"reflect"
	"testing"
)

// Two users with identical demand vectors always have equal dominant
// shares at equal task counts; the allocator must break those ties in
// stable name order so placement plans are reproducible across runs.
func TestTieBreakStableNameOrder(t *testing.T) {
	want := []string{"alpha", "beta", "alpha", "beta", "alpha", "beta"}
	for run := 0; run < 20; run++ {
		a := mustNew(t, Resources{"threads": 6})
		// Register in the opposite order each run: the sorted a.order
		// must make insertion order irrelevant.
		names := []string{"beta", "alpha"}
		if run%2 == 0 {
			names = []string{"alpha", "beta"}
		}
		for _, n := range names {
			if err := a.AddUser(n, Resources{"threads": 1}); err != nil {
				t.Fatal(err)
			}
		}
		if got := a.AllocateAll(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (insert order %v): grants = %v, want %v", run, names, got, want)
		}
	}
}

// A demand that omits one of the capacity's resource keys demands zero
// of it: allocation must neither consume that resource nor divide by
// it when computing dominant shares.
func TestZeroDemandResourceKey(t *testing.T) {
	a := mustNew(t, Resources{"threads": 4, "emem": 100})
	// cpuOnly never names "emem" at all.
	if err := a.AddUser("cpuOnly", Resources{"threads": 1}); err != nil {
		t.Fatal(err)
	}
	grants := a.AllocateAll()
	if len(grants) != 4 {
		t.Fatalf("grants = %v, want 4 thread-bound tasks", grants)
	}
	rem := a.Remaining()
	if rem["threads"] != 0 || rem["emem"] != 100 {
		t.Fatalf("remaining = %v, want threads exhausted and emem untouched", rem)
	}
	share, err := a.DominantShare("cpuOnly")
	if err != nil {
		t.Fatal(err)
	}
	if share != 1.0 {
		t.Fatalf("dominant share = %v, want 1.0 (threads), not polluted by emem", share)
	}
	if util := a.Utilization(); util["emem"] != 0 {
		t.Fatalf("emem utilization = %v, want 0", util["emem"])
	}
}
