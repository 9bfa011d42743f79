package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"lambdanic/internal/sim"
)

func tenantsQuickConfig(kernel sim.KernelKind) (Config, TenantsConfig) {
	cfg := Quick()
	cfg.Kernel = kernel
	return cfg, QuickTenants()
}

func TestTenantsIsolationQuick(t *testing.T) {
	cfg, tc := tenantsQuickConfig(sim.KernelLadder)
	rep, err := Tenants(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Isolated {
		t.Fatalf("isolation violated:\n%s", RenderTenants(rep))
	}
	if rep.DuringP99 <= 0 || rep.DuringP99 > tc.IsolationP99 {
		t.Errorf("interactive p99 during burst = %v, want (0, %v]", rep.DuringP99, tc.IsolationP99)
	}
	if rep.FinalBurn != 0 {
		t.Errorf("final burn = %v, want 0 after the burst clears", rep.FinalBurn)
	}
	if rep.Shed == 0 {
		t.Error("admission shed nothing — burst did not exceed the batch quota")
	}
	if rep.BatchCompleted == 0 || rep.InteractiveCompleted == 0 {
		t.Errorf("NIC completions vip=%d bulk=%d, want both > 0",
			rep.InteractiveCompleted, rep.BatchCompleted)
	}

	// The harness's own bookkeeping must agree with the NIC schedulers.
	var vipReqs, bulkReqs, shed int
	for _, p := range rep.Phases {
		shed += p.Shed
		switch p.Tenant {
		case "vip":
			vipReqs += p.Requests
		case "bulk":
			bulkReqs += p.Requests
		}
	}
	if uint64(vipReqs) != rep.InteractiveCompleted {
		t.Errorf("vip: %d admitted vs %d completed on NICs", vipReqs, rep.InteractiveCompleted)
	}
	if uint64(bulkReqs) != rep.BatchCompleted {
		t.Errorf("bulk: %d admitted vs %d completed on NICs", bulkReqs, rep.BatchCompleted)
	}
	if uint64(shed) != rep.Shed {
		t.Errorf("phase shed sum %d vs admission total %d", shed, rep.Shed)
	}

	// Sheds land in the burst window only; the batch tenant completes
	// real work despite the flood.
	for _, p := range rep.Phases {
		if p.Phase != "during" && p.Shed != 0 {
			t.Errorf("%s/%s shed %d requests outside the burst", p.Tenant, p.Phase, p.Shed)
		}
	}

	out := RenderTenants(rep)
	for _, want := range []string{"vip", "bulk", "during", "bound"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if len(rep.Phases) != 6 {
		t.Fatalf("phase rows = %d, want 6 (2 tenants × 3 phases)", len(rep.Phases))
	}
}

// tenantsFingerprint is every report field that must be bit-identical
// across kernels and across the serial/parallel topologies.
type tenantsFingerprint struct {
	Phases               []TenantPhaseStat
	Shed                 uint64
	Interactive, Batch   uint64
	DuringP99            time.Duration
	WorstBurn, FinalBurn float64
	Executed             uint64
	FinalClock           time.Duration
}

func tenantsPrint(rep *TenantsReport) tenantsFingerprint {
	return tenantsFingerprint{
		Phases:      rep.Phases,
		Shed:        rep.Shed,
		Interactive: rep.InteractiveCompleted,
		Batch:       rep.BatchCompleted,
		DuringP99:   rep.DuringP99,
		WorstBurn:   rep.WorstBurn,
		FinalBurn:   rep.FinalBurn,
		Executed:    rep.Executed,
		FinalClock:  rep.FinalClock,
	}
}

func TestTenantsKernelsIdentical(t *testing.T) {
	cfgHeap, tc := tenantsQuickConfig(sim.KernelHeap)
	heap, err := Tenants(cfgHeap, tc)
	if err != nil {
		t.Fatal(err)
	}
	cfgLadder, _ := tenantsQuickConfig(sim.KernelLadder)
	ladder, err := Tenants(cfgLadder, tc)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := tenantsPrint(heap), tenantsPrint(ladder); !reflect.DeepEqual(a, b) {
		t.Errorf("heap and ladder kernels diverged:\nheap:   %+v\nladder: %+v", a, b)
	}
}
