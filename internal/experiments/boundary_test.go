package experiments

import (
	"reflect"
	"strings"
	"testing"

	"lambdanic/internal/placement"
	"lambdanic/internal/sim"
)

func boundaryQuickConfig(kernel sim.KernelKind) (Config, BoundaryConfig) {
	cfg := Quick()
	cfg.Kernel = kernel
	return cfg, QuickBoundary()
}

func TestBoundaryQuick(t *testing.T) {
	cfg, bc := boundaryQuickConfig(sim.KernelLadder)
	rep, err := Boundary(cfg, bc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 policies", len(rep.Rows))
	}
	if !rep.Pareto {
		t.Fatalf("Pareto verdict not met:\n%s", RenderBoundary(rep))
	}
	sn, sh, dyn := rep.Row(BoundaryPolicyNIC), rep.Row(BoundaryPolicyHost), rep.Row(BoundaryPolicyDyn)
	if sn == nil || sh == nil || dyn == nil {
		t.Fatalf("missing policy row:\n%s", RenderBoundary(rep))
	}
	// All three policies consumed the identical schedule, and the
	// simulated cluster served all of it.
	if sn.Requests != sh.Requests || sn.Requests != dyn.Requests || sn.Requests == 0 {
		t.Errorf("request counts diverge: nic=%d host=%d dyn=%d",
			sn.Requests, sh.Requests, dyn.Requests)
	}
	if sn.Errors+sh.Errors+dyn.Errors != 0 {
		t.Errorf("errors: nic=%d host=%d dyn=%d", sn.Errors, sh.Errors, dyn.Errors)
	}
	// The headline claims, individually. Cost: the dynamic policy's
	// NIC-core·time must be strictly below the always-on rack.
	if dyn.NICCoreSeconds >= sn.NICCoreSeconds {
		t.Errorf("dynamic cost %.4f core·s not below static-nic %.4f",
			dyn.NICCoreSeconds, sn.NICCoreSeconds)
	}
	if sh.NICCoreSeconds != 0 {
		t.Errorf("static-host burned NIC cores: %.4f", sh.NICCoreSeconds)
	}
	// Latency: at peak, the saturated static rack's tail must be far
	// above the dynamic policy's (the boundary re-split is what buys
	// the win, so the gap should be large, not marginal).
	if dyn.Phases[1].P99*2 > sn.Phases[1].P99 {
		t.Errorf("peak p99: dynamic %v not well below static-nic %v",
			dyn.Phases[1].P99, sn.Phases[1].P99)
	}
	// The serverful baseline collapses everywhere: its dispatch path
	// saturates three orders of magnitude below the offered rate.
	if sh.P99 < 10*sn.P99 {
		t.Errorf("static-host p99 %v suspiciously close to static-nic %v", sh.P99, sn.P99)
	}
	// Exactly one boundary move (the heavy sweeper leaves the NIC at
	// the morning ramp) and at least one scale-up + scale-down pair.
	if dyn.Migrations != 1 || len(dyn.Moves) != 1 {
		t.Errorf("migrations = %d (moves %d), want exactly 1:\n%s",
			dyn.Migrations, len(dyn.Moves), RenderBoundary(rep))
	}
	if len(dyn.Moves) == 1 {
		m := dyn.Moves[0]
		if m.Workload != "bnd_heavy" || m.From != placement.LocNIC || m.To != placement.LocHost {
			t.Errorf("move = %+v, want bnd_heavy NIC->HOST", m)
		}
	}
	if dyn.ScaleOps < 2 {
		t.Errorf("scale ops = %d, want >= 2 (up at the ramp, down after)", dyn.ScaleOps)
	}
	if sn.Migrations != 0 || sh.Migrations != 0 || sn.ScaleOps != 0 || sh.ScaleOps != 0 {
		t.Errorf("static policies ran the control loop: nic=%d/%d host=%d/%d",
			sn.Migrations, sn.ScaleOps, sh.Migrations, sh.ScaleOps)
	}

	out := RenderBoundary(rep)
	for _, want := range []string{"static-nic", "static-host", "dynamic", "core·ms", "Pareto met", "bnd_heavy NIC->HOST"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if len(r.Phases) != len(boundaryPhases) {
			t.Errorf("%s: %d phases, want %d", r.Policy, len(r.Phases), len(boundaryPhases))
		}
		if r.P99 <= 0 || r.P999 < r.P99 {
			t.Errorf("%s: p99=%v p999=%v", r.Policy, r.P99, r.P999)
		}
		for _, ph := range r.Phases {
			if ph.P99 <= 0 || ph.P999 < ph.P99 {
				t.Errorf("%s/%s: p99=%v p999=%v", r.Policy, ph.Phase, ph.P99, ph.P999)
			}
		}
	}
}

func TestBoundaryScheduleDeterministic(t *testing.T) {
	cfg, bc := boundaryQuickConfig(sim.KernelLadder)
	bc = bc.withDefaults()
	a := boundarySchedule(cfg, bc)
	b := boundarySchedule(cfg, bc)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedule draws from the same seed diverged")
	}
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	c := boundarySchedule(cfg2, bc)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same schedule")
	}
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	// Phases are attributed by arrival time, every class appears, and
	// the crowd window carries visibly more web traffic than the rest
	// of the peak.
	classes := map[int]int{}
	phases := map[int]int{}
	horizon := sim.Time(bc.totalDur())
	crowdWeb, crowdSpan := 0, float64(bc.CrowdDur)
	lateWeb, lateSpan := 0, float64(bc.PeakDur-bc.CrowdDur)
	t1, crowdEnd := sim.Time(bc.TroughDur), sim.Time(bc.TroughDur)+sim.Time(bc.CrowdDur)
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at {
			t.Fatalf("schedule out of order at %d", i)
		}
	}
	for _, ar := range a {
		if ar.at >= horizon {
			t.Fatalf("arrival beyond horizon: %v", ar.at)
		}
		classes[ar.class]++
		phases[ar.phase]++
		if ar.class == 0 && ar.at >= t1 && ar.at < crowdEnd {
			crowdWeb++
		}
		if ar.class == 0 && ar.at >= crowdEnd && ar.at < t1+sim.Time(bc.PeakDur) {
			lateWeb++
		}
	}
	for c := 0; c < 3; c++ {
		if classes[c] == 0 {
			t.Errorf("class %d has no arrivals", c)
		}
	}
	for p := range boundaryPhases {
		if phases[p] == 0 {
			t.Errorf("phase %s has no arrivals", boundaryPhases[p])
		}
	}
	if float64(crowdWeb)/crowdSpan <= float64(lateWeb)/lateSpan {
		t.Errorf("flash crowd invisible: %d web in crowd window vs %d after", crowdWeb, lateWeb)
	}
}

func TestBoundaryKernelsIdentical(t *testing.T) {
	cfgHeap, bc := boundaryQuickConfig(sim.KernelHeap)
	heap, err := Boundary(cfgHeap, bc)
	if err != nil {
		t.Fatal(err)
	}
	cfgLadder, _ := boundaryQuickConfig(sim.KernelLadder)
	ladder, err := Boundary(cfgLadder, bc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(heap.Rows, ladder.Rows) {
		t.Errorf("heap and ladder kernels diverged:\nheap:   %+v\nladder: %+v",
			heap.Rows, ladder.Rows)
	}
}
