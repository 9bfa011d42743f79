package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lambdanic/internal/sim"
)

func skewQuickConfig(kernel sim.KernelKind) (Config, SkewConfig) {
	cfg := Quick()
	cfg.Kernel = kernel
	return cfg, QuickSkew()
}

func TestSkewQuick(t *testing.T) {
	cfg, sc := skewQuickConfig(sim.KernelLadder)
	rep, err := Skew(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 policies", len(rep.Rows))
	}
	if !rep.Affine {
		t.Fatalf("affinity verdict not met:\n%s", RenderSkew(rep))
	}
	rr, pin, mig := rep.Row(SkewPolicyRR), rep.Row(SkewPolicyPinned), rep.Row(SkewPolicyMig)
	if rr == nil || pin == nil || mig == nil {
		t.Fatalf("missing policy row:\n%s", RenderSkew(rep))
	}
	// All three policies consumed the identical schedule.
	if rr.Requests != pin.Requests || rr.Requests != mig.Requests || rr.Requests == 0 {
		t.Errorf("request counts diverge: rr=%d pinned=%d mig=%d",
			rr.Requests, pin.Requests, mig.Requests)
	}
	if rr.Errors+pin.Errors+mig.Errors != 0 {
		t.Errorf("errors: rr=%d pinned=%d mig=%d", rr.Errors, pin.Errors, mig.Errors)
	}
	// The headline claims, individually.
	if mig.P99 >= rr.P99 {
		t.Errorf("pinned+mig p99 %v not below rr %v", mig.P99, rr.P99)
	}
	if mig.WarmRate <= rr.WarmRate {
		t.Errorf("pinned+mig warm rate %.3f not above rr %.3f", mig.WarmRate, rr.WarmRate)
	}
	// Affinity concentrates load; migration restores spread without
	// giving the warm hits back.
	if pin.Spread <= rr.Spread {
		t.Errorf("pinned spread %.2f not above rr %.2f — no hotspot to fix", pin.Spread, rr.Spread)
	}
	if mig.Spread >= pin.Spread {
		t.Errorf("migration did not improve spread: mig %.2f vs pinned %.2f", mig.Spread, pin.Spread)
	}
	if mig.Migrations == 0 {
		t.Error("pinned+mig applied no migrations under the flash crowd")
	}
	if rr.Migrations != 0 || pin.Migrations != 0 {
		t.Errorf("static policies migrated: rr=%d pinned=%d", rr.Migrations, pin.Migrations)
	}
	// Round-robin sprays flows, so its warm hits trail badly.
	if rr.WarmHits+rr.WarmMisses == 0 {
		t.Error("warm-state model inactive: no lookups recorded")
	}

	out := RenderSkew(rep)
	for _, want := range []string{"rr", "pinned+mig", "warm%", "spread", "met"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.P99 <= 0 || r.P999 < r.P99 {
			t.Errorf("%s: p99=%v p999=%v", r.Policy, r.P99, r.P999)
		}
	}
}

// TestFlowNameMatchesSprintf: skewSchedule's flow names, and so its flow
// keys, are the ones fmt.Sprintf made.
func TestFlowNameMatchesSprintf(t *testing.T) {
	var buf []byte
	for _, n := range []int{0, 7, 42, 999, 1000, 4095, 12345, 999999, 1000000, 123456789} {
		for _, width := range []int{4, 6} {
			buf = flowName(buf, "c", n, width)
			if want := fmt.Sprintf("c%0*d", width, n); string(buf) != want {
				t.Errorf("flowName(%d, %d) = %q, want %q", n, width, buf, want)
			}
		}
	}
}

func TestSkewScheduleDeterministic(t *testing.T) {
	cfg, sc := skewQuickConfig(sim.KernelLadder)
	a := skewSchedule(cfg, sc.withDefaults())
	b := skewSchedule(cfg, sc.withDefaults())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedule draws from the same seed diverged")
	}
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	c := skewSchedule(cfg2, sc.withDefaults())
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same schedule")
	}
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	last := sim.Time(0)
	crowd := 0
	for i, ar := range a {
		if ar.flow == 0 {
			t.Fatalf("arrival %d has zero flow key", i)
		}
		if ar.at >= sim.Time(sc.CrowdStart) && ar.at < sim.Time(sc.CrowdEnd) {
			crowd++
		}
		if ar.at > last {
			last = ar.at
		}
	}
	if last >= sim.Time(sc.Duration)+sim.Time(sc.CrowdEnd) {
		t.Errorf("arrival beyond horizon: %v", last)
	}
	if crowd == 0 {
		t.Error("no arrivals in the flash-crowd window")
	}
}

func TestSkewKernelsIdentical(t *testing.T) {
	cfgHeap, sc := skewQuickConfig(sim.KernelHeap)
	heap, err := Skew(cfgHeap, sc)
	if err != nil {
		t.Fatal(err)
	}
	cfgLadder, _ := skewQuickConfig(sim.KernelLadder)
	ladder, err := Skew(cfgLadder, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(heap.Rows, ladder.Rows) {
		t.Errorf("heap and ladder kernels diverged:\nheap:   %+v\nladder: %+v",
			heap.Rows, ladder.Rows)
	}
}
