package experiments

import (
	"strings"
	"testing"
)

func TestOptimizerImpact(t *testing.T) {
	r, err := MeasureOptimizerImpact(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.LatencySavedSeconds <= 0 {
		t.Errorf("optimizer saved no latency: %v", r.LatencySavedSeconds)
	}
	// The paper reports 6.3 µs average savings; our stratification pass
	// saves more (it also repins memory levels). Accept the same order
	// of magnitude.
	us := r.LatencySavedSeconds * 1e6
	if us < 0.5 || us > 50 {
		t.Errorf("latency saved = %.2f µs, want 0.5-50 µs", us)
	}
	// Optimization must let strictly more lambdas fit the store.
	if !(r.OptimizedFit > r.NaiveFit) {
		t.Errorf("fit: naive %d, optimized %d; optimization bought nothing",
			r.NaiveFit, r.OptimizedFit)
	}
	if out := RenderOptimizerImpact(r); !strings.Contains(out, "16K store") {
		t.Error("render broken")
	}
}

// TestMarginalFitMatchesLinearScan holds the binary search to the
// linear scan it replaced: the first count whose image overflows the
// store, or the cap when none does.
func TestMarginalFitMatchesLinearScan(t *testing.T) {
	cfg := Quick()
	set := cfg.set()
	for _, optimize := range []bool{false, true} {
		want := maxExtraLambdas
		for extra := 0; extra <= maxExtraLambdas; extra++ {
			size, err := marginalSize(set, extra+1, optimize)
			if err != nil {
				t.Fatal(err)
			}
			if size > cfg.Testbed.NIC.InstrStorePerCore {
				want = extra
				break
			}
		}
		got, err := marginalFit(cfg, set, optimize)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("optimize=%v: marginalFit = %d, linear scan = %d", optimize, got, want)
		}
	}
}
