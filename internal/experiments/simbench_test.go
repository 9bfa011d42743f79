package experiments

import (
	"strings"
	"testing"
)

// tinySimBench keeps the unit test fast; the real sizes run under
// cmd/lnic-bench.
func tinySimBench() SimBenchConfig {
	return SimBenchConfig{Events: 5_000, Outstanding: 128, Reps: 1}
}

func TestSimBench(t *testing.T) {
	rep := SimBench(Quick(), tinySimBench())
	want := []string{
		"sched/heap", "sched/heap-pooled", "sched/ladder", "sched/ladder-pooled",
		"timers/heap", "timers/ladder",
	}
	if len(rep.Results) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(rep.Results), len(want), rep.Results)
	}
	byName := map[string]int{}
	for i, r := range rep.Results {
		byName[r.Name] = i
		if r.ReqPerSec <= 0 || r.Requests <= 0 {
			t.Errorf("%s: empty measurement %+v", r.Name, r)
		}
	}
	for _, name := range want {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing row %s", name)
		}
	}

	// Identical sched scenarios across kernels fire identical counts.
	if a, b := rep.Results[byName["sched/heap"]].Requests,
		rep.Results[byName["sched/ladder"]].Requests; a != b {
		t.Errorf("sched event counts differ across kernels: heap=%d ladder=%d", a, b)
	}

	if out := RenderSimBench(rep); !strings.Contains(out, "timers/ladder") {
		t.Errorf("render missing rows:\n%s", out)
	}
}
