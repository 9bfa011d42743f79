// Steady-state allocation gate for the compiled engine, in an external
// test package so it can drive the real paper workloads through the
// public API (workloads imports mcc; the internal test package cannot
// import it back).
package mcc_test

import (
	"runtime/debug"
	"testing"

	"lambdanic/internal/mcc"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/workloads"
)

// executing links ws without their native reply functions, so the
// compiled engine executes every request rather than replaying it.
func executing(tb testing.TB, ws []*workloads.Workload, target int, opts mcc.LinkOptions) *mcc.Executable {
	tb.Helper()
	prog, _, err := workloads.OptimizedProgram(ws, target)
	if err != nil {
		tb.Fatal(err)
	}
	prog.Native = nil
	exe, err := mcc.Link(prog, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return exe
}

// TestExecAllocs gates the tentpole's 0 allocs/op claim: steady-state
// pooled execution of the KV and grayscale lambdas (and the web
// server) must not allocate. GC is disabled for the measurement so
// sync.Pool eviction between runs cannot fake an allocation.
func TestExecAllocs(t *testing.T) {
	ws := []*workloads.Workload{
		workloads.WebServer(),
		workloads.KVGetClient(),
		workloads.ImageTransformer(16, 16),
	}
	exe := executing(t, ws, 0, mcc.LinkOptions{})
	if kind := exe.DispatchKind(); kind != "jump-table" {
		t.Fatalf("DispatchKind = %q, want jump-table for the optimized paper program", kind)
	}

	cases := make(map[string]*nicsim.Request)
	for _, w := range ws {
		payload := w.MakeRequest(7)
		cases[w.Name] = &nicsim.Request{
			LambdaID: w.ID,
			Payload:  payload,
			Packets:  workloads.Packets(len(payload)),
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, req := range cases {
		// Warm: first requests pay the runtime library's one-time init
		// and grow the pooled response buffer to steady-state capacity.
		for i := 0; i < 5; i++ {
			if err := exe.ExecutePooled(req, nil); err != nil {
				t.Fatalf("%s warmup: %v", name, err)
			}
		}
		avg := testing.AllocsPerRun(200, func() {
			if err := exe.ExecutePooled(req, nil); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: steady-state ExecutePooled allocates %.2f allocs/op, want 0", name, avg)
		}
	}
}
