package experiments

import (
	"strings"
	"testing"

	"lambdanic/internal/healthd"
)

// TestChaosRecovery is the acceptance check for the self-healing loop:
// the crashed worker must be detected and evicted within the detector's
// design bound of healthd.DefaultEvictAfter+2 heartbeat intervals, availability must
// return to 100% once the survivors own the route, and the tail must
// re-converge to the healthy baseline.
func TestChaosRecovery(t *testing.T) {
	cfg := Quick()
	rep, err := Chaos(cfg, QuickChaos())
	if err != nil {
		t.Fatalf("Chaos: %v", err)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(rep.Phases))
	}
	before, during, after := rep.Phases[0], rep.Phases[1], rep.Phases[2]
	for _, p := range rep.Phases {
		if p.Requests == 0 {
			t.Fatalf("phase %s saw no requests", p.Name)
		}
	}

	// Eviction within the bounded number of heartbeat intervals: the
	// detector needs EvictAfter intervals of silence, plus up to one
	// interval since the last beat and one of check granularity.
	bound := float64(healthd.DefaultEvictAfter + 2)
	if rep.RecoveryIntervals <= 0 || rep.RecoveryIntervals > bound {
		t.Errorf("recovery took %.2f heartbeat intervals, want (0, %.0f]",
			rep.RecoveryIntervals, bound)
	}

	// The healthy fleet and the recovered fleet both serve everything.
	if before.Availability != 1.0 {
		t.Errorf("before availability = %v, want 1.0", before.Availability)
	}
	if after.Availability != 1.0 {
		t.Errorf("after availability = %v (%d/%d errors), want 1.0",
			after.Availability, after.Errors, after.Requests)
	}
	// The outage window is visible: failovers happened, and the tail
	// during the window carries the attempt timeout.
	if rep.Failovers == 0 {
		t.Error("no failovers recorded during the outage")
	}
	if during.P99 <= before.P99 {
		t.Errorf("during p99 %v not elevated over before p99 %v", during.P99, before.P99)
	}
	// Tail re-convergence: after eviction the route holds only live
	// workers, so p99 returns to the healthy order of magnitude.
	if after.P99 > 2*before.P99 {
		t.Errorf("after p99 %v did not re-converge (before %v)", after.P99, before.P99)
	}

	// The dead worker is gone from the placement; the survivors remain.
	for _, w := range rep.Survivors {
		if w == rep.Killed {
			t.Errorf("killed worker %s still placed: %v", rep.Killed, rep.Survivors)
		}
	}
	if want := QuickChaos().Workers - 1; len(rep.Survivors) != want {
		t.Errorf("survivors = %v, want %d workers", rep.Survivors, want)
	}

	// The detector's log shows the death, and both fault instants are
	// marked for the Chrome trace.
	sawDead := false
	for _, tr := range rep.Transitions {
		if tr.Worker == rep.Killed && tr.To == healthd.StatusDead {
			sawDead = true
		}
	}
	if !sawDead {
		t.Errorf("no Dead transition for %s in %+v", rep.Killed, rep.Transitions)
	}
	if len(rep.Marks) < 2 {
		t.Fatalf("marks = %+v, want crash + evict", rep.Marks)
	}
	for i, want := range []string{"nic-crash:", "evict:"} {
		if !strings.HasPrefix(rep.Marks[i].Name, want) {
			t.Errorf("mark %d = %q, want prefix %q", i, rep.Marks[i].Name, want)
		}
	}
	if len(rep.Requests) == 0 {
		t.Error("no request traces collected")
	}

	if out := RenderChaos(rep); !strings.Contains(out, "availability") {
		t.Errorf("render missing header:\n%s", out)
	}
}

// TestChaosDeterministic asserts the whole experiment — fault
// schedule, detection, eviction, and every latency percentile — is a
// pure function of the seed.
func TestChaosDeterministic(t *testing.T) {
	cfg := Quick()
	a, err := Chaos(cfg, QuickChaos())
	if err != nil {
		t.Fatalf("Chaos: %v", err)
	}
	b, err := Chaos(cfg, QuickChaos())
	if err != nil {
		t.Fatalf("Chaos repeat: %v", err)
	}
	if a.KillAt != b.KillAt || a.EvictedAt != b.EvictedAt {
		t.Errorf("instants differ: %v/%v vs %v/%v", a.KillAt, a.EvictedAt, b.KillAt, b.EvictedAt)
	}
	if a.Failovers != b.Failovers {
		t.Errorf("failovers differ: %d vs %d", a.Failovers, b.Failovers)
	}
	if len(a.Phases) != len(b.Phases) {
		t.Fatalf("phase counts differ: %d vs %d", len(a.Phases), len(b.Phases))
	}
	for i := range a.Phases {
		pa, pb := a.Phases[i], b.Phases[i]
		if pa != pb {
			t.Errorf("phase %s differs:\n%+v\n%+v", pa.Name, pa, pb)
		}
	}
}

// TestChaosSLOReport asserts the telemetry plane's view of the outage:
// burn rates spike while the rolling window covers the dead NIC and
// decay back to zero once the survivors own the route.
func TestChaosSLOReport(t *testing.T) {
	ch := QuickChaos()
	rep, err := Chaos(Quick(), ch)
	if err != nil {
		t.Fatalf("Chaos: %v", err)
	}
	if rep.SLO == nil || len(rep.SLO.Samples) == 0 {
		t.Fatal("no SLO report attached")
	}
	if want := 4 * ch.HeartbeatInterval; rep.SLO.Window != want {
		t.Errorf("SLO window = %v, want %v", rep.SLO.Window, want)
	}

	// Steady-state burn just before the kill (past the warmup where the
	// very first requests race the placement watch), peak burn while
	// the window covers the outage, and the final sample after
	// recovery.
	window := 4 * ch.HeartbeatInterval
	var steadyBurn, outageBurn float64
	for _, s := range rep.SLO.Samples {
		lat := s.Status("p99-latency")
		if lat == nil {
			t.Fatal("p99-latency objective missing from sample")
		}
		if s.At > rep.KillAt/2 && s.At <= rep.KillAt && lat.BurnRate > steadyBurn {
			steadyBurn = lat.BurnRate
		}
		if s.At > rep.KillAt && s.At <= rep.EvictedAt+window && lat.BurnRate > outageBurn {
			outageBurn = lat.BurnRate
		}
	}
	if steadyBurn != 0 {
		t.Errorf("steady-state latency burn = %v, want 0", steadyBurn)
	}
	if outageBurn <= 1 {
		t.Errorf("outage latency burn = %v, want > 1 (budget burning fast)", outageBurn)
	}

	final := rep.SLO.Samples[len(rep.SLO.Samples)-1]
	for _, name := range []string{"availability", "p99-latency"} {
		st := final.Status(name)
		if st == nil {
			t.Fatalf("objective %s missing from final sample", name)
		}
		if st.BurnRate != 0 || !st.Met {
			t.Errorf("final %s burn = %v met=%v, want recovered (0, true)", name, st.BurnRate, st.Met)
		}
	}

	// The summary mirrors the timeline: the worst burn is the outage
	// spike and its peak falls inside the outage window.
	for _, sum := range rep.SLO.Summary {
		if sum.Name != "p99-latency" {
			continue
		}
		if sum.WorstBurnRate != outageBurn {
			t.Errorf("summary worst burn %v != timeline max %v", sum.WorstBurnRate, outageBurn)
		}
		if sum.PeakAt <= rep.KillAt || sum.PeakAt > rep.EvictedAt+window {
			t.Errorf("peak at %v, want inside outage window (%v, %v]",
				sum.PeakAt, rep.KillAt, rep.EvictedAt+window)
		}
		if sum.FinalBurnRate != 0 {
			t.Errorf("summary final burn = %v, want 0", sum.FinalBurnRate)
		}
	}

	// The rendered report carries the SLO table.
	out := RenderChaos(rep)
	for _, want := range []string{"SLO report", "p99-latency", "WORST BURN"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}

	// And it serializes for the bench harness's SLO_chaos.json artifact.
	raw, err := rep.SLO.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "worst_burn_rate") {
		t.Error("JSON report missing summary fields")
	}
}
