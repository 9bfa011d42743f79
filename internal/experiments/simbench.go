package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"lambdanic/internal/benchio"
	"lambdanic/internal/sim"
)

// The simbench experiment measures the simulation kernel itself — the
// substrate every other experiment runs on — in wall-clock time, and
// writes BENCH_sim.json so the repo tracks scheduler throughput across
// PRs.
//
// Two row families:
//
//   - sched/<kernel>[-pooled]: steady-state self-rescheduling event
//     load with the NIC-simulation delay mixture (mostly microsecond
//     service times, some tens-of-microseconds wire trips, a far tail
//     of 10 ms control-plane timers). This is the single-thread
//     events/sec headline: ladder + pooling versus the binary heap.
//   - timers/<kernel>: timeout churn — a ring of pending timers, each
//     driver tick rescheduling the oldest (sim.Reschedule's fired-event
//     fast path), the dominant pattern of RPC timeout management.
//
// In every row ReqPerSec is simulation events fired per wall-clock
// second and Requests is the number of events fired.

// SimBenchConfig sizes the simulation-kernel benchmark.
type SimBenchConfig struct {
	// Events is the fired-event target per single-thread scenario.
	Events int
	// Outstanding is the number of concurrent event chains (sched rows)
	// and pending timers (timer rows).
	Outstanding int
	// Reps runs every scenario this many times and keeps the fastest
	// measurement — best-of-N, the standard defense against scheduler
	// and GC noise when a regression gate reads the numbers.
	Reps int
}

// DefaultSimBench returns the full-size kernel benchmark.
func DefaultSimBench() SimBenchConfig {
	return SimBenchConfig{Events: 2_000_000, Outstanding: 32_768, Reps: 3}
}

// QuickSimBench returns a reduced configuration for smoke runs and CI.
func QuickSimBench() SimBenchConfig {
	return SimBenchConfig{Events: 500_000, Outstanding: 32_768, Reps: 3}
}

// simBenchRow measures one scenario reps times and keeps the fastest
// repetition. The memory-stats delta divided by fired events gives
// allocs/event; the pooling rows should drive it to ~0.
func simBenchRow(name string, reps int, run func() uint64) benchio.Result {
	if reps < 1 {
		reps = 1
	}
	var best benchio.Result
	for rep := 0; rep < reps; rep++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		executed := run()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)

		res := benchio.Result{
			Name:        name,
			Transport:   "sim",
			Mode:        "closed",
			Concurrency: 1,
			Requests:    int(executed),
		}
		if elapsed > 0 && executed > 0 {
			res.ReqPerSec = float64(executed) / elapsed.Seconds()
			res.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(executed)
			res.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(executed)
		}
		if res.ReqPerSec > best.ReqPerSec {
			best = res
		}
	}
	return best
}

// schedDelay is the steady-state delay mixture: 70% NPU service times
// (1–10 µs), 20% wire trips (40–60 µs), 10% control-plane timers
// (10 ms) — the event population a λ-NIC fleet simulation schedules.
func schedDelay(fired int) time.Duration {
	switch fired % 10 {
	case 0:
		return 10 * time.Millisecond
	case 1, 2:
		return time.Duration(40+fired%20) * time.Microsecond
	default:
		return time.Duration(1000+fired%9000) * time.Nanosecond
	}
}

func runSched(seed int64, kind sim.KernelKind, pooled bool, events, outstanding int) uint64 {
	s := sim.NewWithKernel(seed, kind)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired >= events {
			return
		}
		if pooled {
			s.After(schedDelay(fired), tick)
		} else {
			s.Schedule(schedDelay(fired), tick)
		}
	}
	for i := 0; i < outstanding; i++ {
		s.At(sim.Time(i)*time.Microsecond, tick)
	}
	for fired < events && s.Step() {
	}
	return s.Executed
}

func runTimerChurn(seed int64, kind sim.KernelKind, events, outstanding int) uint64 {
	const timeout = 500 * time.Microsecond
	s := sim.NewWithKernel(seed, kind)
	noop := func() {}
	ring := make([]*sim.Event, outstanding)
	for i := range ring {
		ring[i] = s.Schedule(timeout+sim.Time(i)*time.Nanosecond, noop)
	}
	ops := 0
	var drive func()
	drive = func() {
		// The common fate of an RPC timeout: it never fires; the next
		// request re-arms it.
		ring[ops%outstanding] = s.Reschedule(ring[ops%outstanding], timeout)
		ops++
		if ops < events {
			s.After(time.Microsecond, drive)
		}
	}
	s.After(time.Microsecond, drive)
	if err := s.RunUntilIdle(); err != nil {
		return s.Executed
	}
	return s.Executed
}

// SimBench measures the simulation kernel and returns the report
// written to BENCH_sim.json.
func SimBench(cfg Config, sb SimBenchConfig) benchio.Report {
	var results []benchio.Result
	for _, row := range []struct {
		name   string
		kind   sim.KernelKind
		pooled bool
	}{
		{"sched/heap", sim.KernelHeap, false},
		{"sched/heap-pooled", sim.KernelHeap, true},
		{"sched/ladder", sim.KernelLadder, false},
		{"sched/ladder-pooled", sim.KernelLadder, true},
	} {
		row := row
		results = append(results, simBenchRow(row.name, sb.Reps, func() uint64 {
			return runSched(cfg.Seed, row.kind, row.pooled, sb.Events, sb.Outstanding)
		}))
	}
	for _, row := range []struct {
		name string
		kind sim.KernelKind
	}{
		{"timers/heap", sim.KernelHeap},
		{"timers/ladder", sim.KernelLadder},
	} {
		row := row
		results = append(results, simBenchRow(row.name, sb.Reps, func() uint64 {
			return runTimerChurn(cfg.Seed, row.kind, sb.Events, sb.Outstanding)
		}))
	}
	return benchio.NewReport(results)
}

// RenderSimBench prints the kernel benchmark report, including the
// headline speedup of the pooled ladder configuration over the
// non-pooled binary heap.
func RenderSimBench(rep benchio.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Simulation kernel benchmark (events/sec, GOMAXPROCS=%d)\n", rep.GOMAXPROCS)
	fmt.Fprintf(&b, "  %-24s %12s %14s %10s %10s\n",
		"scenario", "events", "events/sec", "allocs/ev", "B/ev")
	byName := make(map[string]benchio.Result, len(rep.Results))
	for _, r := range rep.Results {
		byName[r.Name] = r
		fmt.Fprintf(&b, "  %-24s %12d %14.0f %10.3f %10.1f\n",
			r.Name, r.Requests, r.ReqPerSec, r.AllocsPerOp, r.BytesPerOp)
	}
	if heap, ok := byName["sched/heap"]; ok && heap.ReqPerSec > 0 {
		if lp, ok := byName["sched/ladder-pooled"]; ok {
			fmt.Fprintf(&b, "  single-thread speedup (ladder-pooled vs heap): %.2fx\n",
				lp.ReqPerSec/heap.ReqPerSec)
		}
	}
	return b.String()
}
