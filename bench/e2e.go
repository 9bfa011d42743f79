package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// peakRSSMB reads this process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status: %v", sc.Err())
}

// setUps is how many times a run builds its cluster; setup_s is their
// median, and the last one built serves the run.
const setUps = 15

// runDataPlane is the untraced run of a wall-clock workload: the bench
// cluster on the in-memory network, closed-loop callers, every reply
// checked. The run alternates two phases, the way the paper's own
// evaluation does (Fig. 6 in isolation, Fig. 7/8 under concurrency):
//
//   - isolated: one caller, one request in flight. latency_p50_us comes
//     from here: with nothing else in the way it moves by exactly the
//     span that shrank.
//   - loaded: loadedCallers callers, which saturates every processor.
//     throughput_rps, cpu_us_per_req and latency_p99_us come from here.
//
// Two callers on two processors, as the issue sized it, sits between
// the two: whether the two request chains share a processor or not
// flips with the host's mood, and throughput read 39 k to 83 k req/s
// over ten runs of one binary (p50 15 to 20 us, lower when throughput
// was lower). One caller and saturation are both regimes the Go
// scheduler stays in.
func runDataPlane(o options, m *metricSet, t *tally) error {
	loaded := loadedCallers()
	in, err := makeInputs(o.workload, o.seed, loaded)
	if err != nil {
		return err
	}
	builds, warm := setUps, 250*time.Millisecond
	total := time.Duration(o.seconds * float64(time.Second))
	// Two rounds of (isolated, loaded): 15% + 35% of the run each.
	isolatedLen, loadedLen := total*15/100, total*35/100
	if o.smoke {
		builds, warm = 2, 100*time.Millisecond
		isolatedLen, loadedLen = 300*time.Millisecond, 300*time.Millisecond
	}
	var c *cluster
	var setupS []float64
	for i := 0; i < builds; i++ {
		if c != nil {
			if err := c.Close(); err != nil {
				return err
			}
		}
		start := time.Now()
		// Each build seeds its Raft cluster differently: election timing
		// is part of what a set-up costs.
		if c, _, err = setUp(newMemNetwork(o.seed), o.seed+int64(i), nil, in); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer c.Close()

	calibBefore := calib()
	var isolated, underLoad []windowStat
	for round := 0; round < 2; round++ {
		res := drive(c, in, 1, warm, isolatedLen, nil)
		t.add(res.attempted, res.failed, res.firstFail)
		isolated = append(isolated, res.windows...)
		res = drive(c, in, loaded, warm, loadedLen, nil)
		t.add(res.attempted, res.failed, res.firstFail)
		underLoad = append(underLoad, res.windows...)
		if o.smoke {
			break
		}
	}
	calibAfter := calib()
	for _, ph := range []struct {
		name string
		ws   []windowStat
	}{{"isolated", isolated}, {"loaded", underLoad}} {
		fmt.Printf("# %s windows, p50_us/p99_us/rps/cpu_us_per_req each:", ph.name)
		for _, w := range ph.ws {
			fmt.Printf(" %.2f/%.1f/%.0f/%.2f", w.p50, w.p99, w.rps, w.cpuPerUs)
		}
		fmt.Println()
	}
	if len(isolated) == 0 || len(underLoad) == 0 {
		return fmt.Errorf("%s: no request completed in some phase (%d attempted, first failure: %s)", o.workload, t.attempted, t.firstFail)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	m.set("setup_s", median(setupS), "s")
	m.set("latency_p50_us", overWindows(isolated, 0.5, func(w windowStat) float64 { return w.p50 }), "us")
	m.set("latency_p99_us", overWindows(underLoad, 0.25, func(w windowStat) float64 { return w.p99 }), "us")
	m.set("throughput_rps", overWindows(underLoad, 0.75, func(w windowStat) float64 { return w.rps }), "1/s")
	m.set("cpu_us_per_req", overWindows(underLoad, 0.5, func(w windowStat) float64 { return w.cpuPerUs }), "us")
	m.set("peak_rss_mb", rss, "MB")
	m.set("fail_ratio", float64(t.failed)/float64(max(t.attempted, 1)), "ratio")
	m.set("latency_p99_isolated_us", overWindows(isolated, 0.25, func(w windowStat) float64 { return w.p99 }), "us")
	m.set("latency_p50_loaded_us", overWindows(underLoad, 0.5, func(w windowStat) float64 { return w.p50 }), "us")
	m.set("throughput_isolated_rps", overWindows(isolated, 0.75, func(w windowStat) float64 { return w.rps }), "1/s")
	m.set("bench.samples", float64(t.attempted), "count")
	m.set("bench.windows_isolated", float64(len(isolated)), "count")
	m.set("bench.windows_loaded", float64(len(underLoad)), "count")
	m.set("bench.callers_loaded", float64(loaded), "count")
	m.set("bench.calib_ns", (calibBefore+calibAfter)/2, "ns")
	retransmits := float64(c.client.Retransmits() + c.gw.Retransmits())
	m.set("transport.retransmits_per_kreq", perK(retransmits, t.attempted), "count")
	return nil
}

// benchmarkFile is the part of BENCHMARK.json -selfcheck needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheck runs every workload twice, interleaved (A B C D A B C D),
// and compares each end-to-end metric's two readings with the bound
// BENCHMARK.json gives it. It fails if any pair disagrees by more.
func selfCheck(o options) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run -selfcheck from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var sets [2]map[string]*result
	var calibs [2]float64
	for round := range sets {
		sets[round] = map[string]*result{}
		calibs[round] = calib()
		for _, w := range workloadNames {
			o.workload, o.trace = w, false
			r, err := spawnSelf(o, false)
			if err != nil {
				return err
			}
			sets[round][w] = r
		}
	}
	fmt.Printf("bench.calib_ns  first set %.0f  second set %.0f\n", calibs[0], calibs[1])
	fmt.Printf("%-16s %-16s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	bad := 0
	for _, w := range workloadNames {
		a, b := sets[0][w], sets[1][w]
		if !a.Correct || !b.Correct {
			fmt.Printf("%-16s outputs wrong: %d and %d of %d and %d checks failed\n", w, a.Failed, b.Failed, a.Attempted, b.Attempted)
			bad++
		}
		for _, e := range bf.EndToEnd {
			x, y := a.Metrics[e.Name].Value, b.Metrics[e.Name].Value
			diff := math.Abs(x-y) / math.Min(x, y)
			mark := ""
			if diff > e.Bound {
				mark = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-16s %-16s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", w, e.Name, x, y, diff*100, e.Bound*100, mark)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d pairs disagree by more than their bound", bad)
	}
	return nil
}

// writeGolden records the simulator workloads' outcomes at goldenSeed,
// full and smoke sizes, as bench/golden.json.
func writeGolden() error {
	all := map[string]golden{}
	for _, w := range []string{"sim_paper", "sim_rack"} {
		for _, smoke := range []bool{false, true} {
			run, err := spawnSim(w, goldenSeed, smoke)
			if err != nil {
				return err
			}
			all[goldenKey(w, smoke)] = goldenOf(&run.report)
		}
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("bench/golden.json", append(data, '\n'), 0o644)
}
