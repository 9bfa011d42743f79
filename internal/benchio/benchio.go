// Package benchio is the benchmark-artifact schema behind the committed
// BENCH_*.json files: the row and report types cmd/lnic-bench's
// experiments fill in, their JSON round trip, and the regression guards
// CI runs against the committed baselines. zipf.go adds the seeded Zipf
// generator the skew experiment draws flows from.
package benchio

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// Result is one benchmark configuration's measurement.
type Result struct {
	// Name identifies the scenario (e.g. "roundtrip/64B").
	Name string `json:"name"`
	// Transport names the packet network ("memnet", "udp").
	Transport string `json:"transport"`
	// Mode is "closed" (fixed concurrency) or "open" (fixed rate).
	Mode string `json:"mode"`
	// Concurrency is the closed-loop caller count (0 for open loop).
	Concurrency int `json:"concurrency,omitempty"`
	// OfferedRPS is the open-loop arrival rate (0 for closed loop).
	OfferedRPS float64 `json:"offered_rps,omitempty"`

	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	// Shed counts open-loop arrivals dropped because the in-flight cap
	// was reached (the system could not absorb the offered rate).
	Shed int `json:"shed,omitempty"`

	ReqPerSec float64 `json:"req_per_sec"`
	P50Ns     int64   `json:"p50_ns"`
	P90Ns     int64   `json:"p90_ns"`
	P99Ns     int64   `json:"p99_ns"`
	// P999Ns is the 99.9th percentile; older reports omit it.
	P999Ns int64 `json:"p999_ns,omitempty"`

	// AllocsPerOp and BytesPerOp are process-wide deltas divided by
	// completed requests: they include the full data plane (readers,
	// workers, pools), which is exactly the steady state being gated.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Report is the serialized benchmark output (BENCH_*.json).
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Results    []Result `json:"results"`
}

// NewReport wraps results with the run's environment.
func NewReport(results []Result) Report {
	return Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Results:    results,
	}
}

// WriteJSON writes the report to path, pretty-printed so diffs across
// PRs stay readable.
func WriteJSON(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("benchio: write %s: %w", path, err)
	}
	return nil
}

// ReadJSON loads a report previously written by WriteJSON.
func ReadJSON(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, fmt.Errorf("benchio: read %s: %w", path, err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("benchio: parse %s: %w", path, err)
	}
	return r, nil
}

// Guard compares a fresh report against a committed baseline and
// returns an error naming every guarded row whose throughput regressed
// by more than tolerance (a fraction: 0.20 allows a 20% drop).
//
// Raw req/sec is not comparable across machines, so each row is first
// normalized to the same run's reference row — ratio = ReqPerSec /
// reference.ReqPerSec — and the guard requires each current ratio to be
// at least (1 - tolerance) times the baseline's. Machine speed cancels;
// what remains is the relative cost of the scenario against the
// reference implementation, which is exactly what a kernel regression
// changes.
//
// Only rows whose Name begins with one of the prefixes are guarded:
// multi-core scaling rows, for example, are meaningless to compare
// between machines with different core counts. Rows present on only one
// side are skipped — adding a scenario must not fail old baselines.
func Guard(baseline, current Report, reference string, tolerance float64, prefixes ...string) error {
	rps := func(r Report) map[string]float64 {
		m := make(map[string]float64, len(r.Results))
		for _, res := range r.Results {
			m[res.Name] = res.ReqPerSec
		}
		return m
	}
	base, cur := rps(baseline), rps(current)
	refB, refC := base[reference], cur[reference]
	if refB <= 0 || refC <= 0 {
		return fmt.Errorf("benchio: guard reference %q missing from %s",
			reference, map[bool]string{true: "baseline", false: "current report"}[refB <= 0])
	}
	guarded := func(name string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	var violations []string
	for _, res := range current.Results {
		name := res.Name
		if name == reference || !guarded(name) {
			continue
		}
		b, ok := base[name]
		if !ok || b <= 0 || cur[name] <= 0 {
			continue
		}
		ratioB, ratioC := b/refB, cur[name]/refC
		if ratioC < ratioB*(1-tolerance) {
			violations = append(violations,
				fmt.Sprintf("%s: %.3fx reference, baseline %.3fx (-%0.1f%%)",
					name, ratioC, ratioB, 100*(1-ratioC/ratioB)))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("benchio: throughput regressed beyond %.0f%% tolerance:\n  %s",
			tolerance*100, strings.Join(violations, "\n  "))
	}
	return nil
}

// GuardLatency compares p99 latency of guarded rows against a
// committed baseline and returns an error naming every row whose p99
// grew by more than tolerance (0.20 allows a 20% increase).
//
// Unlike Guard, there is no reference-row normalization: this guard is
// meant for virtual-clock experiments (nicsim under the discrete-event
// simulator), where latencies are deterministic simulated durations and
// directly comparable across machines. Do not use it on wall-clock
// benchmarks. Rows present on only one side are skipped, and rows with
// a zero p99 on either side are skipped (degenerate sample).
func GuardLatency(baseline, current Report, tolerance float64, prefixes ...string) error {
	p99 := func(r Report) map[string]int64 {
		m := make(map[string]int64, len(r.Results))
		for _, res := range r.Results {
			m[res.Name] = res.P99Ns
		}
		return m
	}
	base := p99(baseline)
	guarded := func(name string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	var violations []string
	for _, res := range current.Results {
		if !guarded(res.Name) {
			continue
		}
		b, ok := base[res.Name]
		if !ok || b <= 0 || res.P99Ns <= 0 {
			continue
		}
		if float64(res.P99Ns) > float64(b)*(1+tolerance) {
			violations = append(violations,
				fmt.Sprintf("%s: p99 %s, baseline %s (+%0.1f%%)",
					res.Name, time.Duration(res.P99Ns), time.Duration(b),
					100*(float64(res.P99Ns)/float64(b)-1)))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("benchio: p99 latency regressed beyond %.0f%% tolerance:\n  %s",
			tolerance*100, strings.Join(violations, "\n  "))
	}
	return nil
}
