// Command bench is this repository's benchmark: four named workloads
// that measure the Go code on both of its clocks. Two drive the paper's
// lambdas through the real data plane (client -> gateway -> core.Worker
// -> handler and back, over the shipped transport) and are timed on the
// wall clock; two regenerate the paper's evaluation and the rack
// experiments on the simulator and report host time, with every
// virtual-time result held to a golden file. See README.md beside this
// file for the workloads, the metrics, and how to read the output.
//
//	go run ./bench -workload interactive_mix -seed 1            end-to-end metrics
//	go run ./bench -workload interactive_mix -seed 1 -trace     per-layer metrics
//	go run ./bench -workload all                                both, for all four
//	go run ./bench -selfcheck                                   two interleaved sets, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

var workloadNames = []string{"interactive_mix", "image_bulk", "sim_paper", "sim_rack"}

func isDataPlane(w string) bool { return w == "interactive_mix" || w == "image_bulk" }

// loadedCallers is the loaded phase's caller count: four per processor,
// which keeps every processor busy whatever the Go scheduler does. It
// is printed with every result.
func loadedCallers() int { return 4 * runtime.NumCPU() }

// endToEndNames and perLayerNames are the metrics BENCHMARK.json
// declares, in its order: the untraced run's last line carries exactly
// the first list, the traced run's exactly the second.
var endToEndNames = []string{
	"setup_s", "latency_p50_us", "latency_p99_us", "throughput_rps", "cpu_us_per_req", "peak_rss_mb",
}

var perLayerNames = []string{
	"transport.client_send_us", "transport.hop_us", "transport.client_recv_us",
	"transport.echo_p50_us", "transport.fragment_reassemble_us",
	"transport.retransmits_per_kreq", "transport.duplicates_per_kreq", "transport.drops_per_kreq",
	"transport.udp_small_p50_us", "transport.udp_bulk_p50_us",
	"transport.udp_allocs_per_req", "transport.udp_bulk_retransmits_per_kreq",
	"gateway.forward_us", "gateway.relay_us", "gateway.failovers", "gateway.unrouted", "gateway.throttled",
	"core.worker_self_us", "core.bypass_share", "core.manager_deploy_ms",
	"workloads.handle_web_us", "workloads.handle_kvget_us", "workloads.handle_kvset_us", "workloads.handle_image_us",
	"workloads.web_p50_us", "workloads.kvget_p50_us", "workloads.kvset_p50_us",
	"kvstore.roundtrip_us", "kvstore.table_get_ns", "kvstore.store_set_ns",
	"runtime.allocs_per_req", "runtime.alloc_bytes_per_req", "runtime.gc_per_s",
	"mcc.compile_ms", "mcc.exec_web_ns", "mcc.exec_kvget_ns", "mcc.exec_image_us",
	"backend.deploy_ms", "rdma.register_ms", "experiments.rack_build_est_share",
	"sim.sched_events_per_s", "sim.rack_events_per_s", "sim.events",
	"nicsim.req_per_host_s", "workloads.image_request_ms", "metrics.sample_quantile_ms",
	"experiments.fig6_s", "experiments.fig7_s", "experiments.fig8_s",
	"experiments.table3_s", "experiments.table4_s", "experiments.fig9_s",
	"experiments.tenants_s", "experiments.skew_s", "experiments.boundary_s", "experiments.chaos_s",
	"bench.calib_ns", "bench.trace_overhead_pct", "bench.samples",
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were measured.
type metricSet struct {
	names  []string
	byName map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{byName: map[string]metric{}} }

func (m *metricSet) set(name string, value float64, unit string) {
	if _, ok := m.byName[name]; !ok {
		m.names = append(m.names, name)
	}
	m.byName[name] = metric{value, unit}
}

// pick returns exactly the named metrics, or an error naming the first
// one that was never measured.
func (m *metricSet) pick(names []string) (map[string]metric, error) {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		v, ok := m.byName[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = v
	}
	return out, nil
}

// tally counts operations whose output was checked, and those that
// failed the check.
type tally struct {
	attempted, failed int
	firstFail         string
}

func (t *tally) add(attempted, failed int, why string) {
	t.attempted += attempted
	t.failed += failed
	if failed > 0 && t.firstFail == "" {
		t.firstFail = why
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

// normalizeArgs lets -trace be written both as a Go boolean flag
// (-trace, -trace=1) and as the driver writes it (--trace 0, --trace 1).
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	var o options
	var child string
	var selfcheck, updateGolden bool
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "interactive_mix, image_bulk, sim_paper, sim_rack, or all")
	fs.Int64Var(&o.seed, "seed", goldenSeed, "inputs are generated from this seed alone")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long the run measures")
	fs.BoolVar(&o.trace, "trace", false, "traced run: per-layer metrics and a span file")
	fs.BoolVar(&o.smoke, "smoke", false, "about a second per workload, quick experiment sizes, every metric name")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for span files")
	fs.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice, interleaved, and compare the pairs with the bounds")
	fs.StringVar(&child, "child", "", "internal: run one repetition of a simulator workload and print its report")
	fs.BoolVar(&updateGolden, "update-golden", false, "rewrite bench/golden.json from this checkout (run from the repository root)")
	_ = fs.Parse(normalizeArgs(os.Args[1:])) // ExitOnError

	var err error
	switch {
	case child != "":
		err = childMain(child, o.seed, o.smoke)
	case updateGolden:
		err = writeGolden()
	case selfcheck:
		err = selfCheck(o)
	case o.workload == "all":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func childMain(workload string, seed int64, smoke bool) error {
	rep, err := runSimChild(workload, seed, smoke)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// measure runs one workload in this process (simulator repetitions in
// children of it) and returns everything it measured.
func measure(o options) (*metricSet, *tally, error) {
	known := false
	for _, w := range workloadNames {
		known = known || w == o.workload
	}
	if !known {
		return nil, nil, fmt.Errorf("no workload %q (have %s, all)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.seconds < 1 {
		return nil, nil, fmt.Errorf("-seconds %v: need at least 1", o.seconds)
	}
	m, t := newMetricSet(), &tally{}
	var err error
	switch {
	case o.trace:
		err = runLayers(o, m, t)
	case isDataPlane(o.workload):
		err = runDataPlane(o, m, t)
	default:
		budget := time.Duration(o.seconds * float64(time.Second))
		if o.smoke {
			budget = 0
		}
		var out *simOutcome
		if out, err = measureSim(o.workload, o.seed, o.smoke, 2, budget); err == nil {
			err = out.timeSpawns()
		}
		if err == nil {
			out.endToEnd(m)
			t.add(out.checks, len(out.mismatches), strings.Join(out.mismatches, "; "))
		}
	}
	return m, t, err
}

// runOne measures one workload and prints every metric by name with its
// unit, then the result line.
func runOne(o options) error {
	mode := "end-to-end, untraced"
	if o.trace {
		mode = "per-layer, traced"
	}
	fmt.Printf("# %s  seed %d  %s  closed loop: 1 caller isolated, %d loaded  %d processors\n", o.workload, o.seed, mode, loadedCallers(), runtime.NumCPU())
	m, t, err := measure(o)
	if err != nil {
		return err
	}
	names := endToEndNames
	if o.trace {
		names = perLayerNames
	}
	picked, err := m.pick(names)
	if err != nil {
		return err
	}
	for _, n := range m.names {
		v := m.byName[n]
		fmt.Printf("%-42s %16.4f %s\n", n, v.Value, v.Unit)
	}
	if t.failed > 0 {
		fmt.Printf("# %d of %d checks failed; first: %s\n", t.failed, t.attempted, t.firstFail)
	}
	line, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: picked})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spawnSelf runs one workload in a fresh process of this binary and
// returns its result line; the child's table goes to this process's
// standard output when show is set.
func spawnSelf(o options, show bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.outDir,
		"-trace=" + strconv.FormatBool(o.trace), "-smoke=" + strconv.FormatBool(o.smoke),
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	text := strings.TrimRight(string(out), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	if show {
		fmt.Println(strings.TrimSuffix(text, last))
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("%s: bad result line: %w", o.workload, err)
	}
	return &r, nil
}

// runAll runs every workload, untraced then traced, each in a fresh
// process, and ends with one line holding all their result lines.
func runAll(o options) error {
	all := map[string]*result{}
	correct := true
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			o.workload, o.trace = w, trace
			r, err := spawnSelf(o, true)
			if err != nil {
				return err
			}
			key := w
			if trace {
				key += ".layers"
			}
			all[key] = r
			correct = correct && r.Correct
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("some outputs were wrong")
	}
	return nil
}
