package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"lambdanic"
	"lambdanic/internal/monitor"
	"lambdanic/internal/workloads"
)

// The simulator workloads repeat in children of os.Executable(); under
// `go test` that is the test binary, so it has to answer -child itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		return
	}
	os.Exit(m.Run())
}

func near(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want)) }

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(v, c.p); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", v, c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(v, []float64{4, 1, 3, 2}) {
		t.Errorf("quantile reordered its input: %v", v)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
}

func within(got, want, rel float64) bool { return math.Abs(got-want) <= rel*math.Abs(want) }

func TestHistQuantile(t *testing.T) {
	// Bucket bounds are contiguous and hold their values.
	for _, ns := range []int64{0, 1, 255, 256, 257, 511, 512, 10_000, 123_456_789, 1 << 32, 1 << 40} {
		b := histBucket(ns)
		lo, width := histBounds(b)
		if v := float64(min(ns, 1<<33)); b < histBuckets-1 && (v < lo || v >= lo+width) {
			t.Errorf("%d ns is in bucket %d = [%v, %v)", ns, b, lo, lo+width)
		}
		if width/math.Max(lo, 1) > 0.008 && lo >= 256 {
			t.Errorf("bucket %d is %v wide at %v", b, width, lo)
		}
	}
	var h hist
	var exact []float64
	for i := 0; i < 10_000; i++ {
		ns := int64(5_000 + (i*7919)%20_000)
		h.add(ns)
		exact = append(exact, float64(ns))
	}
	for _, p := range []float64{0.01, 0.5, 0.9, 0.99} {
		if got, want := h.quantile(p), quantile(exact, p); !within(got, want, 0.005) {
			t.Errorf("hist quantile(%v) = %v, exact %v", p, got, want)
		}
	}
	if got := (&hist{}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v", got)
	}
}

// Two callers, four windows, the second window hit by a stall: the
// window estimators report the quiet windows' level, where a whole-run
// tail would report the stall.
func TestWindowMedian(t *testing.T) {
	a, b := make([]windowAcc, 4), make([]windowAcc, 4)
	add := func(acc *windowAcc, n int, latNs int64) {
		for i := 0; i < n; i++ {
			acc.lat.add(latNs)
			acc.n++
		}
	}
	add(&a[0], 50, 10_000) // 10 µs
	add(&b[0], 50, 10_000)
	b[0].n++ // a failed request: counted, no latency
	add(&a[1], 60, 10_000)
	add(&b[1], 40, 5_000_000) // the stall: 40 of the window's requests take 5 ms
	add(&a[2], 100, 12_000)
	add(&b[3], 100, 10_000)
	cpu := []int64{0, 2e6, 12e6, 14e6, 16e6}
	ws := windowStats([][]windowAcc{a, b}, cpu, 1)
	if len(ws) != 4 {
		t.Fatalf("%d windows, want 4", len(ws))
	}
	if ws[0].n != 101 || !within(ws[0].p50, 10, 0.01) || !near(ws[0].rps, 101) || !near(ws[0].cpuPerUs, 2000.0/101) {
		t.Errorf("window 0 = %+v", ws[0])
	}
	if !within(ws[1].p99, 5000, 0.01) {
		t.Errorf("window 1 p99 = %v, want the stall's 5000", ws[1].p99)
	}
	// p99 per window: 10, 5000 (the stall), 12, 10.
	if got := overWindows(ws, 0.5, func(w windowStat) float64 { return w.p99 }); !within(got, 11, 0.01) {
		t.Errorf("median-window p99 = %v, want 11 (between the quiet windows' 10 and 12)", got)
	}
	if got := overWindows(ws, 0.25, func(w windowStat) float64 { return w.p99 }); !within(got, 10, 0.01) {
		t.Errorf("lower-quartile-window p99 = %v, want 10", got)
	}
	if got := overWindows(ws, 0.5, func(w windowStat) float64 { return w.p50 }); !within(got, 10, 0.01) {
		t.Errorf("median-window p50 = %v, want 10", got)
	}
	// rps per window: 101, 100, 100, 100.
	if got := overWindows(ws, 0.75, func(w windowStat) float64 { return w.rps }); !near(got, 100.25) {
		t.Errorf("upper-quartile-window rps = %v, want 100.25", got)
	}
	// A window in which nothing succeeded is dropped.
	if got := windowStats([][]windowAcc{make([]windowAcc, 2)}, []int64{0, 1, 2}, 1); got != nil {
		t.Errorf("empty windows gave %v", got)
	}
}

func TestScrape(t *testing.T) {
	reg := monitor.NewRegistry()
	reg.MustCounter("lnic_x_total", "x", map[string]string{"workload": "a"}).Add(3)
	reg.MustCounter("lnic_x_total", "x", map[string]string{"workload": "b"}).Add(4)
	reg.MustCounter("lnic_x_total_more", "not x", nil).Add(100)
	reg.MustCounter("lnic_y_total", "y", nil).Add(5)
	if got := scrape(reg, "lnic_x_total"); got != 7 {
		t.Errorf("scrape(lnic_x_total) = %v, want 7", got)
	}
	if got := scrape(reg, "lnic_y_total"); got != 5 {
		t.Errorf("scrape(lnic_y_total) = %v, want 5", got)
	}
	if got := scrape(reg, "lnic_absent"); got != 0 {
		t.Errorf("scrape(lnic_absent) = %v, want 0", got)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "sim_rack", "--trace", "1", "--seed", "3", "-trace", "--trace", "0"})
	want := []string{"--workload", "sim_rack", "-trace=1", "--seed", "3", "-trace", "-trace=0"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
}

func TestInputsRepeatWithSeed(t *testing.T) {
	a, err := makeInputs("interactive_mix", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeInputs("interactive_mix", 5, 2)
	c, _ := makeInputs("interactive_mix", 6, 2)
	if !reflect.DeepEqual(a.streams, b.streams) {
		t.Error("same seed, different streams")
	}
	if reflect.DeepEqual(a.streams, c.streams) {
		t.Error("different seeds, same streams")
	}
	var kinds [numKinds]int
	for _, i := range a.streams[0] {
		kinds[a.table[i].kind]++
	}
	for k, want := range map[uint8]float64{kindWeb: 0.50, kindKVGet: 0.35, kindKVSet: 0.15} {
		if share := float64(kinds[k]) / streamLen; math.Abs(share-want) > 0.01 {
			t.Errorf("%s share %.3f, want %.2f", kindNames[k], share, want)
		}
	}
	if _, err := makeInputs("sim_rack", 1, 1); err == nil {
		t.Error("makeInputs accepted a simulator workload")
	}
}

// tracedRequests sends n requests of the stream through a tapped
// cluster, one at a time.
func tracedRequests(t *testing.T, workload string, n int) *tracer {
	t.Helper()
	in, err := makeInputs(workload, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	c, _, err := setUp(newMemNetwork(3), 3, tr, in)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		r := &in.table[in.streams[0][i]]
		tr.begin(i, r.kind)
		resp, err := c.invoke(context.Background(), r.id, r.payload)
		tr.end(r.check(resp, err), true)
	}
	return tr
}

// The spans of a traced request tile its latency with zero gap, and the
// handler lies inside core.worker.
func TestSpansTileLatency(t *testing.T) {
	for workload, frags := range map[string][2]uint16{"interactive_mix": {1, 1}, "image_bulk": {47, 12}} {
		tr := tracedRequests(t, workload, 60)
		regular := 0
		for _, r := range tr.recs {
			spans := r.spans()
			if spans == nil {
				continue
			}
			regular++
			if r.reqFrags != frags[0] || r.respFrags != frags[1] {
				t.Fatalf("%s: %d request and %d reply fragments, want %v", workload, r.reqFrags, r.respFrags, frags)
			}
			root, at := spans[0], spans[0].Start
			for _, s := range spans[1:10] {
				if s.Parent != 0 || s.Start != at || s.End < s.Start {
					t.Fatalf("%s request %d: span %s [%d,%d] does not start where the previous ended (%d)", workload, r.idx, s.Name, s.Start, s.End, at)
				}
				at = s.End
			}
			if at != root.End || root.End-root.Start != r.tEnd-r.t0 {
				t.Fatalf("%s request %d: tiles end at %d, request at %d", workload, r.idx, at, root.End)
			}
			worker, handler := spans[5], spans[10]
			if worker.Name != "core.worker" || handler.Parent != worker.ID || handler.Start < worker.Start || handler.End > worker.End {
				t.Fatalf("%s request %d: handler %+v outside %+v", workload, r.idx, handler, worker)
			}
		}
		if regular < 50 {
			t.Errorf("%s: %d regular requests of %d (%d stray packets)", workload, regular, len(tr.recs), tr.stray)
		}
	}
}

// The bench cluster and lambdanic.NewDeployment answer the same 100
// requests with identical replies.
func TestClusterMatchesDeployment(t *testing.T) {
	in, err := makeInputs("interactive_mix", 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := setUp(newMemNetwork(11), 11, nil, in)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d, err := lambdanic.NewDeployment(lambdanic.DeploymentConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, w := range []*workloads.Workload{
		workloads.WebServer(), workloads.KVGetClient(), workloads.KVSetClient(),
		workloads.ImageTransformer(imageSide, imageSide),
	} {
		if err := d.Deploy(w); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for i := range in.preload {
		if _, err := d.Invoke(ctx, in.preload[i].id, in.preload[i].payload); err != nil {
			t.Fatal(err)
		}
	}
	bulk, _ := makeInputs("image_bulk", 11, 1)
	reqs := make([]*request, 0, 100)
	for i := 0; i < 96; i++ {
		reqs = append(reqs, &in.table[in.streams[0][i]])
	}
	for i := 0; i < 4; i++ {
		reqs = append(reqs, &bulk.table[bulk.streams[0][i]])
	}
	for i, r := range reqs {
		got, gotErr := c.invoke(ctx, r.id, r.payload)
		want, wantErr := d.Invoke(ctx, r.id, r.payload)
		if gotErr != nil || wantErr != nil || !bytes.Equal(got, want) {
			t.Fatalf("request %d (%s): bench cluster %d bytes err=%v, deployment %d bytes err=%v", i, kindNames[r.kind], len(got), gotErr, len(want), wantErr)
		}
		if !r.check(got, nil) {
			t.Fatalf("request %d (%s): reply is not the reference", i, kindNames[r.kind])
		}
	}
}

func TestCheckSim(t *testing.T) {
	rep := &simReport{
		Calls:     []simCall{{Name: "a", Fingerprint: "1@2"}, {Name: "b", Fingerprint: "3@4", Errors: 2}},
		Verdicts:  map[string]bool{"Isolated": true, "Affine": false},
		Headlines: map[string]string{"x": "1.5"},
	}
	want := golden{
		Fingerprints: map[string]string{"a": "1@2", "b": "9@9"},
		Verdicts:     map[string]bool{"Isolated": true, "Affine": true},
		Headlines:    map[string]string{"x": "1.5"},
	}
	checks, mismatches := checkSim(rep, want)
	// 2 fingerprints + 1 headline + 2 golden verdicts + 2 error counts.
	if checks != 7 {
		t.Errorf("%d checks, want 7", checks)
	}
	// b's fingerprint, Affine against the golden, b's failed requests.
	if len(mismatches) != 3 {
		t.Errorf("mismatches = %q, want 3", mismatches)
	}
	// Away from the golden seed the reference is the first repetition and
	// verdicts are not checked: only the failed requests remain.
	self := goldenOf(rep)
	self.Verdicts = nil
	if _, bad := checkSim(rep, self); len(bad) != 1 {
		t.Errorf("against itself: %q, want only the failed requests", bad)
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// -smoke still emits every metric BENCHMARK.json declares, under the
// declared unit, with every output correct: the untraced run of every
// workload and one traced run (in smoke mode every traced run makes the
// same passes, whatever the workload).
func TestSmokeEmitsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkJSON
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(o options, names []string, declared []struct{ Name, Unit string }) {
		t.Helper()
		m, tl, err := measure(o)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", o.workload, o.trace, err)
		}
		if tl.failed != 0 || tl.attempted == 0 {
			t.Errorf("%s trace=%v: %d of %d outputs wrong: %s", o.workload, o.trace, tl.failed, tl.attempted, tl.firstFail)
		}
		picked, err := m.pick(names)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", o.workload, o.trace, err)
		}
		if len(declared) != len(names) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the program %d", len(declared), len(names))
		}
		for i, d := range declared {
			if d.Name != names[i] {
				t.Errorf("metric %d: BENCHMARK.json %q, program %q", i, d.Name, names[i])
			} else if picked[d.Name].Unit != d.Unit {
				t.Errorf("%s: unit %q, BENCHMARK.json says %q", d.Name, picked[d.Name].Unit, d.Unit)
			}
		}
		if !o.trace {
			for n, v := range picked {
				if !(v.Value > 0) {
					t.Errorf("%s %s = %v: an end-to-end metric is never 0", o.workload, n, v.Value)
				}
			}
		}
	}
	dir := t.TempDir()
	for _, w := range workloadNames {
		check(options{workload: w, seed: goldenSeed, seconds: 1, smoke: true, outDir: dir}, endToEndNames, bf.EndToEnd)
	}
	check(options{workload: "image_bulk", seed: 7, seconds: 1, smoke: true, trace: true, outDir: dir}, perLayerNames, bf.PerLayer)
	if _, err := os.Stat(dir + "/spans/image_bulk-seed7.json"); err != nil {
		t.Errorf("no span file: %v", err)
	}
}
