package monitor

import (
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("requests_total", "total requests", nil)
	c.Add(1)
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d", c.Value())
	}
	out := r.Render()
	for _, want := range []string{"# HELP requests_total total requests", "# TYPE requests_total counter", "requests_total 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.MustGauge("inflight", "", map[string]string{"backend": "lambda-nic"})
	g.Set(3)
	g.Set(4.5)
	if got := g.Value(); got != 4.5 {
		t.Errorf("Value = %v", got)
	}
	if !strings.Contains(r.Render(), `inflight{backend="lambda-nic"} 4.5`) {
		t.Errorf("render:\n%s", r.Render())
	}
}

// snapshotOf builds the cumulative snapshot an owner would hand to
// HistogramFunc for the given samples.
func snapshotOf(bounds []float64, samples ...float64) HistogramSnapshot {
	snap := HistogramSnapshot{Bounds: bounds, Cumulative: make([]uint64, len(bounds)+1)}
	for _, v := range samples {
		for i := sort.SearchFloat64s(bounds, v); i < len(snap.Cumulative); i++ {
			snap.Cumulative[i]++
		}
		snap.Sum += v
		snap.Count++
	}
	return snap
}

func TestHistogram(t *testing.T) {
	// The registry reads the owner's histogram at scrape time, not at
	// registration: samples recorded between two renders show up.
	r := NewRegistry()
	samples := []float64{0.0005, 0.005, 0.005}
	if err := r.HistogramFunc("h_seconds", "latency", nil, func() HistogramSnapshot {
		return snapshotOf([]float64{0.001, 0.01, 0.1}, samples...)
	}); err != nil {
		t.Fatal(err)
	}
	if out := r.Render(); !strings.Contains(out, "h_seconds_count 3") || !strings.Contains(out, "# TYPE h_seconds histogram") {
		t.Errorf("first render:\n%s", out)
	}
	samples = append(samples, 0.05, 5)
	out := r.Render()
	// cumulative: <=0.001: 1; <=0.01: 3; <=0.1: 4; +Inf: 5
	for _, want := range []string{
		`h_seconds_bucket{le="0.001"} 1`,
		`h_seconds_bucket{le="0.01"} 3`,
		`h_seconds_bucket{le="0.1"} 4`,
		`h_seconds_bucket{le="+Inf"} 5`,
		"h_seconds_sum 5.0605",
		"h_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramRender(t *testing.T) {
	r := NewRegistry()
	if err := r.HistogramFunc("latency_seconds", "request latency",
		map[string]string{"workload": "web"}, func() HistogramSnapshot {
			return snapshotOf([]float64{0.001, 0.1}, 0.0004, 0.05)
		}); err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, want := range []string{
		`latency_seconds_bucket{workload="web",le="0.001"} 1`,
		`latency_seconds_bucket{workload="web",le="0.1"} 2`,
		`latency_seconds_bucket{workload="web",le="+Inf"} 2`,
		`latency_seconds_count{workload="web"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramCumulativeProperty(t *testing.T) {
	// Property: whatever the owner's samples, the rendered buckets are
	// nondecreasing in le order and the +Inf bucket equals _count.
	f := func(raw []uint16) bool {
		r := NewRegistry()
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v) / 1000
		}
		if err := r.HistogramFunc("h", "", nil, func() HistogramSnapshot {
			return snapshotOf(FineLatencyBuckets, samples...)
		}); err != nil {
			return false
		}
		var prev, last, count uint64
		for _, line := range strings.Split(strings.TrimSpace(r.Render()), "\n") {
			series, value, _ := strings.Cut(line, " ")
			n, err := strconv.ParseUint(value, 10, 64)
			switch {
			case strings.HasPrefix(series, "h_bucket"):
				if err != nil || n < prev {
					return false
				}
				prev, last = n, n
			case series == "h_count":
				count = n
			}
		}
		return last == count && count == uint64(len(raw))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Counter("x", "", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Counter("x", "", nil); err == nil {
		t.Error("duplicate registration accepted")
	}
	// Same name with different labels is allowed.
	if _, err := r.Counter("x", "", map[string]string{"a": "1"}); err != nil {
		t.Errorf("labeled variant rejected: %v", err)
	}
}

func TestRenderDeterministic(t *testing.T) {
	// The exposition must be byte-identical across calls: metrics render
	// in registration order and label keys are sorted.
	r := NewRegistry()
	r.MustCounter("b_total", "second", map[string]string{"z": "9", "a": "1"}).Add(1)
	r.MustCounter("a_total", "first", nil).Add(2)
	if err := r.HistogramFunc("h_seconds", "", map[string]string{"workload": "web"},
		func() HistogramSnapshot { return snapshotOf([]float64{0.01}, 0.001) }); err != nil {
		t.Fatal(err)
	}
	first := r.Render()
	for i := 0; i < 10; i++ {
		if got := r.Render(); got != first {
			t.Fatalf("render #%d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	// Registration order, not alphabetical: b_total renders before a_total.
	if strings.Index(first, "b_total") > strings.Index(first, "a_total") {
		t.Errorf("metrics not in registration order:\n%s", first)
	}
	if !strings.Contains(first, `b_total{a="1",z="9"} 1`) {
		t.Errorf("label keys not sorted:\n%s", first)
	}
}

func TestLabelsDeterministic(t *testing.T) {
	got := renderLabels(map[string]string{"z": "1", "a": "2", "m": "3"})
	if got != `{a="2",m="3",z="1"}` {
		t.Errorf("labels = %s", got)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.MustCounter("hits", "", nil).Add(7)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "hits 7") {
		t.Errorf("body = %q", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
}

func TestPprofMux(t *testing.T) {
	srv := httptest.NewServer(PprofMux())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof index status = %d", resp.StatusCode)
	}
	// Nothing outside /debug/pprof/ is served.
	resp, err = srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("root status = %d, want 404", resp.StatusCode)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	live := 4
	if err := r.GaugeFunc("live_workers", "live worker count",
		map[string]string{"node": "m1"}, func() float64 { return float64(live) }); err != nil {
		t.Fatalf("GaugeFunc: %v", err)
	}
	if !strings.Contains(r.Render(), `live_workers{node="m1"} 4`) {
		t.Errorf("render:\n%s", r.Render())
	}
	// The value is computed at scrape time, not registration time.
	live = 3
	if !strings.Contains(r.Render(), `live_workers{node="m1"} 3`) {
		t.Errorf("render after change:\n%s", r.Render())
	}
	if err := r.GaugeFunc("bad", "", nil, nil); err == nil {
		t.Error("nil function accepted")
	}
	// Duplicate registration is rejected like any other metric.
	if err := r.GaugeFunc("live_workers", "", map[string]string{"node": "m1"},
		func() float64 { return 0 }); err == nil {
		t.Error("duplicate GaugeFunc accepted")
	}
}
