package monitor

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseExposition(t *testing.T) {
	page := `# HELP lnic_requests_total requests
# TYPE lnic_requests_total counter
lnic_requests_total{nic="m2",workload="web_server"} 41
# TYPE lnic_escapes gauge
lnic_escapes{path="C:\\tmp",quote="say \"hi\"",nl="a\nb"} 1.5
# TYPE lnic_latency_seconds histogram
lnic_latency_seconds_bucket{le="0.001"} 2
lnic_latency_seconds_bucket{le="0.01"} 5
lnic_latency_seconds_bucket{le="+Inf"} 6
lnic_latency_seconds_sum 0.75
lnic_latency_seconds_count 6
`
	s, err := ParseExposition(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Value("lnic_requests_total", map[string]string{"workload": "web_server"}); !ok || v != 41 {
		t.Errorf("counter = %v %v", v, ok)
	}
	if v, ok := s.Value("lnic_escapes", nil); !ok || v != 1.5 {
		t.Errorf("gauge = %v %v", v, ok)
	}
	var esc ScrapedSample
	for _, sm := range s.Samples {
		if sm.Name == "lnic_escapes" {
			esc = sm
		}
	}
	if esc.Labels["path"] != `C:\tmp` || esc.Labels["quote"] != `say "hi"` || esc.Labels["nl"] != "a\nb" {
		t.Errorf("unescaping wrong: %+v", esc.Labels)
	}

	hists := s.Histograms()
	if len(hists) != 1 {
		t.Fatalf("histograms = %d, want 1", len(hists))
	}
	h := hists[0]
	if h.Name != "lnic_latency_seconds" || h.Count != 6 || h.Sum != 0.75 {
		t.Errorf("histogram = %+v", h)
	}
	if len(h.Bounds) != 2 || h.Cumulative[2] != 6 {
		t.Errorf("buckets = %v %v", h.Bounds, h.Cumulative)
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, page := range []string{
		"lnic_x{le=\"0.1\" 3\n",     // unterminated labels
		"lnic_x\n",                  // no value
		"lnic_x{le=unquoted} 3\n",   // unquoted label
		"lnic_x{le=\"0.1\"} nope\n", // bad value
	} {
		if _, err := ParseExposition(strings.NewReader(page)); err == nil {
			t.Errorf("page %q accepted", page)
		}
	}
}

// TestScrapeRoundTrip scrapes a real registry render — the parser and
// the renderer must agree, including the Histogram's exposition.
func TestScrapeRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.MustCounter("lnic_worker_errors_total", "failures", nil).Add(3)
	th := NewHistogram()
	for i := 0; i < 100; i++ {
		th.ObserveDuration(1800 * time.Microsecond)
	}
	if err := th.Expose(reg, "lnic_worker_latency_seconds", "latency", nil); err != nil {
		t.Fatal(err)
	}

	s, err := ParseExposition(strings.NewReader(reg.Render()))
	if err != nil {
		t.Fatal(err)
	}
	hists := s.Histograms()
	if len(hists) != 1 {
		t.Fatalf("histograms = %d", len(hists))
	}
	h := hists[0]
	if h.Count != 100 {
		t.Errorf("count = %d", h.Count)
	}
	// All samples sat at 1.8ms; the scraped p99 must land inside the
	// (1ms, 2ms] exposition bucket.
	p99 := h.Quantile(0.99)
	if p99 < 0.001 || p99 > 0.002001 {
		t.Errorf("scraped p99 = %v, want ≈2ms", p99)
	}
	if frac := h.FracAtOrBelow(0.005); frac < 0.99 {
		t.Errorf("FracAtOrBelow(5ms) = %v, want ≈1", frac)
	}
	if frac := h.FracAtOrBelow(0.0001); frac > 0.2 {
		t.Errorf("FracAtOrBelow(0.1ms) = %v, want ≈0", frac)
	}
}

// serve exposes reg on a loopback HTTP listener for the test's
// lifetime and returns its URL.
func serve(t *testing.T, reg *Registry) string {
	t.Helper()
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// fleetFixture builds two registries (a worker and a gateway), each
// served over HTTP, and a collector over both.
func fleetFixture(t *testing.T) (*Collector, *Registry, *Registry) {
	t.Helper()
	worker := NewRegistry()
	gatewayReg := NewRegistry()
	c := NewCollector([]Target{
		{Nic: "m2", URL: serve(t, worker)},
		{Nic: "gateway", URL: serve(t, gatewayReg)},
	})
	return c, worker, gatewayReg
}

func TestFleetRowsAndSLO(t *testing.T) {
	c, worker, gatewayReg := fleetFixture(t)

	errs := worker.MustCounter("lnic_worker_errors_total", "failures", nil)
	wh := NewHistogram()
	if err := wh.Expose(worker, "lnic_worker_latency_seconds", "latency", nil); err != nil {
		t.Fatal(err)
	}
	wlh := NewHistogram()
	if err := wlh.Expose(worker, "lnic_worker_workload_latency_seconds", "latency",
		map[string]string{"workload": "web_server"}); err != nil {
		t.Fatal(err)
	}
	gh := NewHistogram()
	if err := gh.Expose(gatewayReg, "lnic_gateway_upstream_latency_seconds", "latency", nil); err != nil {
		t.Fatal(err)
	}
	bypass := worker.MustCounter("lnic_worker_bypass_total", "one-sided fast-path hits",
		map[string]string{"workload": "web_server"})

	prev := c.Collect(context.Background())
	for i := 0; i < 100; i++ {
		wh.ObserveDuration(time.Millisecond)
		wlh.ObserveDuration(time.Millisecond)
		gh.ObserveDuration(1800 * time.Microsecond)
	}
	errs.Add(2)
	bypass.Add(40)
	cur := c.Collect(context.Background())

	rows := FleetRows(prev, cur, 10*time.Second)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3: %+v", len(rows), rows)
	}
	byKey := map[string]FleetRow{}
	for _, r := range rows {
		byKey[r.Nic+"/"+r.Workload] = r
	}
	node := byKey["m2/"]
	if node.Requests != 100 || node.Errors != 2 {
		t.Errorf("node row = %+v", node)
	}
	if node.RatePerS < 9.9 || node.RatePerS > 10.1 {
		t.Errorf("rate = %v, want 10/s", node.RatePerS)
	}
	wl := byKey["m2/web_server"]
	if wl.Requests != 100 || wl.Errors != 0 {
		t.Errorf("workload row = %+v", wl)
	}
	if wl.Bypass != 40 || wl.BypassPerS < 3.9 || wl.BypassPerS > 4.1 {
		t.Errorf("bypass = %d at %v/s, want 40 at 4/s", wl.Bypass, wl.BypassPerS)
	}
	if node.Bypass != 0 {
		t.Errorf("node row carries bypass count %d", node.Bypass)
	}
	gw := byKey["gateway/"]
	if gw.Requests != 100 {
		t.Errorf("gateway row = %+v", gw)
	}
	if gw.P99 < 0.001 || gw.P99 > 0.0021 {
		t.Errorf("gateway p99 = %v, want ≈2ms", gw.P99)
	}

	top := RenderTop(rows, 10*time.Second)
	for _, want := range []string{"m2", "gateway", "web_server", "(node)", "1SIDED/S"} {
		if !strings.Contains(top, want) {
			t.Errorf("top output missing %q:\n%s", want, top)
		}
	}

	statuses, err := FleetSLO(prev, cur, []Objective{
		{Name: "availability", Kind: ObjectiveAvailability, Target: 0.999},
		{Name: "p99", Kind: ObjectiveLatency, Target: 0.99, Threshold: 10 * time.Millisecond},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 2 {
		t.Fatalf("statuses = %d", len(statuses))
	}
	// 2 errors against 200 successes (node-wide families only; the
	// per-workload family must not double-count).
	av := statuses[0]
	if av.GoodFraction < 0.98 || av.GoodFraction > 0.995 {
		t.Errorf("availability good fraction = %v, want ≈200/202", av.GoodFraction)
	}
	if av.Met {
		t.Error("availability met with 1% errors against 0.1% budget")
	}
	lat := statuses[1]
	if !lat.Met {
		t.Errorf("latency objective unmet: %+v", lat)
	}
	out := RenderSLO(statuses, 10*time.Second)
	if !strings.Contains(out, "availability") || !strings.Contains(out, "p99") {
		t.Errorf("slo output incomplete:\n%s", out)
	}
}

func TestCollectSurvivesDeadTarget(t *testing.T) {
	worker := NewRegistry()
	wh := NewHistogram()
	if err := wh.Expose(worker, "lnic_worker_latency_seconds", "latency", nil); err != nil {
		t.Fatal(err)
	}
	// A closed listener: every scrape of the gateway is refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	c := NewCollector([]Target{{Nic: "m2", URL: serve(t, worker)}, {Nic: "gateway", URL: dead.URL}})
	prev := c.Collect(context.Background())
	wh.ObserveDuration(time.Millisecond)
	cur := c.Collect(context.Background())
	rows := FleetRows(prev, cur, time.Second)
	var failed, ok bool
	for _, r := range rows {
		if r.Workload == "(scrape failed)" && r.Nic == "gateway" {
			failed = true
		}
		if r.Nic == "m2" && r.Requests == 1 {
			ok = true
		}
	}
	if !failed || !ok {
		t.Errorf("rows = %+v, want one failed gateway row and a live m2 row", rows)
	}
}

func TestParseTargets(t *testing.T) {
	ts, err := ParseTargets("m2=127.0.0.1:9100,gateway=http://127.0.0.1:9101/,127.0.0.1:9102")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("targets = %d", len(ts))
	}
	if ts[0].Nic != "m2" || ts[0].URL != "http://127.0.0.1:9100" {
		t.Errorf("target 0 = %+v", ts[0])
	}
	if ts[1].URL != "http://127.0.0.1:9101/" {
		t.Errorf("target 1 = %+v", ts[1])
	}
	if ts[2].Nic != "127.0.0.1:9102" {
		t.Errorf("target 2 = %+v", ts[2])
	}
	if _, err := ParseTargets(" , "); err == nil {
		t.Error("empty spec accepted")
	}
}

func TestExpositionBridge(t *testing.T) {
	// A Histogram rendered through the registry must produce a well-formed cumulative histogram: monotone, +Inf
	// equal to count.
	h := NewHistogram()
	for _, d := range []time.Duration{
		500 * time.Nanosecond, 30 * time.Microsecond, 1800 * time.Microsecond,
		1800 * time.Microsecond, 80 * time.Millisecond, 30 * time.Second,
	} {
		h.ObserveDuration(d)
	}
	snap := h.Snapshot().exposition()
	if snap.Count != 6 {
		t.Fatalf("count = %d", snap.Count)
	}
	if len(snap.Cumulative) != len(FineLatencyBuckets)+1 {
		t.Fatalf("cumulative len = %d", len(snap.Cumulative))
	}
	last := uint64(0)
	for i, c := range snap.Cumulative {
		if c < last {
			t.Fatalf("cumulative not monotone at %d: %v", i, snap.Cumulative)
		}
		last = c
	}
	if snap.Cumulative[len(snap.Cumulative)-1] != 6 {
		t.Errorf("+Inf bucket = %d, want 6", snap.Cumulative[len(snap.Cumulative)-1])
	}
	// The 30s sample exceeds the 10s top bound: it must live only in
	// +Inf.
	if snap.Cumulative[len(snap.Cumulative)-2] != 5 {
		t.Errorf("10s bucket = %d, want 5", snap.Cumulative[len(snap.Cumulative)-2])
	}
	// The 1.8ms pair lands at the 2e-3 bound, not below it.
	var at2ms uint64
	for i, b := range FineLatencyBuckets {
		if b == 2e-3 {
			at2ms = snap.Cumulative[i]
		}
	}
	if at2ms != 4 {
		t.Errorf("≤2ms = %d, want 4", at2ms)
	}
	// Sum is reconstructed from bucket midpoints, so it carries the
	// bucket's ~3% relative error.
	if snap.Sum < 29 || snap.Sum > 31 {
		t.Errorf("sum = %v, want ≈30.08s", snap.Sum)
	}
}

func TestFleetRowsFlowAffinity(t *testing.T) {
	c, worker, gatewayReg := fleetFixture(t)

	wh := NewHistogram()
	if err := wh.Expose(worker, "lnic_worker_latency_seconds", "latency", nil); err != nil {
		t.Fatal(err)
	}
	gh := NewHistogram()
	if err := gh.Expose(gatewayReg, "lnic_gateway_upstream_latency_seconds", "latency", nil); err != nil {
		t.Fatal(err)
	}
	hits := worker.MustCounter("lnic_worker_warm_hits_total", "warm hits", nil)
	lookups := worker.MustCounter("lnic_worker_warm_lookups_total", "warm lookups", nil)
	pins := gatewayReg.MustGauge("lnic_gateway_pinned_flows", "standing pins", nil)

	prev := c.Collect(context.Background())
	for i := 0; i < 10; i++ {
		wh.ObserveDuration(time.Millisecond)
		gh.ObserveDuration(time.Millisecond)
	}
	lookups.Add(80)
	hits.Add(60)
	pins.Set(5)
	cur := c.Collect(context.Background())

	rows := FleetRows(prev, cur, 10*time.Second)
	byKey := map[string]FleetRow{}
	for _, r := range rows {
		byKey[r.Nic+"/"+r.Workload] = r
	}
	node := byKey["m2/"]
	if !node.HasWarm {
		t.Fatalf("worker node row has no warm tracking: %+v", node)
	}
	if node.WarmPct < 74.9 || node.WarmPct > 75.1 {
		t.Errorf("warm pct = %v, want 75 (60/80)", node.WarmPct)
	}
	if node.Flows != 0 {
		t.Errorf("worker row carries pinned flows %d", node.Flows)
	}
	gw := byKey["gateway/"]
	if gw.Flows != 5 {
		t.Errorf("gateway pinned flows = %d, want 5 (gauge value, not delta)", gw.Flows)
	}
	if gw.HasWarm {
		t.Errorf("gateway row claims warm tracking: %+v", gw)
	}

	top := RenderTop(rows, 10*time.Second)
	for _, want := range []string{"FLOWS", "WARM%", "75.0"} {
		if !strings.Contains(top, want) {
			t.Errorf("top output missing %q:\n%s", want, top)
		}
	}
	// Warm hit rate resets per window: a second delta with no new
	// lookups shows "-" (no tracking), not a stale percentage.
	rows2 := FleetRows(cur, c.Collect(context.Background()), time.Second)
	for _, r := range rows2 {
		if r.Nic == "m2" && r.Workload == "" && r.HasWarm {
			t.Errorf("idle window still reports warm tracking: %+v", r)
		}
	}
}
