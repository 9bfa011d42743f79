package monitor

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry exercising every corner of the text
// exposition format: registration-order rendering, sorted label keys,
// label-value escaping (backslash, quote, newline), HELP escaping, the
// histogram +Inf bucket and le-label merging through HistogramFunc,
// with and without other labels.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.MustCounter("lnic_requests_total", "requests served", map[string]string{
		"workload": "web_server", "nic": "m2",
	}).Add(41)
	r.MustCounter("lnic_requests_total", "requests served", map[string]string{
		"workload": "kv_get", "nic": "m2",
	}).Add(7)
	r.MustGauge("lnic_escapes", `tricky "help" with \backslash`+"\nand newline",
		map[string]string{"path": `C:\tmp`, "quote": `say "hi"`, "nl": "a\nb"}).Set(1.5)
	if err := r.GaugeFunc("lnic_live_workers", "live worker count", nil,
		func() float64 { return 3 }); err != nil {
		panic(err)
	}
	if err := r.HistogramFunc("lnic_latency_seconds", "request latency",
		map[string]string{"workload": "web_server"}, func() HistogramSnapshot {
			return snapshotOf([]float64{0.001, 0.01, 0.1}, 0.0004, 0.004, 0.004, 0.04, 4)
		}); err != nil {
		panic(err)
	}
	if err := r.HistogramFunc("lnic_remote_latency_seconds", "scraped histogram",
		map[string]string{"nic": "m3"}, func() HistogramSnapshot {
			return HistogramSnapshot{
				Bounds:     []float64{0.001, 0.1},
				Cumulative: []uint64{2, 5, 6},
				Sum:        0.75,
				Count:      6,
			}
		}); err != nil {
		panic(err)
	}
	return r
}

func TestExpositionGolden(t *testing.T) {
	got := goldenRegistry().Render()
	path := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestHandlerContentType(t *testing.T) {
	srv := httptest.NewServer(goldenRegistry().Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	const want = "text/plain; version=0.0.4; charset=utf-8"
	if ct := resp.Header.Get("Content-Type"); ct != want {
		t.Errorf("Content-Type = %q, want %q", ct, want)
	}
}

func TestHistogramFuncNil(t *testing.T) {
	r := NewRegistry()
	if err := r.HistogramFunc("bad", "", nil, nil); err == nil {
		t.Error("nil function accepted")
	}
	fn := func() HistogramSnapshot { return HistogramSnapshot{} }
	if err := r.HistogramFunc("h", "", nil, fn); err != nil {
		t.Fatal(err)
	}
	if err := r.HistogramFunc("h", "", nil, fn); err == nil {
		t.Error("duplicate HistogramFunc accepted")
	}
}
