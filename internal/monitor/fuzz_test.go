package monitor

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fleetPage is a scrape with every family the fleet views read: node
// and per-workload latency, errors, sheds, and a tenant's admission
// sheds.
const fleetPage = `# TYPE lnic_worker_latency_seconds histogram
lnic_worker_latency_seconds_bucket{le="0.001"} 2
lnic_worker_latency_seconds_bucket{le="0.01"} 5
lnic_worker_latency_seconds_bucket{le="+Inf"} 6
lnic_worker_latency_seconds_sum 0.75
lnic_worker_latency_seconds_count 6
# TYPE lnic_worker_workload_latency_seconds histogram
lnic_worker_workload_latency_seconds_bucket{tenant="bulk",workload="web",le="0.001"} 1
lnic_worker_workload_latency_seconds_bucket{tenant="bulk",workload="web",le="+Inf"} 3
lnic_worker_workload_latency_seconds_sum{tenant="bulk",workload="web"} 0.5
lnic_worker_workload_latency_seconds_count{tenant="bulk",workload="web"} 3
# TYPE lnic_worker_errors_total counter
lnic_worker_errors_total 2
# TYPE lnic_gateway_tenant_shed_total counter
lnic_gateway_tenant_shed_total{tenant="bulk"} 4
`

// FuzzParseExposition feeds the scrape parser pages another process
// could send. Arbitrary page pairs must never panic through the parser
// or any fleet view; a page Render wrote must parse back to the values,
// labels and histograms it was rendered from, whatever bytes its label
// values hold.
func FuzzParseExposition(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "exposition.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(""), golden, `C:\tmp`, uint64(41), int64(1800_000))
	f.Add([]byte(fleetPage), []byte(strings.ReplaceAll(fleetPage, " 2\n", " 9\n")), "bulk", uint64(3), int64(0))
	f.Add(golden, []byte(fleetPage), "say \"hi\"\nand \\n", uint64(1<<63), int64(-1))
	f.Fuzz(func(t *testing.T, prevPage, curPage []byte, label string, count uint64, latency int64) {
		// Arbitrary pages: errors are fine, panics are not.
		snapshot := func(page []byte) FleetSnapshot {
			s, err := ParseExposition(bytes.NewReader(page))
			return FleetSnapshot{Scrapes: []TargetScrape{{Target: Target{Nic: "m2"}, Err: err, Scrape: s}}}
		}
		prev, cur := snapshot(prevPage), snapshot(curPage)
		RenderTop(FleetRows(prev, cur, time.Second), time.Second)
		objectives := []Objective{
			{Name: "availability", Kind: ObjectiveAvailability, Target: 0.999},
			{Name: "p99", Kind: ObjectiveLatency, Target: 0.99, Threshold: time.Millisecond},
		}
		for _, tenant := range []string{"", "bulk", label} {
			if _, err := FleetSLO(prev, cur, objectives, tenant); err != nil {
				t.Fatalf("FleetSLO(tenant %q): %v", tenant, err)
			}
		}

		// A rendered page parses back to what it was rendered from.
		if len(label) > 1<<12 {
			return
		}
		labels := map[string]string{"tenant": label, "workload": "web"}
		reg := NewRegistry()
		reg.MustCounter("lnic_x_total", "x", labels).Add(count)
		h := NewHistogram()
		h.Observe(latency)
		h.Observe(int64(count))
		if err := h.Expose(reg, "lnic_x_latency_seconds", "latency", labels); err != nil {
			t.Fatal(err)
		}
		page := reg.Render()
		s, err := ParseExposition(strings.NewReader(page))
		if err != nil {
			t.Fatalf("rendered page does not parse: %v\n%s", err, page)
		}
		if v, ok := s.Value("lnic_x_total", labels); !ok || v != float64(count) {
			t.Fatalf("counter = %v, %v; want %d\n%s", v, ok, count, page)
		}
		if got := s.Samples[0].Labels; !reflect.DeepEqual(got, labels) {
			t.Fatalf("labels = %q, want %q\n%s", got, labels, page)
		}
		hists := s.Histograms()
		if len(hists) != 1 {
			t.Fatalf("histograms = %d, want 1\n%s", len(hists), page)
		}
		got := hists[0]
		if got.Cumulative[len(got.Cumulative)-1] != got.Count {
			t.Fatalf("+Inf bucket %d != count %d", got.Cumulative[len(got.Cumulative)-1], got.Count)
		}
		if want := h.Snapshot().exposition(); !reflect.DeepEqual(got.HistogramSnapshot, want) ||
			!reflect.DeepEqual(got.Labels, labels) {
			t.Fatalf("histogram = %+v %q, want %+v %q", got.HistogramSnapshot, got.Labels, want, labels)
		}
	})
}
