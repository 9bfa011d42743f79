// Package monitor is the metrics engine, standing in for the
// "Prometheus-based monitoring engine to analyze system state" in the
// paper's baseline framework (§6.1.1). It provides
//
//   - Registry: counters and gauges, and scrape-time views
//     (CounterFunc, GaugeFunc, HistogramFunc) over values their owners
//     keep, rendered in the Prometheus text exposition format and
//     servable over HTTP;
//   - Histogram: a lock-free sharded HDR-style latency histogram
//     (log-linear buckets, striped atomics, zero allocations per
//     Observe) — the one histogram on the request hot path, owned by
//     the node that records into it and viewed by the registry through
//     HistogramFunc at scrape time;
//   - SLOTracker: a sliding window over a histogram plus an error
//     counter, graded against declared objectives (availability,
//     latency quantile) into error-budget burn rates and reports;
//   - Collector: a fleet scraper that pulls every daemon's exposition
//     page over HTTP, parses it back, and answers on its exposition
//     buckets with nic/workload labels (lnicctl top, slo).
//
// Nothing here reads a wall clock: every windowed read receives an
// explicit timestamp (a duration since an epoch), so the same windows
// and SLO math run under the wall-clock daemons and under virtual time
// in internal/sim.
package monitor

import (
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// FineLatencyBuckets spans 1µs..10s in a 1-2-5 series (seconds) — fine
// enough that tail quantiles interpolated from a scrape are meaningful.
// Every Histogram exposes through these bounds.
var FineLatencyBuckets = []float64{
	1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
	1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1, 2e-1, 5e-1, 1, 2, 5, 10,
}

// HistogramSnapshot is a point-in-time cumulative view of a histogram
// on exposition bounds: what Render writes (produced at scrape time by
// the histogram's owner through HistogramFunc; the registry holds no
// histogram of its own) and what a scrape reads back. Bounds are the
// finite upper bounds in seconds, ascending; Cumulative has
// len(Bounds)+1 entries, the last is the +Inf bucket and equals Count.
type HistogramSnapshot struct {
	Bounds     []float64
	Cumulative []uint64
	Sum        float64
	Count      uint64
}

// metric is one registered metric with metadata.
type metric struct {
	name   string
	help   string
	labels string // pre-rendered {k="v",...} or ""
	kind   string
	c      *Counter
	cf     func() uint64
	g      *Gauge
	gf     func() float64
	hf     func() HistogramSnapshot
}

// Registry holds registered metrics; safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	seen    map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]bool)}
}

// escapeLabelValue applies the exposition format's label-value escaping:
// backslash, double quote, and newline are escaped; everything else is
// emitted raw (the format is UTF-8, not ASCII-armored).
func escapeLabelValue(v string) string {
	return labelEscaper.Replace(v)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeHelp applies the exposition format's HELP-text escaping:
// backslash and newline only (quotes are legal in help text).
func escapeHelp(v string) string {
	return helpEscaper.Replace(v)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// renderLabels formats a label map deterministically.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, k, escapeLabelValue(labels[k])))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func (r *Registry) register(m *metric) error {
	key := m.name + m.labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[key] {
		return fmt.Errorf("monitor: metric %s%s already registered", m.name, m.labels)
	}
	r.seen[key] = true
	r.metrics = append(r.metrics, m)
	return nil
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string, labels map[string]string) (*Counter, error) {
	c := &Counter{}
	err := r.register(&metric{name: name, help: help, labels: renderLabels(labels), kind: "counter", c: c})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string, labels map[string]string) (*Gauge, error) {
	g := &Gauge{}
	err := r.register(&metric{name: name, help: help, labels: renderLabels(labels), kind: "gauge", g: g})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// CounterFunc registers a counter whose value is read by fn at scrape
// time — for monotonic counts owned elsewhere (the transport worker
// pool's shed counter) that would otherwise need a push loop. fn must
// be monotonically non-decreasing and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, labels map[string]string, fn func() uint64) error {
	if fn == nil {
		return fmt.Errorf("monitor: CounterFunc %s: nil function", name)
	}
	return r.register(&metric{name: name, help: help, labels: renderLabels(labels), kind: "counter", cf: fn})
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for values owned elsewhere (live-worker counts, control-store
// leader changes) that would otherwise need a push loop. fn is called
// from the scrape goroutine and must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, labels map[string]string, fn func() float64) error {
	if fn == nil {
		return fmt.Errorf("monitor: GaugeFunc %s: nil function", name)
	}
	return r.register(&metric{name: name, help: help, labels: renderLabels(labels), kind: "gauge", gf: fn})
}

// HistogramFunc registers a histogram whose cumulative snapshot is
// computed by fn at scrape time — how every histogram reaches the
// registry (a Histogram through Expose, owned by the node that records
// into it). fn is called from the scrape goroutine and must be safe for
// concurrent use.
func (r *Registry) HistogramFunc(name, help string, labels map[string]string, fn func() HistogramSnapshot) error {
	if fn == nil {
		return fmt.Errorf("monitor: HistogramFunc %s: nil function", name)
	}
	return r.register(&metric{name: name, help: help, labels: renderLabels(labels), kind: "histogram", hf: fn})
}

// MustCounter is Counter for static registrations.
func (r *Registry) MustCounter(name, help string, labels map[string]string) *Counter {
	c, err := r.Counter(name, help, labels)
	if err != nil {
		panic(err)
	}
	return c
}

// MustGauge is Gauge for static registrations.
func (r *Registry) MustGauge(name, help string, labels map[string]string) *Gauge {
	g, err := r.Gauge(name, help, labels)
	if err != nil {
		panic(err)
	}
	return g
}

// Render produces the Prometheus text exposition format.
func (r *Registry) Render() string {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()

	var b strings.Builder
	helped := map[string]bool{}
	for _, m := range metrics {
		if !helped[m.name] {
			helped[m.name] = true
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		}
		switch m.kind {
		case "counter":
			v := uint64(0)
			if m.cf != nil {
				v = m.cf()
			} else {
				v = m.c.Value()
			}
			fmt.Fprintf(&b, "%s%s %d\n", m.name, m.labels, v)
		case "gauge":
			v := 0.0
			if m.gf != nil {
				v = m.gf()
			} else {
				v = m.g.Value()
			}
			fmt.Fprintf(&b, "%s%s %g\n", m.name, m.labels, v)
		case "histogram":
			snap := m.hf()
			base := strings.TrimSuffix(m.labels, "}")
			for i, ub := range snap.Bounds {
				fmt.Fprintf(&b, "%s_bucket%s %d\n", m.name, bucketLabels(base, m.labels, fmt.Sprintf("%g", ub)), snap.Cumulative[i])
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", m.name, bucketLabels(base, m.labels, "+Inf"), snap.Cumulative[len(snap.Cumulative)-1])
			fmt.Fprintf(&b, "%s_sum%s %g\n", m.name, m.labels, snap.Sum)
			fmt.Fprintf(&b, "%s_count%s %d\n", m.name, m.labels, snap.Count)
		}
	}
	return b.String()
}

// bucketLabels merges the le label into an existing label set.
func bucketLabels(base, full, le string) string {
	if full == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return fmt.Sprintf("%s,le=%q}", base, le)
}

// Handler serves the registry over HTTP (GET /metrics style).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if _, err := w.Write([]byte(r.Render())); err != nil {
			return
		}
	})
}

// PprofMux returns a mux serving the Go runtime's profiling endpoints
// under /debug/pprof/ without registering anything on
// http.DefaultServeMux. The daemons hang it off an opt-in -pprof
// address so production sockets never expose profiling by accident.
func PprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
