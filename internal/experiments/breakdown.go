package experiments

import (
	"fmt"
	"strings"

	"lambdanic/internal/obs"
	"lambdanic/internal/trace"
	"lambdanic/internal/workloads"
)

// BreakdownReport is the latency-attribution companion to Figures 6
// and 8: per workload, where λ-NIC requests spend their time — queue
// wait, instruction cycles, per-level memory stalls, and transport —
// so the end-to-end gap the paper reports is explainable stage by
// stage (§4.2.1, §6.3).
type BreakdownReport struct {
	// Workloads holds one attribution table per benchmark workload.
	Workloads []obs.WorkloadBreakdown
	// Requests are the raw traced requests, exportable as a Chrome
	// trace (WriteChromeTrace) for timeline inspection.
	Requests []*obs.Req
}

// LatencyBreakdown runs each benchmark workload closed-loop on the
// λ-NIC backend with tracing enabled and attributes every request's
// time to pipeline stages. The workloads share one simulation, run
// back to back, so the exported Chrome trace shows them on one
// non-overlapping timeline.
func LatencyBreakdown(cfg Config) (*BreakdownReport, error) {
	type wl struct {
		name string
		id   uint32
		gen  func(i int) []byte
	}
	img := workloads.ImageTransformer(cfg.ImageWidth, cfg.ImageHeight)
	wls := []wl{
		{"web-server", workloads.WebServerID, workloads.WebServer().MakeRequest},
		{"key-value-client", workloads.KVGetClientID, workloads.KVGetClient().MakeRequest},
		{"image-transformer", workloads.ImageTransformerID, img.MakeRequest},
	}
	s, b, err := cfg.newBackend(BackendLambdaNIC, cfg.set())
	if err != nil {
		return nil, err
	}
	col := obs.NewCollector(s.Now)
	for _, w := range wls {
		samples := cfg.Fig6Samples
		if w.name == "image-transformer" && samples > cfg.Fig7ImageRequests*4 {
			samples = cfg.Fig7ImageRequests * 4
		}
		_, err := trace.ClosedLoop{
			Concurrency: 1,
			Requests:    samples,
			Warmup:      warmup,
			Gen:         trace.Labeled(w.id, w.name, w.gen),
			Tracer:      col,
		}.Run(s, b)
		if err != nil {
			return nil, fmt.Errorf("breakdown %s: %w", w.name, err)
		}
	}
	reqs := col.Requests()
	return &BreakdownReport{
		Workloads: obs.Summarize(reqs),
		Requests:  reqs,
	}, nil
}

// RenderLatencyBreakdown prints the attribution report.
func RenderLatencyBreakdown(r *BreakdownReport) string {
	var b strings.Builder
	b.WriteString("Latency breakdown: per-stage attribution on the λ-NIC backend (closed loop)\n")
	b.WriteString(obs.RenderBreakdown(r.Workloads))
	return b.String()
}
