// Package experiments regenerates every table and figure of the
// paper's evaluation (§6) on the simulated testbed:
//
//	Table 1  — SmartNIC architecture comparison (static).
//	Figure 6 — latency ECDFs, single warm lambda in isolation.
//	Figure 7 — average throughput, 1 and 56 concurrent requests.
//	Figure 8 — latency CDF under contention (3 web lambdas).
//	Table 2  — throughput under contention.
//	Table 3  — added resource utilization (image transformer).
//	Table 4  — artifact sizes and startup times.
//	Figure 9 — optimizer effectiveness (instruction counts).
//
// Each experiment builds fresh simulations and backends so runs are
// independent and deterministic. The same generators back the
// cmd/lnic-bench binary and the sim_paper workload of bench/.
package experiments

import (
	"fmt"
	"time"

	"lambdanic/internal/backend"
	"lambdanic/internal/cluster"
	"lambdanic/internal/metrics"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/sim"
	"lambdanic/internal/trace"
	"lambdanic/internal/workloads"
)

// BackendID names one evaluated backend.
type BackendID string

// Evaluated backends.
const (
	BackendLambdaNIC      BackendID = "lambda-nic"
	BackendBareMetal      BackendID = "bare-metal"
	BackendBareMetal1Core BackendID = "bare-metal-1core"
	BackendContainer      BackendID = "container"
)

// Config sizes the experiments.
type Config struct {
	Seed    int64
	Testbed cluster.Testbed
	// Kernel selects the sim event-queue implementation. Both kernels
	// fire in the identical order, so results are bit-identical; the
	// zero value is the (faster) ladder queue, and only the
	// differential tests set the heap.
	Kernel sim.KernelKind
	// Image dimensions for the image-transformer workload.
	ImageWidth, ImageHeight int
	// Concurrency is the parallel test's outstanding-request count
	// (56 in the paper: the host's hardware threads).
	Concurrency int
	// Samples / request counts per experiment.
	Fig6Samples       int
	Fig7Requests      int
	Fig7ImageRequests int
	Fig8Requests      int
	Table3Requests    int
	// Warmup requests excluded from measurement.
	Warmup int
}

// Default returns full-size experiments (paper-scale sampling).
func Default() Config {
	return Config{
		Seed:              42,
		Testbed:           cluster.Default(),
		ImageWidth:        workloads.DefaultImageWidth,
		ImageHeight:       workloads.DefaultImageHeight,
		Concurrency:       56,
		Fig6Samples:       400,
		Fig7Requests:      3000,
		Fig7ImageRequests: 60,
		Fig8Requests:      3000,
		Table3Requests:    112,
		Warmup:            4,
	}
}

// Quick returns a reduced configuration for tests.
func Quick() Config {
	cfg := Default()
	cfg.ImageWidth, cfg.ImageHeight = 64, 64
	cfg.Fig6Samples = 40
	cfg.Fig7Requests = 300
	cfg.Fig7ImageRequests = 10
	cfg.Fig8Requests = 400
	cfg.Table3Requests = 30
	return cfg
}

// set returns the benchmark workload set sized by the config.
func (c Config) set() []*workloads.Workload {
	return []*workloads.Workload{
		workloads.WebServer(),
		workloads.KVGetClient(),
		workloads.KVSetClient(),
		workloads.ImageTransformer(c.ImageWidth, c.ImageHeight),
	}
}

// newSim builds a simulation honoring the config's kernel selection.
func (c Config) newSim() *sim.Sim {
	return sim.NewWithKernel(c.Seed, c.Kernel)
}

// newBackend builds a fresh simulation plus backend and deploys ws.
func (c Config) newBackend(id BackendID, ws []*workloads.Workload) (*sim.Sim, backend.Backend, error) {
	s := c.newSim()
	var (
		b   backend.Backend
		err error
	)
	switch id {
	case BackendLambdaNIC:
		b, err = backend.NewLambdaNIC(s, c.Testbed, nicsim.DispatchUniform)
	case BackendBareMetal:
		b, err = backend.NewBareMetal(s, c.Testbed, false)
	case BackendBareMetal1Core:
		b, err = backend.NewBareMetal(s, c.Testbed, true)
	case BackendContainer:
		b, err = backend.NewContainer(s, c.Testbed)
	default:
		return nil, nil, fmt.Errorf("experiments: unknown backend %q", id)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := b.Deploy(ws); err != nil {
		return nil, nil, err
	}
	return s, b, nil
}

// requests is w's request generator. Every image request of a run
// carries one 1 MiB payload: no backend writes it (λ-NIC reads it in
// place after a copy-free commit, cpusim reads its length) and no
// virtual-time result depends on its pixels.
func (c Config) requests(w *workloads.Workload) trace.Generator {
	if w.ID != workloads.ImageTransformerID {
		return trace.Fixed(w.ID, w.MakeRequest)
	}
	payload := w.MakeRequest(0)
	return trace.Fixed(w.ID, func(int) []byte { return payload })
}

// gateway wraps a backend with the modeled gateway stage used in the
// throughput experiments.
func (c Config) gateway(s *sim.Sim, b trace.Invoker) *trace.Gateway {
	return trace.NewGateway(s, b, c.Testbed.Costs.GatewayLatency, c.Testbed.Costs.GatewayOccupancy)
}

// LatencySeries is one backend × workload latency distribution.
type LatencySeries struct {
	Workload string
	Backend  BackendID
	Summary  metrics.Summary
	ECDF     []metrics.Point
	Errors   int
}

// Figure6 measures the latency ECDF of each workload on each backend,
// one warm lambda in isolation, closed loop (§6.3.1 and Fig. 6). The
// key-value series reports the client lambda's processing latency,
// excluding the external memcached round trip on every backend (the
// paper's sub-microsecond kv numbers imply the same).
func Figure6(cfg Config) ([]LatencySeries, error) {
	type wl struct {
		name string
		w    *workloads.Workload
	}
	wls := []wl{
		{"web-server", workloads.WebServer()},
		{"key-value-client", workloads.KVGetClient()},
		{"image-transformer", workloads.ImageTransformer(cfg.ImageWidth, cfg.ImageHeight)},
	}
	backends := []BackendID{BackendLambdaNIC, BackendBareMetal, BackendContainer}
	var out []LatencySeries
	for _, w := range wls {
		samples := cfg.Fig6Samples
		if w.name == "image-transformer" && samples > cfg.Fig7ImageRequests*4 {
			samples = cfg.Fig7ImageRequests * 4
		}
		for _, bid := range backends {
			s, b, err := cfg.newBackend(bid, cfg.set())
			if err != nil {
				return nil, err
			}
			res, err := trace.ClosedLoop{
				Concurrency: 1,
				Requests:    samples,
				Warmup:      cfg.Warmup,
				Gen:         cfg.requests(w.w),
			}.Run(s, b)
			if err != nil {
				return nil, fmt.Errorf("figure6 %s/%s: %w", w.name, bid, err)
			}
			out = append(out, LatencySeries{
				Workload: w.name,
				Backend:  bid,
				Summary:  res.Latency.Summarize(),
				ECDF:     res.Latency.ECDF(40),
				Errors:   res.Errors,
			})
		}
	}
	return out, nil
}

// ThroughputPoint is one backend × workload × concurrency throughput.
type ThroughputPoint struct {
	Workload  string
	Backend   BackendID
	Threads   int
	PerSecond float64
	Errors    int
}

// Figure7 measures average throughput for each workload and backend at
// 1 and Concurrency outstanding requests, through the gateway (§6.3.1
// and Fig. 7).
func Figure7(cfg Config) ([]ThroughputPoint, error) {
	type wl struct {
		name     string
		w        *workloads.Workload
		requests int
	}
	wls := []wl{
		{"web-server", workloads.WebServer(), cfg.Fig7Requests},
		{"key-value-client", workloads.KVGetClient(), cfg.Fig7Requests},
		{"image-transformer", workloads.ImageTransformer(cfg.ImageWidth, cfg.ImageHeight), cfg.Fig7ImageRequests},
	}
	backends := []BackendID{BackendLambdaNIC, BackendBareMetal, BackendContainer}
	var out []ThroughputPoint
	for _, w := range wls {
		for _, bid := range backends {
			for _, threads := range []int{1, cfg.Concurrency} {
				s, b, err := cfg.newBackend(bid, cfg.set())
				if err != nil {
					return nil, err
				}
				gw := cfg.gateway(s, b)
				res, err := trace.ClosedLoop{
					Concurrency: threads,
					Requests:    w.requests,
					Warmup:      cfg.Warmup,
					Gen:         cfg.requests(w.w),
				}.Run(s, gw)
				if err != nil {
					return nil, fmt.Errorf("figure7 %s/%s/%d: %w", w.name, bid, threads, err)
				}
				out = append(out, ThroughputPoint{
					Workload:  w.name,
					Backend:   bid,
					Threads:   threads,
					PerSecond: res.Throughput.PerSecond(),
					Errors:    res.Errors,
				})
			}
		}
	}
	return out, nil
}

// ContentionResult is one Figure 8 / Table 2 series.
type ContentionResult struct {
	Backend   BackendID
	Summary   metrics.Summary
	ECDF      []metrics.Point
	PerSecond float64
	Errors    int
}

// contentionSet returns three distinct web-server lambdas (§6.3.2).
func contentionSet() []*workloads.Workload {
	return []*workloads.Workload{
		workloads.WebServerVariant("web_a", 11),
		workloads.WebServerVariant("web_b", 12),
		workloads.WebServerVariant("web_c", 13),
	}
}

// Figure8Table2 runs three distinct web-server lambdas concurrently
// with round-robin requests — forcing a context switch per request on
// the CPU backends — and reports latency distributions (Fig. 8) and
// throughput (Table 2) for λ-NIC and the bare-metal backend with all
// threads and a single core.
func Figure8Table2(cfg Config) ([]ContentionResult, error) {
	set := contentionSet()
	gens := make([]trace.Generator, len(set))
	for i, w := range set {
		gens[i] = trace.Fixed(w.ID, w.MakeRequest)
	}
	backends := []BackendID{BackendLambdaNIC, BackendBareMetal, BackendBareMetal1Core}
	var out []ContentionResult
	for _, bid := range backends {
		s, b, err := cfg.newBackend(bid, set)
		if err != nil {
			return nil, err
		}
		gw := cfg.gateway(s, b)
		res, err := trace.ClosedLoop{
			Concurrency: cfg.Concurrency,
			Requests:    cfg.Fig8Requests,
			Warmup:      cfg.Warmup,
			Gen:         trace.RoundRobin(gens...),
		}.Run(s, gw)
		if err != nil {
			return nil, fmt.Errorf("figure8 %s: %w", bid, err)
		}
		out = append(out, ContentionResult{
			Backend:   bid,
			Summary:   res.Latency.Summarize(),
			ECDF:      res.Latency.ECDF(40),
			PerSecond: res.Throughput.PerSecond(),
			Errors:    res.Errors,
		})
	}
	return out, nil
}

// Table3Row is one backend's added resource use for the
// image-transformer workload at Concurrency outstanding requests.
type Table3Row struct {
	Backend BackendID
	Usage   backend.Usage
}

// Table3 measures resource utilization while serving concurrent
// image-transformer requests (§6.4, Table 3).
func Table3(cfg Config) ([]Table3Row, error) {
	backends := []BackendID{BackendLambdaNIC, BackendBareMetal, BackendContainer}
	img := workloads.ImageTransformer(cfg.ImageWidth, cfg.ImageHeight)
	var out []Table3Row
	for _, bid := range backends {
		s, b, err := cfg.newBackend(bid, cfg.set())
		if err != nil {
			return nil, err
		}
		_, err = trace.ClosedLoop{
			Concurrency: cfg.Concurrency,
			Requests:    cfg.Table3Requests,
			Gen:         cfg.requests(img),
		}.Run(s, b)
		if err != nil {
			return nil, fmt.Errorf("table3 %s: %w", bid, err)
		}
		out = append(out, Table3Row{Backend: bid, Usage: b.Usage()})
	}
	return out, nil
}

// Table4Row is one backend's artifact size and startup time.
type Table4Row struct {
	Backend BackendID
	SizeMiB float64
	Startup time.Duration
}

// Table1Row is one SmartNIC class in the paper's qualitative
// comparison (Table 1).
type Table1Row struct {
	Type            string
	Programmability string
	Performance     string
	DevelopmentCost string
}

// Table1 returns the paper's SmartNIC comparison verbatim (§2.2).
func Table1() []Table1Row {
	return []Table1Row{
		{"FPGA-based", "Hard", "10+ cores, low latency", "High"},
		{"ASIC-based", "Limited", "200+ cores, low latency", "Medium"},
		{"SoC-based", "Easy", "50+ cores, high latency", "Low"},
	}
}
