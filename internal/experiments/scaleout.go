package experiments

import (
	"fmt"
	"strings"

	"lambdanic/internal/backend"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/trace"
	"lambdanic/internal/workloads"
)

// ScaleOutPoint is aggregate throughput at one worker count.
type ScaleOutPoint struct {
	Workers   int
	PerSecond float64
	// Efficiency is throughput relative to (workers x single-worker
	// throughput).
	Efficiency float64
}

// multiInvoker spreads requests round-robin across worker backends
// sharing one simulation — the gateway's load balancing over the
// testbed's worker nodes (Fig. 2).
type multiInvoker struct {
	backends []*backend.LambdaNIC
	next     int
}

func (m *multiInvoker) Invoke(id uint32, payload []byte, done func(backend.Result)) {
	b := m.backends[m.next%len(m.backends)]
	m.next++
	b.Invoke(id, payload, done)
}

// ScaleOut measures aggregate image-transformer throughput as worker
// NICs are added (the paper's testbed has four workers, §6.1.2). The
// workload is link-bound per worker, so throughput scales near-linearly
// with the worker count — the fleet-level consequence of running
// lambdas on NICs.
func ScaleOut(cfg Config) ([]ScaleOutPoint, error) {
	img := workloads.ImageTransformer(128, 128) // 64 KiB requests: link-bound
	set := []*workloads.Workload{
		workloads.WebServer(), workloads.KVGetClient(), workloads.KVSetClient(),
		workloads.ImageTransformer(128, 128),
	}
	requests := cfg.Fig7Requests / 4
	if requests < 100 {
		requests = 100
	}
	run := func(workers int) (float64, error) {
		s := cfg.newSim()
		mi := &multiInvoker{}
		for i := 0; i < workers; i++ {
			b, err := backend.NewLambdaNIC(s, cfg.Testbed, nicsim.DispatchUniform)
			if err != nil {
				return 0, err
			}
			if err := b.Deploy(set); err != nil {
				return 0, err
			}
			mi.backends = append(mi.backends, b)
		}
		res, err := trace.ClosedLoop{
			Concurrency: cfg.Concurrency * workers,
			// Scale the request count with the fleet so ramp-up and
			// drain edges stay a small fraction of the run.
			Requests: requests * workers,
			Warmup:   cfg.Warmup,
			Gen:      cfg.requests(img),
		}.Run(s, mi)
		if err != nil {
			return 0, err
		}
		return res.Throughput.PerSecond(), nil
	}

	var out []ScaleOutPoint
	var single float64
	for _, workers := range []int{1, 2, 4} {
		tput, err := run(workers)
		if err != nil {
			return nil, fmt.Errorf("scaleout %d workers: %w", workers, err)
		}
		if workers == 1 {
			single = tput
		}
		eff := 1.0
		if single > 0 {
			eff = tput / (single * float64(workers))
		}
		out = append(out, ScaleOutPoint{Workers: workers, PerSecond: tput, Efficiency: eff})
	}
	return out, nil
}

// RenderScaleOut prints the scale-out series.
func RenderScaleOut(points []ScaleOutPoint) string {
	var b strings.Builder
	b.WriteString("Scale-out: image-transformer throughput vs worker NICs\n")
	for _, p := range points {
		fmt.Fprintf(&b, "  %d worker(s): %8.0f req/s  (%.0f%% scaling efficiency)\n",
			p.Workers, p.PerSecond, 100*p.Efficiency)
	}
	return b.String()
}
