package lambdanic

// Benchmarks of the extension experiments nothing else times: the
// ablations, scale-out, the load-latency curve and the SmartNIC classes.
// Each regenerates its experiment on the simulated testbed at a reduced
// configuration and reports its headline quantities as custom metrics.
// The paper's own tables and figures are timed by the sim_paper workload
// of bench/ (experiments.fig*_s / table*_s).

import (
	"testing"

	"lambdanic/internal/experiments"
)

// benchConfig returns the per-iteration experiment size.
func benchConfig() experiments.Config {
	return experiments.Quick()
}

// Ablation benches for the design choices DESIGN.md calls out (D1-D3)
// and the §7 extensions.

func BenchmarkAblationRunToCompletion(b *testing.B) {
	cfg := benchConfig()
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.AblationRunToCompletion(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Variants[1].Value/r.Variants[0].Value, "preemption-tax-x")
}

func BenchmarkAblationWFQ(b *testing.B) {
	cfg := benchConfig()
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.AblationWFQ(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Variants[0].Value/r.Variants[1].Value, "wfq-p99-gain-x")
}

func BenchmarkAblationMemoryStratification(b *testing.B) {
	cfg := benchConfig()
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.AblationMemoryStratification(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Variants[0].Value/r.Variants[1].Value, "cycles-saved-x")
}

func BenchmarkAblationTransport(b *testing.B) {
	cfg := benchConfig()
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.AblationTransport(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Variants[1].Value/r.Variants[0].Value, "tcp-overhead-x")
}

func BenchmarkAblationGatewayOnNIC(b *testing.B) {
	cfg := benchConfig()
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.AblationGatewayOnNIC(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Variants[1].Value/r.Variants[0].Value, "nic-gateway-gain-x")
}

func BenchmarkAblationHitlessSwap(b *testing.B) {
	cfg := benchConfig()
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.AblationHitlessSwap(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Variants[0].Value, "downtime-drops")
}

func BenchmarkScaleOut(b *testing.B) {
	cfg := benchConfig()
	var points []experiments.ScaleOutPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.ScaleOut(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Workers == 4 {
			b.ReportMetric(p.PerSecond, "4worker-req/s")
			b.ReportMetric(100*p.Efficiency, "scaling-eff-pct")
		}
	}
}

func BenchmarkLoadLatencyCurve(b *testing.B) {
	cfg := benchConfig()
	var points []experiments.LoadPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.LoadLatencyCurve(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the knee ratio: bare-metal p99 at max vs min load.
	var bareFirst, bareLast float64
	for _, p := range points {
		if p.Backend == experiments.BackendBareMetal {
			if bareFirst == 0 {
				bareFirst = p.P99
			}
			bareLast = p.P99
		}
	}
	b.ReportMetric(bareLast/bareFirst, "bare-knee-x")
}

func BenchmarkSmartNICClasses(b *testing.B) {
	cfg := benchConfig()
	var results []experiments.NICClassResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.SmartNICClasses(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		switch r.Class {
		case "ASIC-based":
			b.ReportMetric(r.WebThroughput, "asic-req/s")
		case "SoC-based":
			b.ReportMetric(r.WebLatency.P50*1e6, "soc-p50-us")
		}
	}
}
