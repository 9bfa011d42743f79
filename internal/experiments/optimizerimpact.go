package experiments

import (
	"fmt"
	"sort"
	"strings"

	"lambdanic/internal/mcc"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/sim"
	"lambdanic/internal/workloads"
)

// OptimizerImpact quantifies §6.4's closing claim: the optimizations
// "improv[e] latency by 6.3 µs (on average) or let additional lambdas
// fit within the program-size constraints of the Netronome SmartNIC".
type OptimizerImpact struct {
	// LatencySavedSeconds is the per-request latency the optimized
	// image saves over the naive one, averaged over the interactive
	// workloads.
	LatencySavedSeconds float64
	// NaiveFit and OptimizedFit are how many additional web-server
	// lambda variants fit in the 16 K instruction store alongside the
	// benchmark set, before and after optimization.
	NaiveFit, OptimizedFit int
}

// MeasureOptimizerImpact runs both halves of the claim.
func MeasureOptimizerImpact(cfg Config) (*OptimizerImpact, error) {
	set := cfg.set()
	naive, err := workloads.BuildNaiveProgram(set, workloads.NaiveProgramTarget)
	if err != nil {
		return nil, err
	}
	opt, _, err := mcc.Optimize(naive, mcc.AllPasses())
	if err != nil {
		return nil, err
	}

	// Latency saved: execute the interactive workloads warm on both
	// images and compare NIC service time.
	service := func(p *mcc.Program) (float64, error) {
		exe, err := mcc.Link(p)
		if err != nil {
			return 0, err
		}
		total := 0.0
		ws := []*workloads.Workload{workloads.WebServer(), workloads.KVGetClient(), workloads.KVSetClient()}
		for _, w := range ws {
			req := &nicsim.Request{LambdaID: w.ID, Payload: w.MakeRequest(1), Packets: 1}
			if _, err := exe.Execute(req); err != nil { // warm
				return 0, err
			}
			resp, err := exe.Execute(req)
			if err != nil {
				return 0, err
			}
			cycles := resp.Stats.Cycles(cfg.Testbed.NIC)
			total += sim.CyclesToDuration(cycles, cfg.Testbed.NIC.ClockHz).Seconds()
		}
		return total / float64(len(ws)), nil
	}
	naiveLat, err := service(naive)
	if err != nil {
		return nil, err
	}
	optLat, err := service(opt)
	if err != nil {
		return nil, err
	}

	naiveFit, err := marginalFit(cfg, set, false)
	if err != nil {
		return nil, err
	}
	optFit, err := marginalFit(cfg, set, true)
	if err != nil {
		return nil, err
	}
	return &OptimizerImpact{
		LatencySavedSeconds: naiveLat - optLat,
		NaiveFit:            naiveFit,
		OptimizedFit:        optFit,
	}, nil
}

// maxExtraLambdas caps marginalFit's count.
const maxExtraLambdas = 64

// marginalFit counts how many extra web-server lambdas, up to
// maxExtraLambdas, fit beside the padded benchmark image in the 16 K
// instruction store. Each extra lambda adds its true naive cost on top
// of the paper-scale 8,902-instruction base, so the image only grows
// with the count and a binary search finds the first count that
// overflows.
func marginalFit(cfg Config, set []*workloads.Workload, optimize bool) (int, error) {
	var err error
	n := sort.Search(maxExtraLambdas, func(extra int) bool {
		if err != nil {
			return true
		}
		var size int
		size, err = marginalSize(set, extra+1, optimize)
		return err != nil || size > cfg.Testbed.NIC.InstrStorePerCore
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// marginalSize is the static instruction count of the benchmark image
// plus extra web-server lambdas, optimized or naive.
func marginalSize(set []*workloads.Workload, extra int, optimize bool) (int, error) {
	ws := append([]*workloads.Workload{}, set...)
	for i := 0; i < extra; i++ {
		ws = append(ws, workloads.WebServerVariant(fmt.Sprintf("web_extra_%d", i), uint32(100+i)))
	}
	target := workloads.NaiveProgramTarget + marginalNaiveCost(ws, set)
	p, err := workloads.BuildNaiveProgram(ws, target)
	if err != nil {
		return 0, err
	}
	if optimize {
		p, _, err = mcc.Optimize(p, mcc.AllPasses())
		if err != nil {
			return 0, err
		}
	}
	return p.StaticInstructions(), nil
}

// marginalNaiveCost is the naive code size the extra lambdas bring:
// their entries, their private helpers, and their route tables.
func marginalNaiveCost(ws, base []*workloads.Workload) int {
	extra := 0
	for _, w := range ws[len(base):] {
		extra += w.Spec.Entry.Size()
		for _, h := range w.Spec.Helpers {
			extra += h.Size()
		}
		// Each naive lambda also brings a route table with its lookup
		// machinery (~30 instructions).
		extra += 30
	}
	return extra
}

// RenderOptimizerImpact prints the §6.4 claim measurements.
func RenderOptimizerImpact(r *OptimizerImpact) string {
	var b strings.Builder
	b.WriteString("Optimizer impact (§6.4 closing claim)\n")
	fmt.Fprintf(&b, "  latency saved per interactive request: %.2f µs (paper: 6.3 µs)\n",
		r.LatencySavedSeconds*1e6)
	fmt.Fprintf(&b, "  extra web lambdas fitting the 16K store: naive %d, optimized %d\n",
		r.NaiveFit, r.OptimizedFit)
	return b.String()
}
