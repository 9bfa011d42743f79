// Command lnic-bench runs the simulated-testbed experiments — the λ-NIC
// paper's evaluation (§6) and this repository's extension experiments —
// and prints their reports as text.
//
// Usage:
//
//	lnic-bench [-experiment NAME] [-quick] [-short] [-seed N]
//	           [-kernel ladder|heap] [-parallel]
//	           [-trace-out FILE] [-bench-out FILE] [-bench-guard FILE] [-slo-out FILE]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// lnic-bench -h lists the experiment names. The default, all, runs the
// paper's tables and figures at the sizes recorded in EXPERIMENTS.md;
// -quick shrinks them. Files are written only where a flag names them.
// README.md describes each experiment, its verdict and its artefacts.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"lambdanic/internal/benchio"
	"lambdanic/internal/experiments"
	"lambdanic/internal/obs"
	"lambdanic/internal/sim"
	"lambdanic/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lnic-bench:", err)
		os.Exit(1)
	}
}

// options is what the flags hand every experiment.
type options struct {
	cfg experiments.Config
	// smoke selects the reduced configuration of the experiments that
	// have one of their own (-short or -quick).
	smoke    bool
	parallel bool

	traceOut, benchOut, benchGuard, sloOut string
}

// experiment is one -experiment value.
type experiment struct {
	name string
	// inAll marks the experiments "-experiment all" runs, in table order.
	inAll bool
	// parallel marks the experiments that honour -parallel.
	parallel bool
	run      func(o *options) error
}

// experimentTable is every experiment the command knows; the flag help
// and the unknown-experiment error are generated from it.
var experimentTable = []experiment{
	{name: "table1", inAll: true, run: func(*options) error {
		fmt.Println(experiments.RenderTable1(experiments.Table1()))
		return nil
	}},
	{name: "fig6", inAll: true, run: show(experiments.Figure6, experiments.RenderFigure6)},
	{name: "fig7", inAll: true, run: show(experiments.Figure7, experiments.RenderFigure7)},
	{name: "fig8", inAll: true, run: show(experiments.Figure8Table2, experiments.RenderFigure8Table2)},
	{name: "table2", run: show(experiments.Figure8Table2, experiments.RenderFigure8Table2)},
	{name: "table3", inAll: true, run: show(experiments.Table3, experiments.RenderTable3)},
	{name: "table4", inAll: true, run: show(experiments.Table4, experiments.RenderTable4)},
	{name: "fig9", inAll: true, run: show(experiments.Figure9, experiments.RenderFigure9)},
	{name: "scaleout", inAll: true, parallel: true, run: func(o *options) error {
		if o.parallel {
			return show(experiments.ParallelScaleOut, experiments.RenderScaleOut)(o)
		}
		return show(experiments.ScaleOut, experiments.RenderScaleOut)(o)
	}},
	{name: "optimizer", inAll: true, run: show(experiments.MeasureOptimizerImpact, experiments.RenderOptimizerImpact)},
	{name: "loadcurve", inAll: true, parallel: true, run: func(o *options) error {
		if o.parallel {
			return show(experiments.LoadLatencyCurveParallel, experiments.RenderLoadCurve)(o)
		}
		return show(experiments.LoadLatencyCurve, experiments.RenderLoadCurve)(o)
	}},
	{name: "nicclasses", inAll: true, run: show(experiments.SmartNICClasses, experiments.RenderNICClasses)},
	{name: "ablations", inAll: true, run: show(experiments.Ablations, experiments.RenderAblations)},
	{name: "breakdown", inAll: true, run: func(o *options) error {
		rep, err := experiments.LatencyBreakdown(o.cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderLatencyBreakdown(rep))
		if o.traceOut == "" {
			return nil
		}
		if err := obs.WriteChromeTraceFile(o.traceOut, rep.Requests); err != nil {
			return err
		}
		fmt.Printf("lnic-bench: wrote Chrome trace (%d requests) to %s\n",
			len(rep.Requests), o.traceOut)
		return nil
	}},
	{name: "chaos", run: func(o *options) error {
		chCfg := experiments.DefaultChaos()
		if o.smoke {
			chCfg = experiments.QuickChaos()
		}
		rep, err := experiments.Chaos(o.cfg, chCfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderChaos(rep))
		if err := sloReport(o.sloOut, rep.SLO); err != nil {
			return err
		}
		if o.traceOut == "" {
			return nil
		}
		if err := obs.WriteChromeTraceFileWithMarks(o.traceOut, rep.Requests, rep.Marks); err != nil {
			return err
		}
		fmt.Printf("lnic-bench: wrote Chrome trace (%d requests, %d fault marks) to %s\n",
			len(rep.Requests), len(rep.Marks), o.traceOut)
		return nil
	}},
	{name: "tenants", run: func(o *options) error {
		tnCfg := experiments.DefaultTenants()
		if o.smoke {
			tnCfg = experiments.QuickTenants()
		}
		rep, err := experiments.Tenants(o.cfg, tnCfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTenants(rep))
		if err := benchReport(o.benchOut, "", rep.Bench(), "", nil); err != nil {
			return err
		}
		if err := sloReport(o.sloOut, rep.SLO); err != nil {
			return err
		}
		if !rep.Isolated {
			return fmt.Errorf("tenants: isolation bound violated (interactive p99 during burst %v > %v, final burn %.2fx)",
				rep.DuringP99, rep.IsolationP99, rep.FinalBurn)
		}
		return nil
	}},
	{name: "skew", run: func(o *options) error {
		skCfg := experiments.DefaultSkew()
		if o.smoke {
			skCfg = experiments.QuickSkew()
		}
		rep, err := experiments.Skew(o.cfg, skCfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderSkew(rep))
		// Latencies are virtual-clock and thus machine-independent;
		// guard every policy's p99 directly, no normalization needed.
		if err := benchReport(o.benchOut, o.benchGuard, rep.Bench(),
			"skew p99s within 25%", func(baseline, current benchio.Report) error {
				return benchio.GuardLatency(baseline, current, 0.25, "skew/")
			}); err != nil {
			return err
		}
		if !rep.Affine {
			return fmt.Errorf("skew: affinity verdict not met (pinned+mig must beat rr on p99 and warm-hit rate)")
		}
		return nil
	}},
	{name: "boundary", run: func(o *options) error {
		bdCfg := experiments.DefaultBoundary()
		if o.smoke {
			bdCfg = experiments.QuickBoundary()
		}
		rep, err := experiments.Boundary(o.cfg, bdCfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderBoundary(rep))
		// Latencies are virtual-clock and thus machine-independent;
		// guard every per-policy and per-phase p99 directly.
		if err := benchReport(o.benchOut, o.benchGuard, rep.Bench(),
			"boundary p99s within 25%", func(baseline, current benchio.Report) error {
				return benchio.GuardLatency(baseline, current, 0.25, "boundary/")
			}); err != nil {
			return err
		}
		if !rep.Pareto {
			return fmt.Errorf("boundary: Pareto verdict not met (dynamic must match the better static tail per phase and burn less NIC-core·time than static-nic)")
		}
		return nil
	}},
	{name: "rdmabench", run: func(o *options) error {
		rbCfg := experiments.DefaultRdmaBench()
		if o.smoke {
			rbCfg = experiments.QuickRdmaBench()
		}
		rep, err := experiments.RdmaBench(o.cfg, rbCfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderRdmaBench(rep))
		// All rates are virtual-clock and thus machine-independent;
		// every kvget and large row is guarded, normalized to the
		// single-client lambda baseline.
		return benchReport(o.benchOut, o.benchGuard, rep,
			"rdmabench within 20%", func(baseline, current benchio.Report) error {
				return benchio.Guard(baseline, current, "kvget/lambda/c1", 0.20, "kvget/", "large/")
			})
	}},
	{name: "simbench", run: func(o *options) error {
		sbCfg := experiments.DefaultSimBench()
		if o.smoke {
			sbCfg = experiments.QuickSimBench()
		}
		rep := experiments.SimBench(o.cfg, sbCfg)
		fmt.Println(experiments.RenderSimBench(rep))
		// Raw rates are normalized to this run's sched/heap, so the
		// check holds across machines.
		return benchReport(o.benchOut, o.benchGuard, rep,
			"simbench within 20%", func(baseline, current benchio.Report) error {
				return benchio.Guard(baseline, current, "sched/heap", 0.20, "sched/", "timers/")
			})
	}},
}

// show adapts an experiment that only computes a result from the config
// and renders it as text.
func show[T any](compute func(experiments.Config) (T, error), render func(T) string) func(*options) error {
	return func(o *options) error {
		r, err := compute(o.cfg)
		if err != nil {
			return err
		}
		fmt.Println(render(r))
		return nil
	}
}

// experimentNames lists the table's names matching keep, comma-joined.
func experimentNames(keep func(experiment) bool) string {
	var names []string
	for _, e := range experimentTable {
		if keep(e) {
			names = append(names, e.name)
		}
	}
	return strings.Join(names, ", ")
}

func run(args []string) error {
	allNames := experimentNames(func(experiment) bool { return true })
	parallelNames := experimentNames(func(e experiment) bool { return e.parallel })

	fs := flag.NewFlagSet("lnic-bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced sample counts and image size (implies -short)")
	short := fs.Bool("short", false,
		"smoke-size the experiments that -experiment all does not include")
	seed := fs.Int64("seed", 42, "simulation seed")
	name := fs.String("experiment", "all",
		"which experiment to run: all ("+
			experimentNames(func(e experiment) bool { return e.inAll })+") or one of "+allNames)
	kernel := fs.String("kernel", "ladder",
		"simulation event-queue kernel: ladder or heap (bit-identical results)")
	parallel := fs.Bool("parallel", false,
		"run the independent sweep points of "+parallelNames+" concurrently (bit-identical results)")
	traceOut := fs.String("trace-out", "",
		"write the breakdown or chaos experiment's Chrome trace-event JSON to this file")
	benchOut := fs.String("bench-out", "",
		"write the tenants/skew/boundary/rdmabench/simbench JSON report to this file")
	benchGuard := fs.String("bench-guard", "",
		"fail if the skew/boundary/rdmabench/simbench report regresses against this baseline JSON")
	sloOut := fs.String("slo-out", "",
		"write the chaos or tenants experiment's SLO error-budget report JSON to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	o := &options{
		cfg:        experiments.Default(),
		smoke:      *short || *quick,
		parallel:   *parallel,
		traceOut:   *traceOut,
		benchOut:   *benchOut,
		benchGuard: *benchGuard,
		sloOut:     *sloOut,
	}
	if *quick {
		o.cfg = experiments.Quick()
	}
	o.cfg.Seed = *seed
	switch strings.ToLower(*kernel) {
	case "", "ladder":
		o.cfg.Kernel = sim.KernelLadder
	case "heap":
		o.cfg.Kernel = sim.KernelHeap
	default:
		return fmt.Errorf("unknown -kernel %q (want ladder or heap)", *kernel)
	}

	want := strings.ToLower(*name)
	var selected []experiment
	for _, e := range experimentTable {
		if e.name == want || (want == "all" && e.inAll) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q (want all or one of %s)", *name, allNames)
	}
	if o.parallel && !(len(selected) == 1 && selected[0].parallel) {
		return fmt.Errorf("-parallel applies only to -experiment %s", parallelNames)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lnic-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lnic-bench: memprofile:", err)
			}
		}()
	}

	for _, e := range selected {
		if err := e.run(o); err != nil {
			return err
		}
	}
	return nil
}

// benchReport is the shared artifact wiring every benchmark-producing
// experiment goes through: write the report when -bench-out names a
// path, then, when -bench-guard names a committed baseline and the
// experiment supplies a check, fail the run on regression. okMsg
// describes the passing guard, e.g. "skew p99s within 25%".
func benchReport(outPath, guardPath string, rep benchio.Report,
	okMsg string, check func(baseline, current benchio.Report) error) error {
	if outPath != "" {
		if err := benchio.WriteJSON(outPath, rep); err != nil {
			return err
		}
		fmt.Printf("lnic-bench: wrote %d benchmark results to %s\n",
			len(rep.Results), outPath)
	}
	if guardPath == "" || check == nil {
		return nil
	}
	baseline, err := benchio.ReadJSON(guardPath)
	if err != nil {
		return err
	}
	if err := check(baseline, rep); err != nil {
		return err
	}
	fmt.Printf("lnic-bench: %s of baseline %s\n", okMsg, guardPath)
	return nil
}

// sloReport writes an experiment's SLO error-budget timeline when
// -slo-out names a path.
func sloReport(path string, rep *telemetry.SLOReport) error {
	if path == "" || rep == nil {
		return nil
	}
	data, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("lnic-bench: wrote SLO report (%d samples) to %s\n", len(rep.Samples), path)
	return nil
}
