// Command lnic-bench runs the simulated-testbed experiments — the λ-NIC
// paper's evaluation (§6) and this repository's extension experiments —
// and prints their reports as text.
//
// Usage:
//
//	lnic-bench [-experiment NAME] [-quick] [-short] [-seed N]
//	           [-trace-out FILE] [-slo-out FILE]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// lnic-bench -h lists the experiment names. The default, all, runs the
// paper's tables and figures at the sizes recorded in EXPERIMENTS.md;
// -quick shrinks them. Files are written only where a flag names them.
// Every report runs on a virtual clock and repeats bit for bit; the
// tests hold each run they make byte for byte against testdata/*.golden.
// README.md describes each experiment, its verdict and its artefacts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"lambdanic/internal/experiments"
	"lambdanic/internal/obs"
	"lambdanic/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lnic-bench:", err)
		os.Exit(1)
	}
}

// options is what the flags hand every experiment.
type options struct {
	cfg experiments.Config
	// smoke selects the reduced configuration of the experiments that
	// have one of their own (-short or -quick).
	smoke bool
	// out receives every report.
	out io.Writer

	traceOut, sloOut string
}

// experiment is one -experiment value.
type experiment struct {
	name string
	// inAll marks the experiments "-experiment all" runs, in table order.
	inAll bool
	run   func(o *options) error
}

// experimentTable is every experiment the command knows; the flag help
// and the unknown-experiment error are generated from it.
var experimentTable = []experiment{
	{name: "table1", inAll: true, run: func(o *options) error {
		fmt.Fprintln(o.out, experiments.RenderTable1(experiments.Table1()))
		return nil
	}},
	{name: "fig6", inAll: true, run: show(experiments.Figure6, experiments.RenderFigure6)},
	{name: "fig7", inAll: true, run: show(experiments.Figure7, experiments.RenderFigure7)},
	{name: "fig8", inAll: true, run: show(experiments.Figure8Table2, experiments.RenderFigure8Table2)},
	{name: "table2", run: show(experiments.Figure8Table2, experiments.RenderFigure8Table2)},
	{name: "table3", inAll: true, run: show(experiments.Table3, experiments.RenderTable3)},
	{name: "table4", inAll: true, run: show(experiments.Table4, experiments.RenderTable4)},
	{name: "fig9", inAll: true, run: show(experiments.Figure9, experiments.RenderFigure9)},
	{name: "scaleout", inAll: true, run: show(experiments.ScaleOut, experiments.RenderScaleOut)},
	{name: "optimizer", inAll: true, run: show(experiments.MeasureOptimizerImpact, experiments.RenderOptimizerImpact)},
	{name: "loadcurve", inAll: true, run: show(experiments.LoadLatencyCurve, experiments.RenderLoadCurve)},
	{name: "nicclasses", inAll: true, run: show(experiments.SmartNICClasses, experiments.RenderNICClasses)},
	{name: "ablations", inAll: true, run: show(experiments.Ablations, experiments.RenderAblations)},
	{name: "breakdown", inAll: true, run: func(o *options) error {
		rep, err := experiments.LatencyBreakdown(o.cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(o.out, experiments.RenderLatencyBreakdown(rep))
		if o.traceOut == "" {
			return nil
		}
		if err := obs.WriteChromeTraceFile(o.traceOut, rep.Requests); err != nil {
			return err
		}
		fmt.Fprintf(o.out, "lnic-bench: wrote Chrome trace (%d requests) to %s\n",
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
		fmt.Fprintln(o.out, experiments.RenderChaos(rep))
		if err := o.sloReport(rep.SLO); err != nil {
			return err
		}
		if o.traceOut == "" {
			return nil
		}
		if err := obs.WriteChromeTraceFileWithMarks(o.traceOut, rep.Requests, rep.Marks); err != nil {
			return err
		}
		fmt.Fprintf(o.out, "lnic-bench: wrote Chrome trace (%d requests, %d fault marks) to %s\n",
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
		fmt.Fprintln(o.out, experiments.RenderTenants(rep))
		if err := o.sloReport(rep.SLO); err != nil {
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
		fmt.Fprintln(o.out, experiments.RenderSkew(rep))
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
		fmt.Fprintln(o.out, experiments.RenderBoundary(rep))
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
		rows, err := experiments.RdmaBench(o.cfg, rbCfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(o.out, experiments.RenderRdmaBench(rows))
		return nil
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
		fmt.Fprintln(o.out, render(r))
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

// run parses args, runs the selected experiments and writes their
// reports to stdout.
func run(args []string, stdout io.Writer) error {
	allNames := experimentNames(func(experiment) bool { return true })

	fs := flag.NewFlagSet("lnic-bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced sample counts and image size (implies -short)")
	short := fs.Bool("short", false,
		"smoke-size the experiments that -experiment all does not include")
	seed := fs.Int64("seed", 42, "simulation seed")
	name := fs.String("experiment", "all",
		"which experiment to run: all ("+
			experimentNames(func(e experiment) bool { return e.inAll })+") or one of "+allNames)
	traceOut := fs.String("trace-out", "",
		"write the breakdown or chaos experiment's Chrome trace-event JSON to this file")
	sloOut := fs.String("slo-out", "",
		"write the chaos or tenants experiment's SLO error-budget report JSON to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	o := &options{
		cfg:      experiments.Default(),
		smoke:    *short || *quick,
		out:      stdout,
		traceOut: *traceOut,
		sloOut:   *sloOut,
	}
	if *quick {
		o.cfg = experiments.Quick()
	}
	o.cfg.Seed = *seed

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

// sloReport writes an experiment's SLO error-budget timeline when
// -slo-out names a path.
func (o *options) sloReport(rep *telemetry.SLOReport) error {
	if o.sloOut == "" || rep == nil {
		return nil
	}
	data, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.sloOut, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(o.out, "lnic-bench: wrote SLO report (%d samples) to %s\n", len(rep.Samples), o.sloOut)
	return nil
}
