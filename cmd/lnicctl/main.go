// Command lnicctl is the λ-NIC control CLI.
//
// Subcommands:
//
//	invoke   -gateway ADDR -workload NAME [-n COUNT] [-key K] [-page P]
//	         invoke a deployed lambda through the gateway and print
//	         latency statistics
//	compile  compile the benchmark workload set and print the optimizer
//	         trajectory (Figure 9), then, per lambda (plus the batch
//	         sweeper), whether a compiled image replays its NIC cost
//	         or executes it, and why
//	artifacts
//	         print the per-backend deployment artifact model (Table 4)
//	disasm   compile the benchmark workload set and print the optimized
//	         firmware's disassembly
//	compile-mcl FILE
//	         compile a lambda written in the C-like source language and
//	         print its size, disassembly, and static-assertion results
//	place    [-rounds N] [-store N] [-margin F]
//	         run the dynamic NIC/host placement engine through an
//	         in-memory diurnal load curve: every compiled workload
//	         starts on the NIC, the load ramp inflates observed NIC
//	         latency, and the engine migrates the worst-fitting
//	         lambdas to the host at peak and brings them back at
//	         trough; prints per-round scores, the move log, and the
//	         lnic_placement_* metric families
//	health   [-workers N] [-interval D] [-kill I] [-wait D]
//	         run an in-memory deployment with the failure-detection loop
//	         enabled, optionally crash-stop one worker, and print each
//	         worker's liveness, last-heartbeat age, and suspicion level
//	         plus the placement recorded in the control store
//	top      -targets m2=host:port,m3=host:port [-interval D] [-tenant T]
//	         scrape every daemon's monitoring endpoint twice, D apart,
//	         and print per-(nic, workload, tenant) request rates,
//	         errors, sheds, one-sided fast-path GET rates (1SIDED/S,
//	         from lnic_worker_bypass_total), and latency percentiles
//	         computed from the deltas; -tenant narrows the view to one
//	         tenant's rows including its gateway admission sheds
//	slo      -targets ... [-interval D] [-availability T] [-p99 D]
//	         [-p99-target T] [-tenant T]
//	         scrape the fleet twice and grade the interval against
//	         availability and p99-latency objectives: good fraction,
//	         error-budget burn rate, met/violated; -tenant grades one
//	         tenant's traffic only, counting its admission sheds as
//	         availability bad events
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"lambdanic"
	"lambdanic/internal/core"
	"lambdanic/internal/experiments"
	"lambdanic/internal/healthd"
	"lambdanic/internal/matchlambda"
	"lambdanic/internal/mcc"
	"lambdanic/internal/mcl"
	"lambdanic/internal/metrics"
	"lambdanic/internal/monitor"
	"lambdanic/internal/placement"
	"lambdanic/internal/telemetry"
	"lambdanic/internal/transport"
	"lambdanic/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lnicctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: lnicctl <invoke|compile|artifacts|health|place|top|slo> [flags]")
	}
	switch args[0] {
	case "invoke":
		return invoke(args[1:])
	case "health":
		return health(args[1:])
	case "place":
		return place(args[1:])
	case "top":
		return top(args[1:])
	case "slo":
		return slo(args[1:])
	case "compile":
		return compile()
	case "artifacts":
		return artifacts()
	case "disasm":
		return disasm()
	case "compile-mcl":
		return compileMCL(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// health runs the failure-detection loop end to end on an in-memory
// deployment: workers heartbeat into the control store, an optionally
// crash-stopped worker goes silent, the detector walks alive → suspect
// → dead, and the manager evicts it from the placement. The final
// table shows each worker's liveness, last-heartbeat age, and phi
// score, followed by the placement read back from the control store.
func health(args []string) error {
	fs := flag.NewFlagSet("health", flag.ContinueOnError)
	workers := fs.Int("workers", 3, "number of worker nodes")
	interval := fs.Duration("interval", 25*time.Millisecond, "heartbeat interval")
	kill := fs.Int("kill", 0, "crash-stop this worker index (-1: leave all alive)")
	wait := fs.Duration("wait", 10*time.Second, "detection deadline")
	seed := fs.Int64("seed", 42, "network seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *kill >= *workers {
		return fmt.Errorf("worker index %d out of range (0..%d)", *kill, *workers-1)
	}

	d, err := lambdanic.NewDeployment(lambdanic.DeploymentConfig{
		Workers: *workers, Seed: *seed,
		Health: true, HealthInterval: *interval,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	w := workloads.WebServer()
	if err := d.Deploy(w); err != nil {
		return err
	}

	// Wait until every worker has beaten at least once so the detector
	// knows the whole fleet before we start killing it.
	deadline := time.Now().Add(*wait)
	for time.Now().Before(deadline) && len(d.HealthReport()) < *workers {
		time.Sleep(*interval / 2)
	}

	if *kill >= 0 {
		if err := d.KillWorker(*kill); err != nil {
			return err
		}
		victim := fmt.Sprintf("m%d", *kill+2)
		fmt.Printf("crash-stopped %s; waiting for the detector...\n", victim)
		for time.Now().Before(deadline) && d.Health().Status(victim) != healthd.StatusDead {
			time.Sleep(*interval / 2)
		}
		if d.Health().Status(victim) != healthd.StatusDead {
			return fmt.Errorf("%s not declared dead within %s", victim, *wait)
		}
	}

	fmt.Printf("%-8s %-8s %5s %5s %12s %8s\n", "WORKER", "STATUS", "SEQ", "LOAD", "LAST-BEAT", "PHI")
	for _, h := range d.HealthReport() {
		fmt.Printf("%-8s %-8s %5d %5d %12s %8.2f\n",
			h.Worker, h.Status, h.Seq, h.Load, h.Age.Round(time.Millisecond), h.Phi)
	}
	p, err := d.Manager().Placement(w.Name)
	if err != nil {
		return err
	}
	fmt.Printf("placement %s (id %d): %v\n", p.Workload, p.ID, p.Workers)
	fmt.Printf("gateway live workers: %d\n", d.Gateway().LiveWorkers())
	return nil
}

// instantFabric is the place demo's migration fabric: warm-up and
// drain complete immediately, so every decision lands within the
// round that issued it.
type instantFabric struct{}

func (instantFabric) Warm(_ string, _ placement.Location, ready func())    { ready() }
func (instantFabric) Cutover(string, placement.Location)                   {}
func (instantFabric) Drain(_ string, _ placement.Location, drained func()) { drained() }

// place drives the placement engine through a scripted diurnal load
// curve on an in-memory fleet. Observed NIC latency inflates with the
// load (the NPU pool serializes under queueing) while the deep host
// pool keeps its interpreter-speed baseline, so the engine evacuates
// the NIC at peak and repatriates at trough — the same control loop
// the boundary experiment measures, inspectable one round at a time.
func place(args []string) error {
	fs := flag.NewFlagSet("place", flag.ContinueOnError)
	rounds := fs.Int("rounds", 8, "control-loop rounds across the load curve")
	store := fs.Int("store", 16384, "per-core NIC instruction store budget")
	margin := fs.Float64("margin", 0.15, "hysteresis margin before a move is issued")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rounds < 2 {
		return fmt.Errorf("-rounds %d: need at least 2", *rounds)
	}

	eng := placement.New(placement.Config{
		InstrStorePerCore: *store,
		Margin:            *margin,
		LatencyAlpha:      1, // the demo feeds exact observations, not noisy samples
		MinDwell:          time.Second,
		MaxMoves:          1, // show the severity ordering one move at a time
	})
	type demoWL struct {
		name     string
		nicBase  time.Duration // unloaded NPU service time
		hostBase time.Duration // interpreter-path service time
	}
	var demo []demoWL
	for _, w := range workloads.DefaultSet() {
		exe, _, err := workloads.CompileOptimized([]*workloads.Workload{w}, workloads.NaiveProgramTarget)
		if err != nil {
			return err
		}
		fp := exe.Footprint()
		demo = append(demo, demoWL{
			name:     w.Name,
			nicBase:  time.Duration(fp.Instructions) * 2 * time.Nanosecond,
			hostBase: time.Duration(fp.Instructions) * 19 * time.Nanosecond,
		})
		eng.Register(w.Name, fp, placement.LocNIC)
	}
	reg := monitor.NewRegistry()
	if err := eng.EnableMetrics(reg); err != nil {
		return err
	}

	var now time.Duration
	coord := placement.NewCoordinator(eng, instantFabric{}, func() time.Duration { return now })

	const interval = 2 * time.Second
	fmt.Printf("%d workloads on a %d-instruction store, %d rounds, margin %.2f\n\n",
		len(demo), *store, *rounds, *margin)
	for i := 0; i < *rounds; i++ {
		now = time.Duration(i) * interval
		// Triangle diurnal curve: ramp 0.2 -> 2.0 -> 0.2 NIC load; the
		// host pool idles at 0.1 throughout.
		half := float64(*rounds-1) / 2
		load := 0.2 + 1.8*(1-abs(float64(i)-half)/half)
		eng.ObserveLoad(load, 0.1)
		for _, w := range demo {
			// Queueing inflates the serialized NPU path quadratically
			// with load; the host baseline holds.
			nicObs := time.Duration(float64(w.nicBase) * (1 + 4*load*load))
			eng.ObserveLatency(w.name, placement.LocNIC, nicObs)
			eng.ObserveLatency(w.name, placement.LocHost, w.hostBase)
		}
		moves := coord.Run(now)
		fmt.Printf("round %d (t=%s, nic load %.2f):\n", i, now, load)
		for _, s := range eng.Scores() {
			fmt.Printf("  %-18s %-9s score %+6.2f  fit %+5.2f  latgain %+5.2f  nic %-10s host %s\n",
				s.Workload, s.Loc, s.NICScore, s.Fit, s.LatencyGain, s.NICLatency, s.HostLatency)
		}
		for _, m := range moves {
			fmt.Printf("  -> move %s %s->%s (%s)\n", m.Workload, m.From, m.To, m.Reason)
		}
	}

	fmt.Printf("\nmove log (%d migrations):\n", eng.Migrations())
	for _, m := range eng.History() {
		fmt.Printf("  @%-6s %-18s %s->%s score %+.2f\n", m.At, m.Workload, m.From, m.To, m.Score)
	}
	fmt.Println("\nmetric families:")
	for _, line := range strings.Split(reg.Render(), "\n") {
		if strings.Contains(line, "lnic_placement") && !strings.HasPrefix(line, "# TYPE") {
			fmt.Println("  " + line)
		}
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// scrapeTwice collects the fleet's metrics pages at the ends of one
// observation interval; every fleet number is a delta between the two.
func scrapeTwice(spec string, interval time.Duration) (prev, cur telemetry.FleetSnapshot, err error) {
	if spec == "" {
		return prev, cur, fmt.Errorf("missing -targets (e.g. -targets m2=127.0.0.1:9102,gw=127.0.0.1:9100)")
	}
	targets, err := telemetry.ParseTargets(spec)
	if err != nil {
		return prev, cur, err
	}
	c := telemetry.NewCollector(targets)
	ctx := context.Background()
	prev = c.Collect(ctx)
	time.Sleep(interval)
	cur = c.Collect(ctx)
	return prev, cur, nil
}

// top is the live fleet view: per-(nic, workload) request rates,
// errors, and latency percentiles over one scrape interval.
func top(args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: lnicctl top -targets nic=host:port,... [-interval D] [-tenant T]")
		fs.PrintDefaults()
	}
	targets := fs.String("targets", "", "comma-separated nic=host:port scrape targets (-metrics endpoints)")
	interval := fs.Duration("interval", 2*time.Second, "observation interval between the two scrapes")
	tenantName := fs.String("tenant", "", "show only this tenant's rows (and its admission sheds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prev, cur, err := scrapeTwice(*targets, *interval)
	if err != nil {
		return err
	}
	rows := telemetry.FilterTenant(telemetry.FleetRows(prev, cur, *interval), *tenantName)
	fmt.Print(telemetry.RenderTop(rows, *interval))
	return nil
}

// slo grades one observation interval of fleet traffic against
// availability and tail-latency objectives.
func slo(args []string) error {
	fs := flag.NewFlagSet("slo", flag.ContinueOnError)
	targets := fs.String("targets", "", "comma-separated nic=host:port scrape targets (-metrics endpoints)")
	interval := fs.Duration("interval", 2*time.Second, "observation interval between the two scrapes")
	availability := fs.Float64("availability", 0.999, "availability objective target (0..1)")
	p99 := fs.Duration("p99", time.Millisecond, "latency objective threshold")
	p99Target := fs.Float64("p99-target", 0.99, "fraction of requests that must finish within -p99")
	tenantName := fs.String("tenant", "", "grade only this tenant's traffic (sheds count against availability)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prev, cur, err := scrapeTwice(*targets, *interval)
	if err != nil {
		return err
	}
	statuses, err := telemetry.FleetSLOTenant(prev, cur, []telemetry.Objective{
		{Name: "availability", Kind: telemetry.ObjectiveAvailability, Target: *availability},
		{Name: "p99-latency", Kind: telemetry.ObjectiveLatency, Target: *p99Target, Threshold: *p99},
	}, *tenantName)
	if err != nil {
		return err
	}
	fmt.Print(telemetry.RenderSLO(statuses, *interval))
	return nil
}

func disasm() error {
	naive, err := workloads.BuildNaiveProgram(workloads.DefaultSet(), workloads.NaiveProgramTarget)
	if err != nil {
		return err
	}
	opt, _, err := mcc.Optimize(naive, mcc.AllPasses())
	if err != nil {
		return err
	}
	fmt.Print(opt.Disassemble())
	return nil
}

func compileMCL(args []string) error {
	fs := flag.NewFlagSet("compile-mcl", flag.ContinueOnError)
	entry := fs.String("entry", "", "entry function (defaults to the first function)")
	id := fs.Uint("id", 100, "workload id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: lnicctl compile-mcl [-entry F] [-id N] FILE")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	file, err := mcl.Parse(string(src))
	if err != nil {
		return err
	}
	entryName := *entry
	if entryName == "" {
		if len(file.Funcs) == 0 {
			return fmt.Errorf("no functions in %s", fs.Arg(0))
		}
		entryName = file.Funcs[0].Name
	}
	spec, err := mcl.CompileLambda(entryName, uint32(*id), entryName, string(src), nil)
	if err != nil {
		return err
	}
	prog, err := matchlambda.Compose([]*matchlambda.LambdaSpec{spec}, matchlambda.ComposeOptions{})
	if err != nil {
		return err
	}
	if violations := mcc.StaticCheck(prog); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v.Error())
		}
		return fmt.Errorf("%d static assertion(s) failed", len(violations))
	}
	opt, passes, err := mcc.Optimize(prog, mcc.AllPasses())
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderFigure9(passes))
	fmt.Print(opt.Disassemble())
	return nil
}

func invoke(args []string) error {
	fs := flag.NewFlagSet("invoke", flag.ContinueOnError)
	gatewayAddr := fs.String("gateway", "127.0.0.1:8080", "gateway UDP address")
	name := fs.String("workload", "web", "workload: web, kvget, kvset, image")
	count := fs.Int("n", 1, "number of requests")
	key := fs.Int("key", 0, "key index for the kv clients")
	page := fs.Int("page", 0, "page id for the web server")
	imgW := fs.Int("image-width", 64, "image width")
	imgH := fs.Int("image-height", 64, "image height")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var w *workloads.Workload
	var seedIdx int
	switch *name {
	case "web":
		w, seedIdx = workloads.WebServer(), *page
	case "kvget":
		w, seedIdx = workloads.KVGetClient(), *key
	case "kvset":
		w, seedIdx = workloads.KVSetClient(), *key
	case "image":
		w, seedIdx = workloads.ImageTransformer(*imgW, *imgH), 0
	default:
		return fmt.Errorf("unknown workload %q", *name)
	}

	addr, err := net.ResolveUDPAddr("udp", *gatewayAddr)
	if err != nil {
		return err
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ep := transport.NewEndpoint(conn, nil, transport.WithTimeout(*timeout), transport.WithRetries(3))
	defer ep.Close()

	var lat metrics.Sample
	for i := 0; i < *count; i++ {
		payload := w.MakeRequest(seedIdx + i)
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), *timeout*4)
		resp, err := ep.Call(ctx, addr, w.ID, payload)
		cancel()
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		lat.AddDuration(time.Since(start))
		if i == 0 {
			preview := resp
			if len(preview) > 80 {
				preview = preview[:80]
			}
			fmt.Printf("response (%d bytes): %q\n", len(resp), preview)
		}
	}
	fmt.Printf("%d requests to %s: %s\n", *count, w.Name, lat.Summarize())
	return nil
}

func compile() error {
	exe, results, err := workloads.CompileOptimized(workloads.DefaultSet(), workloads.NaiveProgramTarget)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderFigure9(results))
	fp := exe.Footprint()
	fmt.Printf("linked image: %d instructions, %d bytes of NIC memory (%.0f%% in fast levels)\n",
		fp.Instructions, fp.TotalMemoryBytes(), 100*fp.FastFraction())
	fmt.Println("replay decisions (a warm request, each lambda linked alone):")
	for _, w := range append(workloads.DefaultSet(), workloads.BatchSweeper()) {
		verdict, err := workloads.ExplainReplay(w)
		if err != nil {
			return err
		}
		fmt.Printf("  %-18s %s\n", w.Name, verdict)
	}
	return nil
}

func artifacts() error {
	exe, _, err := workloads.CompileOptimized(workloads.DefaultSet(), workloads.NaiveProgramTarget)
	if err != nil {
		return err
	}
	fmt.Println("Deployment artifacts (Table 4 model):")
	for _, kind := range []core.BackendKind{core.KindLambdaNIC, core.KindBareMetal, core.KindContainer} {
		a := core.BuildArtifact(kind, exe.StaticInstructions())
		fmt.Printf("  %-12s %6.1f MiB  startup %5.1fs (compile %.1fs, transfer %.3fs, install %.1fs, boot %.1fs)\n",
			a.Kind, a.SizeMiB, a.StartupTime().Seconds(),
			a.Compile.Seconds(), a.Transfer.Seconds(), a.Install.Seconds(), a.Boot.Seconds())
	}
	return nil
}
