package experiments

// Ablations of the design choices DESIGN.md calls out, plus the §7
// extensions the paper discusses:
//
//   - run-to-completion vs. CPU-style time slicing on NPU threads (D1);
//   - WFQ vs. the hardware's uniform dispatch at the NIC scheduler (D1);
//   - memory stratification on vs. off (D2, dynamic cycles);
//   - weakly-consistent delivery vs. a TCP-like per-request handshake (D3);
//   - gateway on the host vs. on a SmartNIC (§7 "accelerating other
//     forms of workloads");
//   - firmware swap with downtime vs. hitless updates (§7 "hot swapping
//     workloads").

import (
	"fmt"
	"time"

	"lambdanic/internal/backend"
	"lambdanic/internal/cluster"
	"lambdanic/internal/mcc"
	"lambdanic/internal/metrics"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/sim"
	"lambdanic/internal/trace"
	"lambdanic/internal/workloads"
)

// AblationResult compares two variants of one design choice.
type AblationResult struct {
	Name string
	// Variants in presentation order; Better names the paper's choice.
	Variants []AblationVariant
	Better   string
}

// AblationVariant is one side of an ablation.
type AblationVariant struct {
	Name string
	// Metric semantics depend on the ablation (latency summary,
	// throughput, cycles, or error count); Unit documents it.
	Value float64
	Unit  string
	// Latency, when the ablation measures a distribution.
	Latency metrics.Summary
}

// smallNIC returns a deliberately tiny NPU grid so scheduling effects
// are visible (the full 448 threads hide queueing entirely — which is
// itself the paper's point).
func smallNIC(tb cluster.Testbed) cluster.NICConfig {
	nic := tb.NIC
	nic.Islands = 1
	nic.CoresPerIsland = 2
	nic.ThreadsPerCore = 2
	return nic
}

// ablationSet is the mixed workload for scheduler ablations: short web
// requests sharing the NIC with long image transformations.
func ablationSet() []*workloads.Workload {
	return []*workloads.Workload{
		workloads.WebServer(),
		workloads.KVGetClient(),
		workloads.KVSetClient(),
		workloads.ImageTransformer(64, 64),
	}
}

// AblationRunToCompletion compares D1's run-to-completion execution
// against CPU-style time slicing on a small NPU grid under a mixed
// short/long workload. Preemption buys nothing (the work is the same)
// and pays a context-switch tax on every slice — the overhead the
// paper's design eliminates.
func AblationRunToCompletion(cfg Config) (*AblationResult, error) {
	run := func(preemptive bool) (metrics.Summary, sim.Time, error) {
		s := cfg.newSim()
		nicCfg := nicsim.Config{NIC: smallNIC(cfg.Testbed), Preemptive: preemptive}
		nic, err := nicsim.New(s, nicCfg)
		if err != nil {
			return metrics.Summary{}, 0, err
		}
		exe, _, err := workloads.CompileOptimized(ablationSet(), workloads.NaiveProgramTarget)
		if err != nil {
			return metrics.Summary{}, 0, err
		}
		if err := nic.Load(exe); err != nil {
			return metrics.Summary{}, 0, err
		}
		img := workloads.ImageTransformer(64, 64)
		web := workloads.WebServer()
		var lat metrics.Sample
		// Interleave long and short requests, all arriving together.
		for i := 0; i < 20; i++ {
			nic.Inject(&nicsim.Request{
				LambdaID: img.ID,
				Payload:  img.MakeRequest(i),
				Packets:  workloads.Packets(len(img.MakeRequest(i))),
			}, nil)
			start := s.Now()
			nic.Inject(&nicsim.Request{LambdaID: web.ID, Payload: web.MakeRequest(i), Packets: 1},
				func(nicsim.Response, error) { lat.AddDuration(s.Now() - start) })
		}
		if err := s.RunUntilIdle(); err != nil {
			return metrics.Summary{}, 0, err
		}
		return lat.Summarize(), s.Now(), nil
	}
	rtc, rtcMakespan, err := run(false)
	if err != nil {
		return nil, err
	}
	pre, preMakespan, err := run(true)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:   "run-to-completion vs time slicing (D1)",
		Better: "run-to-completion",
		Variants: []AblationVariant{
			{Name: "run-to-completion", Value: rtcMakespan.Seconds(), Unit: "makespan-s", Latency: rtc},
			{Name: "preemptive", Value: preMakespan.Seconds(), Unit: "makespan-s", Latency: pre},
		},
	}, nil
}

// AblationWFQ compares the hardware's uniform FIFO dispatch against
// λ-NIC's weighted fair queuing when a flood of long requests queues
// ahead of short interactive ones: WFQ keeps the short flow's latency
// bounded (§4.2.1 D1).
func AblationWFQ(cfg Config) (*AblationResult, error) {
	run := func(dispatch nicsim.Dispatch) (metrics.Summary, error) {
		s := cfg.newSim()
		nic, err := nicsim.New(s, nicsim.Config{NIC: smallNIC(cfg.Testbed), Dispatch: dispatch})
		if err != nil {
			return metrics.Summary{}, err
		}
		exe, _, err := workloads.CompileOptimized(ablationSet(), workloads.NaiveProgramTarget)
		if err != nil {
			return metrics.Summary{}, err
		}
		if err := nic.Load(exe); err != nil {
			return metrics.Summary{}, err
		}
		img := workloads.ImageTransformer(64, 64)
		web := workloads.WebServer()
		// The heavy flow floods first and saturates all threads...
		for i := 0; i < 40; i++ {
			payload := img.MakeRequest(i)
			nic.Inject(&nicsim.Request{
				LambdaID: img.ID, Payload: payload, Packets: workloads.Packets(len(payload)),
			}, nil)
		}
		// ...then the interactive flow arrives behind the backlog.
		var lat metrics.Sample
		for i := 0; i < 20; i++ {
			start := s.Now()
			nic.Inject(&nicsim.Request{LambdaID: web.ID, Payload: web.MakeRequest(i), Packets: 1},
				func(nicsim.Response, error) { lat.AddDuration(s.Now() - start) })
		}
		if err := s.RunUntilIdle(); err != nil {
			return metrics.Summary{}, err
		}
		return lat.Summarize(), nil
	}
	fifo, err := run(nicsim.DispatchUniform)
	if err != nil {
		return nil, err
	}
	wfq, err := run(nicsim.DispatchWFQ)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:   "WFQ vs uniform dispatch (D1)",
		Better: "wfq",
		Variants: []AblationVariant{
			{Name: "uniform-fifo", Value: fifo.P99, Unit: "web-p99-s", Latency: fifo},
			{Name: "wfq", Value: wfq.P99, Unit: "web-p99-s", Latency: wfq},
		},
	}, nil
}

// AblationMemoryStratification compares the dynamic cycle cost of the
// benchmark lambdas with and without the stratification pass (all
// objects left in EMEM): placement is where most of D2's benefit lives.
func AblationMemoryStratification(cfg Config) (*AblationResult, error) {
	cycles := func(stratify bool) (float64, error) {
		naive, err := workloads.BuildNaiveProgram(cfg.set(), workloads.NaiveProgramTarget)
		if err != nil {
			return 0, err
		}
		opt, _, err := mcc.Optimize(naive, mcc.OptimizeConfig{
			Coalesce: true, ReduceMatch: true, Stratify: stratify,
		})
		if err != nil {
			return 0, err
		}
		exe, err := mcc.Link(opt)
		if err != nil {
			return 0, err
		}
		total := uint64(0)
		for _, w := range []*workloads.Workload{workloads.WebServer(), workloads.KVGetClient()} {
			req := &nicsim.Request{LambdaID: w.ID, Payload: w.MakeRequest(1), Packets: 1}
			if _, err := exe.Execute(req); err != nil { // warm
				return 0, err
			}
			resp, err := exe.Execute(req)
			if err != nil {
				return 0, err
			}
			total += resp.Stats.Cycles(cfg.Testbed.NIC)
		}
		return float64(total), nil
	}
	off, err := cycles(false)
	if err != nil {
		return nil, err
	}
	on, err := cycles(true)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:   "memory stratification on vs off (D2)",
		Better: "stratified",
		Variants: []AblationVariant{
			{Name: "all-EMEM", Value: off, Unit: "cycles/web+kv"},
			{Name: "stratified", Value: on, Unit: "cycles/web+kv"},
		},
	}, nil
}

// AblationTransport compares D3's weakly-consistent single-shot RPC
// against a TCP-like transport that pays a connection handshake round
// trip plus NIC-side connection-state processing per request (the
// "strict, reliable, and in-order streaming delivery" serverless RPCs
// do not need, §4.2.1 D3).
func AblationTransport(cfg Config) (*AblationResult, error) {
	const tcpStateCycles = 1500 // connection setup/teardown on the NIC
	measure := func(tcpLike bool) (metrics.Summary, error) {
		s := cfg.newSim()
		b, err := backend.NewLambdaNIC(s, cfg.Testbed, nicsim.DispatchUniform)
		if err != nil {
			return metrics.Summary{}, err
		}
		if err := b.Deploy(cfg.set()); err != nil {
			return metrics.Summary{}, err
		}
		web := workloads.WebServer()
		handshake := 2 * cfg.Testbed.Link.OneWay(64) // SYN + SYN-ACK
		stateCost := sim.CyclesToDuration(tcpStateCycles, cfg.Testbed.NIC.ClockHz)
		var lat metrics.Sample
		issue := func(i int, done func()) {
			start := s.Now()
			fire := func() {
				b.Invoke(web.ID, web.MakeRequest(i), func(backend.Result) {
					lat.AddDuration(s.Now() - start)
					done()
				})
			}
			if tcpLike {
				s.Schedule(handshake+stateCost, fire)
			} else {
				fire()
			}
		}
		var next func(i int)
		next = func(i int) {
			if i >= 200 {
				return
			}
			issue(i, func() { next(i + 1) })
		}
		next(0)
		if err := s.RunUntilIdle(); err != nil {
			return metrics.Summary{}, err
		}
		return lat.Summarize(), nil
	}
	weak, err := measure(false)
	if err != nil {
		return nil, err
	}
	tcp, err := measure(true)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:   "weakly-consistent RPC vs TCP-like transport (D3)",
		Better: "weakly-consistent",
		Variants: []AblationVariant{
			{Name: "weakly-consistent", Value: weak.Mean, Unit: "web-mean-s", Latency: weak},
			{Name: "tcp-like", Value: tcp.Mean, Unit: "web-mean-s", Latency: tcp},
		},
	}, nil
}

// AblationGatewayOnNIC measures the §7 extension: moving the gateway
// itself onto a SmartNIC removes its host-software occupancy as the
// cluster throughput ceiling.
func AblationGatewayOnNIC(cfg Config) (*AblationResult, error) {
	// NIC-grade gateway occupancy: parse+match plus forwarding, ~300
	// cycles per request.
	nicOccupancy := sim.CyclesToDuration(300, cfg.Testbed.NIC.ClockHz)
	measure := func(latency, occupancy time.Duration) (float64, error) {
		s, b, err := cfg.newBackend(BackendLambdaNIC, cfg.set())
		if err != nil {
			return 0, err
		}
		gw := trace.NewGateway(s, b, latency, occupancy)
		web := workloads.WebServer()
		res, err := trace.ClosedLoop{
			Concurrency: cfg.Concurrency,
			Requests:    cfg.Fig7Requests,
			Warmup:      warmup,
			Gen:         trace.Fixed(web.ID, web.MakeRequest),
		}.Run(s, gw)
		if err != nil {
			return 0, err
		}
		return res.Throughput.PerSecond(), nil
	}
	host, err := measure(cfg.Testbed.Costs.GatewayLatency, cfg.Testbed.Costs.GatewayOccupancy)
	if err != nil {
		return nil, err
	}
	onNIC, err := measure(cfg.Testbed.Link.OneWay(256), nicOccupancy)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:   "gateway on host vs on SmartNIC (§7)",
		Better: "gateway-on-nic",
		Variants: []AblationVariant{
			{Name: "gateway-on-host", Value: host, Unit: "req/s"},
			{Name: "gateway-on-nic", Value: onNIC, Unit: "req/s"},
		},
	}, nil
}

// AblationHitlessSwap measures the §7 limitation: swapping firmware on
// current NICs drops the requests that arrive during the reload, while
// a hitless update (next-generation NICs) serves through it.
func AblationHitlessSwap(cfg Config) (*AblationResult, error) {
	run := func(downtime time.Duration) (float64, error) {
		s := cfg.newSim()
		nic, err := nicsim.New(s, nicsim.Config{NIC: cfg.Testbed.NIC, FirmwareSwapDowntime: downtime})
		if err != nil {
			return 0, err
		}
		exe, _, err := workloads.CompileOptimized(ablationSet(), workloads.NaiveProgramTarget)
		if err != nil {
			return 0, err
		}
		if err := nic.Load(exe); err != nil {
			return 0, err
		}
		web := workloads.WebServer()
		dropped := 0
		// A steady 1 kHz request stream for 2 simulated seconds...
		for i := 0; i < 2000; i++ {
			i := i
			s.ScheduleAt(sim.Time(i)*time.Millisecond, func() {
				nic.Inject(&nicsim.Request{LambdaID: web.ID, Payload: web.MakeRequest(i), Packets: 1},
					func(_ nicsim.Response, err error) {
						if err != nil {
							dropped++
						}
					})
			})
		}
		// ...with a firmware swap (a new lambda rollout) at t = 0.5 s.
		s.ScheduleAt(500*time.Millisecond, func() {
			exe2, _, err := workloads.CompileOptimized(ablationSet(), workloads.NaiveProgramTarget)
			if err != nil {
				return
			}
			if err := nic.Load(exe2); err != nil {
				return
			}
		})
		if err := s.RunUntilIdle(); err != nil {
			return 0, err
		}
		return float64(dropped), nil
	}
	withDowntime, err := run(800 * time.Millisecond)
	if err != nil {
		return nil, err
	}
	hitless, err := run(0)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:   "firmware swap downtime vs hitless update (§7)",
		Better: "hitless",
		Variants: []AblationVariant{
			{Name: "swap-downtime", Value: withDowntime, Unit: "dropped-requests"},
			{Name: "hitless", Value: hitless, Unit: "dropped-requests"},
		},
	}, nil
}

// Ablations runs every ablation.
func Ablations(cfg Config) ([]*AblationResult, error) {
	runs := []func(Config) (*AblationResult, error){
		AblationRunToCompletion,
		AblationWFQ,
		AblationMemoryStratification,
		AblationTransport,
		AblationGatewayOnNIC,
		AblationHitlessSwap,
	}
	var out []*AblationResult
	for _, run := range runs {
		r, err := run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderAblations prints ablation results.
func RenderAblations(results []*AblationResult) string {
	var b []byte
	for _, r := range results {
		b = append(b, fmt.Sprintf("Ablation: %s (paper's choice: %s)\n", r.Name, r.Better)...)
		for _, v := range r.Variants {
			b = append(b, fmt.Sprintf("  %-20s %14.4g %s\n", v.Name, v.Value, v.Unit)...)
		}
	}
	return string(b)
}
