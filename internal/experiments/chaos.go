package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"lambdanic/internal/backend"
	"lambdanic/internal/core"
	"lambdanic/internal/faults"
	"lambdanic/internal/healthd"
	"lambdanic/internal/metrics"
	"lambdanic/internal/monitor"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/obs"
	"lambdanic/internal/sim"
	"lambdanic/internal/workloads"
)

// The chaos experiment closes the fault-tolerance loop end to end in
// virtual time: a worker-NIC fleet serves open-loop Poisson load
// through a failover router while workers heartbeat into the real
// control store (core.Manager over raftkv); a scripted fault timeline
// crash-stops one NIC mid-run; healthd's detector declares it dead from
// heartbeat silence; the manager evicts it and re-runs DRF placement
// over the survivors; and the router picks the shrunk route up through
// the placement watch. The report buckets every request into
// before/during/after phases around the kill and eviction instants, so
// availability, error rate, and tail latency show the outage window and
// the recovery — the serverless provider's view of the §7 failure
// story.

// ChaosConfig sizes the chaos experiment.
type ChaosConfig struct {
	// Workers is the worker-NIC fleet size (default 4, the testbed).
	Workers int
	// RatePerSec is the open-loop offered load (default 20,000 req/s).
	RatePerSec float64
	// Duration is the virtual run length (default 900 ms); the victim
	// NIC crash-stops at a third of it.
	Duration time.Duration
	// HeartbeatInterval is the worker beat and detector check period
	// (default 10 ms).
	HeartbeatInterval time.Duration
	// TraceSampleEvery keeps one request trace in every n (default 20).
	TraceSampleEvery int
}

// DefaultChaos returns the full-size chaos experiment.
func DefaultChaos() ChaosConfig {
	return ChaosConfig{
		Workers:           4,
		RatePerSec:        20_000,
		Duration:          900 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
		TraceSampleEvery:  20,
	}
}

// QuickChaos returns a reduced configuration for tests and smoke runs.
func QuickChaos() ChaosConfig {
	cfg := DefaultChaos()
	cfg.RatePerSec = 8_000
	cfg.Duration = 240 * time.Millisecond
	cfg.HeartbeatInterval = 5 * time.Millisecond
	cfg.TraceSampleEvery = 1
	return cfg
}

// ChaosPhase summarizes the requests issued during one phase of the
// run.
type ChaosPhase struct {
	Name     string
	Start    time.Duration
	End      time.Duration
	Requests int
	Errors   int
	// Availability is the fraction of issued requests answered
	// successfully (failovers count as success — the client got a
	// response).
	Availability float64
	P50, P99     time.Duration
}

// ChaosReport is the chaos experiment's outcome.
type ChaosReport struct {
	// Phases are before (healthy fleet), during (NIC dead, not yet
	// evicted), and after (survivors only), bucketed by request start.
	Phases []ChaosPhase
	// Killed names the crashed worker.
	Killed string
	// KillAt and EvictedAt are the crash and eviction instants.
	KillAt    time.Duration
	EvictedAt time.Duration
	// RecoveryIntervals is the detection+eviction delay in heartbeat
	// intervals; the detector's design bound is
	// healthd.DefaultEvictAfter+2 (DESIGN.md "Fault tolerance").
	RecoveryIntervals float64
	HeartbeatInterval time.Duration
	// Failovers counts router retries onto another worker.
	Failovers uint64
	// Transitions is the detector's status-change log.
	Transitions []healthd.Transition
	// Survivors is the placement after eviction.
	Survivors []string
	// Executed is the total number of simulation events fired and
	// FinalClock the virtual time of the last one: the run's determinism
	// fingerprint, identical across queue kernels.
	Executed   uint64
	FinalClock time.Duration
	// Requests and Marks feed the Chrome trace export; fault events
	// appear as global instant markers.
	Requests []*obs.Req
	Marks    []obs.Mark
	// SLO is the telemetry plane's judgment of the same run: objectives
	// sampled every heartbeat interval over a rolling window on the
	// simulation's virtual clock. The latency burn rate spikes during
	// the outage (failovers add an attempt timeout to every request that
	// first hits the dead NIC) and decays back once the window clears
	// the eviction.
	SLO *monitor.SLOReport
}

// Chaos SLO objectives: the provider promises three nines of
// availability and a p99 no worse than one attempt timeout (a request
// that fails over has necessarily waited at least that long).
const (
	chaosAvailabilityTarget = 0.999
	chaosLatencyQuantile    = 0.99
)

// The chaos router's attempt policy. chaosAttemptTimeout bounds one
// routed attempt: a crashed NIC is a black hole, so the timeout is the
// only failure signal. chaosAttempts is the per-request budget.
const (
	chaosAttemptTimeout = 500 * time.Microsecond
	chaosAttempts       = 3
)

// chaosRouter spreads requests round-robin over the placed workers with
// a per-attempt timeout and failover — the gateway's weakly-consistent
// delivery (D3) against a fleet that can lose members mid-run. Routes
// come from the control store's placement watch. A crashed worker is a
// black hole — its round trip never completes — so the per-attempt
// timeout is the only failure signal.
type chaosRouter struct {
	s    *sim.Sim
	nics map[string]*backend.LambdaNIC

	workers   []string
	next      int
	failovers uint64
}

var errChaosNoRoute = errors.New("experiments: no live workers")
var errChaosTimeout = errors.New("experiments: attempts exhausted")

// setWorkers installs a new route (deduplicated, order preserved).
func (r *chaosRouter) setWorkers(ws []string) {
	seen := make(map[string]bool, len(ws))
	out := ws[:0:0]
	for _, w := range ws {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	r.workers = out
}

func (r *chaosRouter) invoke(id uint32, payload []byte, tr *obs.Req, attempt int, done func(backend.Result)) {
	if len(r.workers) == 0 {
		done(backend.Result{Err: errChaosNoRoute})
		return
	}
	name := r.workers[r.next%len(r.workers)]
	r.next++
	finished := false
	var timer *sim.Event
	fail := func(err error) {
		if attempt+1 < chaosAttempts {
			r.failovers++
			tr.Mark(obs.StageTransport, "router", "failover:"+name, r.s.Now())
			r.invoke(id, payload, tr, attempt+1, done)
			return
		}
		done(backend.Result{Err: err})
	}
	r.nics[name].InvokeTraced(id, payload, tr, func(res backend.Result) {
		if finished {
			// A late response after the attempt timed out: the router
			// has already failed over.
			return
		}
		finished = true
		r.s.Cancel(timer)
		if res.Err != nil {
			fail(res.Err)
			return
		}
		done(res)
	})
	if !finished {
		timer = r.s.Schedule(chaosAttemptTimeout, func() {
			if finished {
				return
			}
			finished = true
			fail(errChaosTimeout)
		})
	}
}

// chaosSample is one completed request for phase bucketing.
type chaosSample struct {
	start   sim.Time
	latency time.Duration
	failed  bool
}

// Chaos runs the chaos experiment (see the comment at the top of this
// file) and returns the phase report.
func Chaos(cfg Config, ch ChaosConfig) (*ChaosReport, error) {
	web := workloads.WebServer()
	r, err := newRack(cfg, cfg.Testbed, ch.Workers,
		nicsim.Config{Dispatch: nicsim.DispatchUniform}, []*workloads.Workload{web})
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	s, names := r.sim, r.names
	collector := obs.NewCollector(func() time.Duration { return s.Now() },
		obs.WithSampleEvery(ch.TraceSampleEvery))

	// Control plane: the real manager over the Raft-backed store, with
	// fleet capacity and per-replica demands sized so DRF places one
	// replica per worker — eviction shrinks both capacity and plan.
	mgr, err := core.NewManager(3, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if _, err := mgr.Register(web); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	perThreads := float64(cfg.Testbed.NIC.NPUThreads())
	const perMemMB = 2000.0
	mgr.SetFleet(core.FleetCapacity{
		Threads:  perThreads * float64(ch.Workers),
		MemoryMB: perMemMB * float64(ch.Workers),
		Workers:  names,
	}, []core.WorkloadDemand{{
		Workload:           web,
		ThreadsPerReplica:  perThreads,
		MemoryMBPerReplica: perMemMB,
	}})

	router := &chaosRouter{s: s, nics: r.nics}
	mgr.WatchPlacements(func(p core.Placement) {
		if p.Workload == web.Name {
			router.setWorkers(p.Workers)
		}
	})
	if err := mgr.RecordPlacement(web.Name, names); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}

	rep := &ChaosReport{HeartbeatInterval: ch.HeartbeatInterval}
	end := sim.Time(ch.Duration)

	// The telemetry plane rides the run on the virtual clock: a rolling
	// window of a few heartbeat intervals, graded against the provider's
	// objectives at every detector check. The sampling piggybacks on the
	// existing check event, so it adds nothing to the event count.
	slo, err := monitor.NewSLOTracker(ch.HeartbeatInterval,
		monitor.Objective{
			Name: "availability", Kind: monitor.ObjectiveAvailability,
			Target: chaosAvailabilityTarget,
		},
		monitor.Objective{
			Name: "p99-latency", Kind: monitor.ObjectiveLatency,
			Target: chaosLatencyQuantile, Threshold: chaosAttemptTimeout,
		},
	)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}

	// Heartbeats: each worker publishes into the control store every
	// interval — the virtual-time twin of healthd.Heartbeater. A killed
	// worker falls silent; that silence IS the failure signal.
	killed := make(map[string]bool, ch.Workers)
	for _, name := range names {
		name := name
		var beat func(seq uint64)
		beat = func(seq uint64) {
			if !killed[name] {
				if err := mgr.PutHealth(healthd.Heartbeat{Worker: name, Seq: seq}); err != nil {
					return
				}
			}
			if s.Now() < end {
				s.Schedule(ch.HeartbeatInterval, func() { beat(seq + 1) })
			}
		}
		beat(1)
	}

	// Detection: the manager-side check cycle, scheduled every interval
	// — the virtual-time twin of healthd.Daemon.Poll. A Dead transition
	// evicts the worker, which re-runs DRF placement and flows the
	// shrunk route to the router through the placement watch.
	det := healthd.NewDetector(ch.HeartbeatInterval)
	var check func()
	var checkEv *sim.Event
	check = func() {
		now := s.Now()
		slo.Sample(now)
		if hbs, err := mgr.HealthSnapshot(); err == nil {
			for _, hb := range hbs {
				if tr := det.Observe(hb, now); tr != nil {
					rep.Transitions = append(rep.Transitions, *tr)
				}
			}
		}
		for _, tr := range det.Check(now) {
			rep.Transitions = append(rep.Transitions, tr)
			if tr.To != healthd.StatusDead {
				continue
			}
			if err := mgr.EvictWorker(tr.Worker); err == nil && rep.EvictedAt == 0 {
				rep.EvictedAt = now
				collector.MarkEvent("faults", "evict:"+tr.Worker, now)
			}
		}
		if now < end {
			// Re-arm the same event instead of allocating a fresh one
			// each cycle (sim.Reschedule's fired-event fast path).
			checkEv = s.Reschedule(checkEv, ch.HeartbeatInterval)
		}
	}
	checkEv = s.Schedule(ch.HeartbeatInterval, check)

	// The scripted fault: the timing-layer timeline crash-stops the
	// victim NIC mid-run. The crash is a black hole — in-flight and
	// future requests vanish without completions, and heartbeats stop.
	victim := names[0]
	rep.Killed = victim
	timeline := &faults.Timeline{Faults: []faults.SimFault{
		{At: sim.Time(ch.Duration / 3), Kind: faults.FaultNICCrash, Target: victim},
	}}
	// Each fault costs exactly two scheduled events (the event count is
	// part of the fingerprint): the device-side application, and a
	// control-side mirror that suppresses the victim's heartbeats and
	// stamps the report. The crash itself signals nothing — it is a
	// silent black hole — so only the heartbeat silence carries the
	// failure to the detector.
	for _, f := range timeline.Sorted() {
		f := f
		s.At(f.At, func() {
			nic := r.nics[f.Target].NIC()
			switch f.Kind {
			case faults.FaultNICCrash:
				nic.Crash()
			case faults.FaultNICRecover:
				nic.Recover()
			case faults.FaultDegrade:
				nic.SetSlowdown(f.Factor)
			}
		})
		s.At(f.At, func() {
			switch f.Kind {
			case faults.FaultNICCrash:
				killed[f.Target] = true
				rep.KillAt = s.Now()
				collector.MarkEvent("faults", f.Kind.String()+":"+f.Target, s.Now())
			case faults.FaultNICRecover:
				killed[f.Target] = false
			}
		})
	}

	// Open-loop Poisson load over the whole run. Arrival times are
	// drawn up front from the simulation's seeded source, so the
	// schedule — and with it every verdict downstream — is a pure
	// function of the seed.
	rng := s.Rand()
	var arrivals []sim.Time
	for at := sim.Time(0); at < end; at += sim.Time(rng.ExpFloat64() / ch.RatePerSec * float64(time.Second)) {
		arrivals = append(arrivals, at)
	}
	samples := make([]chaosSample, 0, len(arrivals))
	s.AtEach(len(arrivals), func(i int) sim.Time { return arrivals[i] }, func(i int) {
		start := s.Now()
		tr := collector.Begin(web.ID, web.Name)
		router.invoke(web.ID, web.MakeRequest(i), tr, 0, func(res backend.Result) {
			tr.Finish(s.Now(), res.Err)
			slo.Observe(s.Now()-start, res.Err != nil)
			samples = append(samples, chaosSample{
				start:   start,
				latency: s.Now() - start,
				failed:  res.Err != nil,
			})
		})
	})

	rep.Executed, rep.FinalClock, err = r.run()
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if rep.KillAt == 0 {
		return nil, errors.New("chaos: kill never fired")
	}
	if rep.EvictedAt == 0 {
		return nil, fmt.Errorf("chaos: %s was never evicted (detector: %+v)",
			victim, det.Snapshot(s.Now()))
	}
	rep.RecoveryIntervals = float64(rep.EvictedAt-rep.KillAt) / float64(ch.HeartbeatInterval)
	if p, err := mgr.Placement(web.Name); err == nil {
		rep.Survivors = p.Workers
	}
	rep.Failovers = router.failovers
	rep.Requests = collector.Requests()
	rep.Marks = collector.Marks()
	sloReport := slo.Report()
	rep.SLO = &sloReport

	// Phase bucketing by request start time.
	bounds := []struct {
		name       string
		start, end sim.Time
	}{
		{"before", 0, rep.KillAt},
		{"during", rep.KillAt, rep.EvictedAt},
		{"after", rep.EvictedAt, end},
	}
	for _, b := range bounds {
		var lat metrics.Sample
		phase := ChaosPhase{Name: b.name, Start: b.start, End: b.end}
		for _, sm := range samples {
			if sm.start < b.start || sm.start >= b.end {
				continue
			}
			phase.Requests++
			if sm.failed {
				phase.Errors++
			} else {
				lat.AddDuration(sm.latency)
			}
		}
		if phase.Requests > 0 {
			phase.Availability = float64(phase.Requests-phase.Errors) / float64(phase.Requests)
		}
		phase.P50 = time.Duration(lat.P50() * float64(time.Second))
		phase.P99 = time.Duration(lat.P99() * float64(time.Second))
		rep.Phases = append(rep.Phases, phase)
	}
	return rep, nil
}

// RenderChaos prints the chaos report.
func RenderChaos(rep *ChaosReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos: %s crash-stopped at %v, evicted at %v (%.1f heartbeat intervals, %d failovers)\n",
		rep.Killed, rep.KillAt, rep.EvictedAt, rep.RecoveryIntervals, rep.Failovers)
	fmt.Fprintf(&b, "  survivors: %s\n", strings.Join(rep.Survivors, " "))
	fmt.Fprintf(&b, "  %-7s %9s %7s %13s %11s %11s\n",
		"phase", "requests", "errors", "availability", "p50", "p99")
	for _, p := range rep.Phases {
		fmt.Fprintf(&b, "  %-7s %9d %7d %12.2f%% %11v %11v\n",
			p.Name, p.Requests, p.Errors, 100*p.Availability, p.P50, p.P99)
	}
	for _, tr := range rep.Transitions {
		fmt.Fprintf(&b, "  transition: %s %s -> %s at %v\n", tr.Worker, tr.From, tr.To, tr.At)
	}
	if rep.SLO != nil {
		for _, line := range strings.Split(strings.TrimRight(rep.SLO.Text(), "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}
