package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"lambdanic/internal/autoscale"
	"lambdanic/internal/backend"
	"lambdanic/internal/cluster"
	"lambdanic/internal/metrics"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/placement"
	"lambdanic/internal/sim"
	"lambdanic/internal/workloads"
)

// The boundary experiment measures what runtime NIC/host boundary
// scheduling buys over a boundary fixed at deploy time. A small rack of
// down-binned λ-NICs and one bare-metal host serve a mixed workload set
// through a diurnal load curve with a flash crowd at the morning ramp:
//
//	web    the paper's interactive web server (~µs of NPU time) — the
//	       lambda the NIC exists for;
//	mid    a mid-weight EMEM sweeper (~100 µs) — NIC-viable, host-
//	       infeasible at peak rate (the host's serialized dispatch path
//	       caps out in the low thousands of requests per second);
//	heavy  a long EMEM batch sweep (~ms of NPU time) with a low GIL
//	       fraction — the lambda the host is *better* at: its NPU
//	       residency burns whole cores per request, while the host's
//	       parallel compute pool absorbs it for one dispatch slot.
//
// Three policies consume the identical pre-drawn schedule:
//
//	static-nic   everything resident on the NIC rack, full rack always
//	             powered (the paper's deploy-time answer);
//	static-host  everything on the host (the serverful baseline);
//	dynamic      the placement engine: an autoscaler sizes the active
//	             NIC pool from the arrival rate, and when even the full
//	             rack saturates, the engine migrates the worst-fit
//	             lambda across the boundary (warm, cutover, drain),
//	             guided by shadow-probe latency evidence on the
//	             non-resident side.
//
// The verdict is a Pareto claim: the dynamic policy's p99 is no worse
// (within tolerance) than the better static policy in every phase of
// the curve, while its provisioned NIC-core·time is strictly lower than
// static-nic's. Fingerprints (event count, final clock) are
// bit-identical across sim kernels.

// Boundary placement policy names (also the benchmark row names).
const (
	BoundaryPolicyNIC  = "static-nic"
	BoundaryPolicyHost = "static-host"
	BoundaryPolicyDyn  = "dynamic"
)

// boundaryPhases are the reporting/verdict segments of the load curve.
var boundaryPhases = []string{"trough", "peak", "trough2"}

// Boundary workload IDs (21-23; the contention set owns 11-13).
const (
	boundaryWebID   uint32 = 21
	boundaryMidID   uint32 = 22
	boundaryHeavyID uint32 = 23
)

// BoundaryConfig sizes the dynamic-placement experiment.
type BoundaryConfig struct {
	// NICs is the rack size (default 4); each NIC is down-binned to
	// 1 island × 1 core × 2 threads so saturation shows at sane rates.
	NICs int
	// Phase durations: the curve is trough, then peak (whose first
	// CrowdDur carries the flash crowd), then a second trough.
	TroughDur, PeakDur, Trough2Dur, CrowdDur time.Duration
	// ProbeEvery is the shadow-probe period: per class and side, one
	// probe request keeps latency evidence fresh for the engine.
	ProbeEvery time.Duration
}

// The boundary experiment's fixed parameters, the same at every size:
// the rates are what the physics needs, so the quick size only
// shortens the curve.
const (
	// boundaryPoolMin is the autoscaler's floor on the active NIC pool.
	boundaryPoolMin = 2
	// Per-class open-loop arrival rates (req/s) in the trough and peak
	// phases. boundaryCrowdRate is the extra web-only rate during the
	// flash crowd at the start of the peak.
	boundaryWebTroughRate   = 4_000
	boundaryWebPeakRate     = 40_000
	boundaryCrowdRate       = 60_000
	boundaryMidTroughRate   = 2_000
	boundaryMidPeakRate     = 30_000
	boundaryHeavyTroughRate = 100
	boundaryHeavyPeakRate   = 1_200
	// boundaryMidSweeps/boundaryHeavySweeps size the sweepers' EMEM
	// scans; boundaryHeavyGILFraction is the heavy lambda's serialized
	// share on the host (low: it releases the GIL into the parallel
	// compute pool).
	boundaryMidSweeps        = 100
	boundaryHeavySweeps      = 8_000
	boundaryHeavyGILFraction = 0.05
	// boundaryTickEvery is the control-loop period (autoscaler +
	// placement).
	boundaryTickEvery = 500 * time.Microsecond
	// boundaryTargetPerReplica is the autoscaler's per-NIC rate target
	// and boundaryScaleCooldown its cooldown.
	boundaryTargetPerReplica = 20_000
	boundaryScaleCooldown    = 2 * time.Millisecond
	// boundaryWarmDelay models target-side warm-up during migration.
	boundaryWarmDelay = 500 * time.Microsecond
	// boundaryMargin, boundaryLatencyAlpha and boundaryPlaceCooldown
	// parameterize the engine (see placement.Config); the cooldown
	// doubles as MinDwell, and must be long enough for a drained
	// source's queueing to wash out of the latency EWMAs before the
	// next decision round.
	boundaryMargin        = 0.25
	boundaryLatencyAlpha  = 0.05
	boundaryPlaceCooldown = 10 * time.Millisecond
	// boundaryP99Tolerance is the verdict's slack on the per-phase p99
	// comparison: within 10% counts as "no worse".
	boundaryP99Tolerance = 1.10
)

// DefaultBoundary returns the full-size experiment.
func DefaultBoundary() BoundaryConfig {
	return BoundaryConfig{
		NICs:       4,
		TroughDur:  30 * time.Millisecond,
		PeakDur:    40 * time.Millisecond,
		Trough2Dur: 30 * time.Millisecond,
		CrowdDur:   8 * time.Millisecond,
		ProbeEvery: 20 * time.Millisecond,
	}
}

// QuickBoundary returns a reduced configuration for tests and smoke
// runs: the same curve in half the virtual time.
func QuickBoundary() BoundaryConfig {
	c := DefaultBoundary()
	c.TroughDur = 15 * time.Millisecond
	c.PeakDur = 20 * time.Millisecond
	c.Trough2Dur = 15 * time.Millisecond
	c.CrowdDur = 4 * time.Millisecond
	c.ProbeEvery = 10 * time.Millisecond
	return c
}

// totalDur is the schedule horizon.
func (c BoundaryConfig) totalDur() time.Duration {
	return c.TroughDur + c.PeakDur + c.Trough2Dur
}

// boundaryWorkloadSet builds fresh per-run copies of the three
// classes. The heavy sweeper's GIL fraction is lowered: on the host it
// spends most of its time in the parallel compute pool, which is
// exactly what makes the host the right side for it.
func boundaryWorkloadSet() []*workloads.Workload {
	web := workloads.WebServerVariant("bnd_web", boundaryWebID)
	mid := workloads.BatchSweeperVariant("bnd_mid", boundaryMidID, boundaryMidSweeps)
	heavy := workloads.BatchSweeperVariant("bnd_heavy", boundaryHeavyID, boundaryHeavySweeps)
	heavy.Profile.GILFraction = boundaryHeavyGILFraction
	return []*workloads.Workload{web, mid, heavy}
}

// testbed down-bins the rack's NICs to 2 NPU threads each (1 island ×
// 1 core), so one heavy request visibly occupies half a NIC.
func (c BoundaryConfig) testbed(cfg Config) cluster.Testbed {
	tb := cfg.Testbed
	tb.NIC.Islands = 1
	tb.NIC.CoresPerIsland = 1
	tb.NIC.ThreadsPerCore = 2
	return tb
}

// boundaryArrival is one scheduled request of the shared load curve.
type boundaryArrival struct {
	at    sim.Time
	class int // index into the workload set
	phase int // index into boundaryPhases, by arrival time
	idx   int
}

// boundarySchedule pre-draws the diurnal curve: per class, exponential
// interarrivals at the phase's rate, plus the web-only flash crowd at
// the start of the peak. All randomness comes from a seeded generator;
// nothing depends on the simulator's RNG.
func boundarySchedule(cfg Config, bc BoundaryConfig) []boundaryArrival {
	t1 := sim.Time(bc.TroughDur)
	t2 := t1 + sim.Time(bc.PeakDur)
	t3 := t2 + sim.Time(bc.Trough2Dur)
	phaseOf := func(at sim.Time) int {
		switch {
		case at < t1:
			return 0
		case at < t2:
			return 1
		default:
			return 2
		}
	}

	type segment struct {
		from, to sim.Time
		rate     float64
	}
	var arrivals []boundaryArrival
	draw := func(class int, salt int64, segs []segment) {
		rng := rand.New(rand.NewSource(int64(cfg.Seed) ^ salt))
		idx := 0
		for _, seg := range segs {
			if seg.rate <= 0 {
				continue
			}
			// The first gap is drawn too, so segment starts are not
			// synchronized arrival bursts.
			at := seg.from + sim.Time(rng.ExpFloat64()/seg.rate*float64(time.Second))
			for at < seg.to {
				arrivals = append(arrivals, boundaryArrival{at: at, class: class, phase: phaseOf(at), idx: idx})
				idx++
				at += sim.Time(rng.ExpFloat64() / seg.rate * float64(time.Second))
			}
		}
	}

	crowdEnd := t1 + sim.Time(bc.CrowdDur)
	draw(0, 0x0b1d, []segment{
		{0, t1, boundaryWebTroughRate},
		{t1, t2, boundaryWebPeakRate},
		{t1, crowdEnd, boundaryCrowdRate}, // flash crowd at the ramp
		{t2, t3, boundaryWebTroughRate},
	})
	draw(1, 0x0b2d, []segment{
		{0, t1, boundaryMidTroughRate},
		{t1, t2, boundaryMidPeakRate},
		{t2, t3, boundaryMidTroughRate},
	})
	draw(2, 0x0b3d, []segment{
		{0, t1, boundaryHeavyTroughRate},
		{t1, t2, boundaryHeavyPeakRate},
		{t2, t3, boundaryHeavyTroughRate},
	})

	// Deterministic global order: by time, class, then sequence.
	sort.Slice(arrivals, func(i, j int) bool {
		if arrivals[i].at != arrivals[j].at {
			return arrivals[i].at < arrivals[j].at
		}
		if arrivals[i].class != arrivals[j].class {
			return arrivals[i].class < arrivals[j].class
		}
		return arrivals[i].idx < arrivals[j].idx
	})
	return arrivals
}

// BoundaryPhaseStat is one policy's outcome over one phase of the
// curve (attributed by arrival time, so overload backlogs charge the
// phase that caused them).
type BoundaryPhaseStat struct {
	Phase          string
	Requests       int
	Errors         int
	P50, P99, P999 time.Duration
}

// BoundaryPolicyStat is one policy's outcome over the full run.
type BoundaryPolicyStat struct {
	Policy   string
	Requests int
	Errors   int
	// Latency percentiles over successful requests (shadow probes
	// excluded), overall and per phase.
	P50, P99, P999 time.Duration
	Phases         []BoundaryPhaseStat
	// Migrations counts completed boundary moves; Moves is the decision
	// log; ScaleOps counts NIC pool resizes (dynamic only).
	Migrations uint64
	Moves      []placement.Decision
	ScaleOps   int
	// NICCoreSeconds is the provisioned NIC-core·time integral: active
	// pool size × NPU cores per NIC, integrated over the run. The cost
	// axis of the Pareto claim.
	NICCoreSeconds float64
	// Executed / FinalClock fingerprint the policy's simulation run.
	Executed   uint64
	FinalClock time.Duration
}

// BoundaryReport is the experiment's outcome.
type BoundaryReport struct {
	Rows []BoundaryPolicyStat
	// Pareto is the verdict: dynamic's p99 is within tolerance of the
	// better static policy in every phase and overall, at strictly
	// lower NIC-core cost than static-nic.
	Pareto bool
}

// Row returns the named policy's stats (nil if absent).
func (r *BoundaryReport) Row(policy string) *BoundaryPolicyStat {
	for i := range r.Rows {
		if r.Rows[i].Policy == policy {
			return &r.Rows[i]
		}
	}
	return nil
}

// Boundary runs all three policies, each on a fresh cluster, over one
// shared load curve.
func Boundary(cfg Config, bc BoundaryConfig) (*BoundaryReport, error) {
	sched := boundarySchedule(cfg, bc)
	rep := &BoundaryReport{}
	for _, policy := range []string{BoundaryPolicyNIC, BoundaryPolicyHost, BoundaryPolicyDyn} {
		row, err := boundaryRun(cfg, bc, sched, policy)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Pareto = boundaryVerdict(rep)
	return rep, nil
}

// boundaryRun is the harness for one policy: build its cluster (the
// down-binned NIC rack plus one full-size, jitter-free host), replay the
// shared schedule through the policy's routing, and — for the dynamic
// policy — run the control loop (autoscaler pool sizing, shadow probes,
// placement engine, three-step migrations) on the virtual clock.
func boundaryRun(cfg Config, bc BoundaryConfig, sched []boundaryArrival, policy string) (BoundaryPolicyStat, error) {
	wls := boundaryWorkloadSet()
	r, err := newRack(cfg, bc.testbed(cfg), bc.NICs,
		nicsim.Config{Dispatch: nicsim.DispatchUniform}, wls)
	if err != nil {
		return BoundaryPolicyStat{}, fmt.Errorf("boundary: %w", err)
	}
	if r.host, err = backend.NewBareMetalQuiet(r.sim, cfg.Testbed); err != nil {
		return BoundaryPolicyStat{}, fmt.Errorf("boundary: %w", err)
	}
	if err := r.host.Deploy(wls); err != nil {
		return BoundaryPolicyStat{}, fmt.Errorf("boundary: %w", err)
	}
	s, names := r.sim, r.names
	end := sim.Time(bc.totalDur())
	nicThreads := float64(2) // per down-binned NIC
	hostThreads := float64(cfg.Testbed.Host.PhysicalCores * cfg.Testbed.Host.ThreadsPerCore)

	// Routing state. classLoc flips at migration cutover; pool is the
	// autoscaler-sized active prefix of the rack.
	classLoc := make([]placement.Location, len(wls))
	for i := range classLoc {
		classLoc[i] = placement.LocNIC
	}
	pool := bc.NICs
	if policy == BoundaryPolicyDyn {
		pool = boundaryPoolMin
	}
	var (
		rr                        int
		nicInflight, hostInflight int
		perClassInflight          [][2]int // [class][side]; side 0 host, 1 nic
		pendingDrain              [][2]func()
		completions               uint64
		arrivalsThisTick          uint64
		scaleOps                  int
		errs                      int
		overall                   metrics.Sample
		phaseLat                  = make([]metrics.Sample, len(boundaryPhases))
		phaseReq                  = make([]int, len(boundaryPhases))
		phaseErr                  = make([]int, len(boundaryPhases))
		coreSeconds               float64
		lastPoolChange            sim.Time
	)
	perClassInflight = make([][2]int, len(wls))
	pendingDrain = make([][2]func(), len(wls))

	sideIdx := func(loc placement.Location) int {
		if loc == placement.LocNIC {
			return 1
		}
		return 0
	}
	classIdx := func(name string) int {
		for i, w := range wls {
			if w.Name == name {
				return i
			}
		}
		return -1
	}
	accrueCost := func(now sim.Time) {
		if policy != BoundaryPolicyHost {
			coreSeconds += float64(pool) * time.Duration(now-lastPoolChange).Seconds()
		}
		lastPoolChange = now
	}

	// dispatch routes one request (organic or probe) to an explicit
	// side and fires done with the measured round-trip.
	dispatch := func(class int, loc placement.Location, payload []byte, done func(err error, rtt time.Duration)) {
		side := sideIdx(loc)
		perClassInflight[class][side]++
		start := s.Now()
		finish := func(res backend.Result) {
			perClassInflight[class][side]--
			if fn := pendingDrain[class][side]; fn != nil && perClassInflight[class][side] == 0 {
				pendingDrain[class][side] = nil
				fn()
			}
			done(res.Err, time.Duration(s.Now()-start))
		}
		if loc == placement.LocNIC {
			nicInflight++
			w := rr % pool
			rr++
			r.nics[names[w]].InvokeTraced(wls[class].ID, payload, nil, func(res backend.Result) {
				nicInflight--
				finish(res)
			})
		} else {
			hostInflight++
			r.host.InvokeTraced(wls[class].ID, payload, nil, func(res backend.Result) {
				hostInflight--
				finish(res)
			})
		}
	}

	// Dynamic policy: control plane.
	var (
		eng    *placement.Engine
		coord  *placement.Coordinator
		scaler *autoscale.Autoscaler
	)
	if policy == BoundaryPolicyDyn {
		tb := bc.testbed(cfg)
		eng = placement.New(placement.Config{
			InstrStorePerCore: tb.NIC.InstrStorePerCore,
			LatencyAlpha:      boundaryLatencyAlpha,
			Margin:            boundaryMargin,
			MinDwell:          boundaryPlaceCooldown,
			Cooldown:          boundaryPlaceCooldown,
			MaxMoves:          1,
		})
		for _, w := range wls {
			exe, _, err := workloads.CompileOptimized([]*workloads.Workload{w}, workloads.NaiveProgramTarget)
			if err != nil {
				return BoundaryPolicyStat{}, fmt.Errorf("boundary: footprint %s: %w", w.Name, err)
			}
			eng.Register(w.Name, exe.Footprint(), placement.LocNIC)
		}
		fab := &boundaryFabric{
			warm: func(ready func()) { s.Schedule(sim.Time(boundaryWarmDelay), ready) },
			cutover: func(w string, to placement.Location) {
				if ci := classIdx(w); ci >= 0 {
					classLoc[ci] = to
				}
			},
			drain: func(w string, from placement.Location, drained func()) {
				ci := classIdx(w)
				if ci < 0 {
					drained()
					return
				}
				side := sideIdx(from)
				if perClassInflight[ci][side] == 0 {
					drained()
					return
				}
				pendingDrain[ci][side] = drained
			},
		}
		coord = placement.NewCoordinator(eng, fab, func() time.Duration { return time.Duration(s.Now()) })

		var err error
		scaler, err = autoscale.New(autoscale.Policy{
			TargetPerReplica: boundaryTargetPerReplica,
			MinReplicas:      boundaryPoolMin,
			MaxReplicas:      bc.NICs,
			UpThreshold:      1.2,
			DownThreshold:    0.5,
			Cooldown:         boundaryScaleCooldown,
			Smoothing:        0.5,
		})
		if err != nil {
			return BoundaryPolicyStat{}, fmt.Errorf("boundary: %w", err)
		}
		scaler.Track("pool", boundaryPoolMin)

		// Shadow probes: per class and side, a low-rate probe request
		// keeps the engine's latency EWMAs fresh for the side organic
		// traffic is not visiting. Probes ride the real datapath (they
		// queue like everything else) but are excluded from the
		// latency samples and the autoscaler's rate signal.
		for ci := range wls {
			ci := ci
			for probeAt := sim.Time(0); probeAt < end; probeAt += sim.Time(bc.ProbeEvery) {
				for _, loc := range []placement.Location{placement.LocNIC, placement.LocHost} {
					loc := loc
					s.ScheduleAt(probeAt, func() {
						payload := wls[ci].MakeRequest(0)
						dispatch(ci, loc, payload, func(err error, rtt time.Duration) {
							if err == nil {
								eng.ObserveLatency(wls[ci].Name, loc, rtt)
							}
						})
					})
				}
			}
		}

		// Control loop: pool sizing from the arrival rate (demand, not
		// throughput — under overload completions lie), then placement.
		// Boundary moves are gated on the pool being at max: scale out
		// first, re-split the boundary only when the whole rack is not
		// enough.
		var tickEv *sim.Event
		var tick func()
		tick = func() {
			now := time.Duration(s.Now())
			arr := arrivalsThisTick
			arrivalsThisTick = 0
			if err := scaler.Observe("pool", arr, boundaryTickEvery); err == nil {
				for _, d := range scaler.Decide(time.Unix(0, int64(now))) {
					accrueCost(s.Now())
					pool = d.To
					scaleOps++
				}
			}
			// In-flight counts include queued work, so the raw signal is
			// unbounded under overload; saturate it so backlog spikes
			// register as "overloaded" without drowning the latency
			// evidence (which knows *which* lambda is worth moving).
			clamp := func(x float64) float64 { return math.Min(x, 2) }
			eng.ObserveLoad(
				clamp(float64(nicInflight)/(float64(pool)*nicThreads)),
				clamp(float64(hostInflight)/hostThreads),
			)
			if pool == bc.NICs {
				coord.Run(now)
			}
			if s.Now() < end {
				tickEv = s.Reschedule(tickEv, sim.Time(boundaryTickEvery))
			}
		}
		tickEv = s.Schedule(sim.Time(boundaryTickEvery), tick)
	}

	// Replay the shared schedule.
	s.AtEach(len(sched), func(i int) sim.Time { return sched[i].at }, func(i int) {
		a := &sched[i]
		arrivalsThisTick++
		loc := classLoc[a.class]
		if policy == BoundaryPolicyHost {
			loc = placement.LocHost
		} else if policy == BoundaryPolicyNIC {
			loc = placement.LocNIC
		}
		dispatch(a.class, loc, wls[a.class].MakeRequest(a.idx), func(err error, rtt time.Duration) {
			completions++
			phaseReq[a.phase]++
			if err != nil {
				errs++
				phaseErr[a.phase]++
				return
			}
			overall.AddDuration(rtt)
			phaseLat[a.phase].AddDuration(rtt)
			if eng != nil {
				eng.ObserveLatency(wls[a.class].Name, loc, rtt)
			}
		})
	})

	executed, clock, err := r.run()
	if err != nil {
		return BoundaryPolicyStat{}, fmt.Errorf("boundary/%s: %w", policy, err)
	}
	accrueCost(clock)
	if policy == BoundaryPolicyHost {
		coreSeconds = 0
	}

	row := BoundaryPolicyStat{
		Policy:         policy,
		Requests:       len(sched),
		Errors:         errs,
		P50:            time.Duration(overall.P50() * float64(time.Second)),
		P99:            time.Duration(overall.P99() * float64(time.Second)),
		P999:           time.Duration(overall.P999() * float64(time.Second)),
		ScaleOps:       scaleOps,
		NICCoreSeconds: coreSeconds,
		Executed:       executed,
		FinalClock:     clock,
	}
	if eng != nil {
		row.Migrations = eng.Migrations()
		row.Moves = eng.History()
	}
	for i, name := range boundaryPhases {
		row.Phases = append(row.Phases, BoundaryPhaseStat{
			Phase:    name,
			Requests: phaseReq[i],
			Errors:   phaseErr[i],
			P50:      time.Duration(phaseLat[i].P50() * float64(time.Second)),
			P99:      time.Duration(phaseLat[i].P99() * float64(time.Second)),
			P999:     time.Duration(phaseLat[i].P999() * float64(time.Second)),
		})
	}
	return row, nil
}

// boundaryFabric adapts harness closures to placement.Fabric.
type boundaryFabric struct {
	warm    func(ready func())
	cutover func(workload string, to placement.Location)
	drain   func(workload string, from placement.Location, drained func())
}

func (f *boundaryFabric) Warm(w string, to placement.Location, ready func()) { f.warm(ready) }
func (f *boundaryFabric) Cutover(w string, to placement.Location)            { f.cutover(w, to) }
func (f *boundaryFabric) Drain(w string, from placement.Location, drained func()) {
	f.drain(w, from, drained)
}

// boundaryVerdict: the dynamic policy Pareto-dominates iff its p99 is
// within tolerance of the better static policy in every phase and
// overall, it migrated at least once, served everything, and burned
// strictly less NIC-core·time than static-nic.
func boundaryVerdict(rep *BoundaryReport) bool {
	sn, sh, dyn := rep.Row(BoundaryPolicyNIC), rep.Row(BoundaryPolicyHost), rep.Row(BoundaryPolicyDyn)
	if sn == nil || sh == nil || dyn == nil {
		return false
	}
	if dyn.Errors != 0 || dyn.Migrations == 0 {
		return false
	}
	tol := boundaryP99Tolerance
	better := func(a, b time.Duration) time.Duration {
		if a < b {
			return a
		}
		return b
	}
	if dyn.P99 <= 0 || float64(dyn.P99) > tol*float64(better(sn.P99, sh.P99)) {
		return false
	}
	for i := range dyn.Phases {
		best := better(sn.Phases[i].P99, sh.Phases[i].P99)
		if dyn.Phases[i].P99 <= 0 || float64(dyn.Phases[i].P99) > tol*float64(best) {
			return false
		}
	}
	return dyn.NICCoreSeconds < sn.NICCoreSeconds
}

// RenderBoundary prints the boundary report.
func RenderBoundary(rep *BoundaryReport) string {
	var b strings.Builder
	verdict := "NOT MET"
	if rep.Pareto {
		verdict = "met"
	}
	fmt.Fprintf(&b, "Boundary: dynamic NIC/host placement vs static split (Pareto %s)\n", verdict)
	fmt.Fprintf(&b, "  %-12s %9s %7s %9s %9s %11s %5s %6s\n",
		"policy", "requests", "errors", "p50", "p99", "core·ms", "mig", "scale")
	for _, row := range rep.Rows {
		fmt.Fprintf(&b, "  %-12s %9d %7d %9v %9v %11.2f %5d %6d\n",
			row.Policy, row.Requests, row.Errors, row.P50, row.P99,
			row.NICCoreSeconds*1e3, row.Migrations, row.ScaleOps)
		for _, ph := range row.Phases {
			fmt.Fprintf(&b, "    %-10s %9d %7d %9v %9v\n",
				ph.Phase, ph.Requests, ph.Errors, ph.P50, ph.P99)
		}
		for _, m := range row.Moves {
			fmt.Fprintf(&b, "    move @%-9v %s %s->%s (%s)\n",
				m.At, m.Workload, m.From, m.To, m.Reason)
		}
	}
	if len(rep.Rows) > 0 {
		fmt.Fprintf(&b, "  fingerprint:")
		for _, row := range rep.Rows {
			fmt.Fprintf(&b, " %s=%d@%v", row.Policy, row.Executed, row.FinalClock)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
