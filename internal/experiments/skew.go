package experiments

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"lambdanic/internal/backend"
	"lambdanic/internal/cluster"
	"lambdanic/internal/dispatch"
	"lambdanic/internal/healthd"
	"lambdanic/internal/metrics"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/sim"
	"lambdanic/internal/workloads"
)

// The skew experiment measures what flow affinity buys under a skewed
// popularity distribution — and what it costs when a flash crowd makes
// one flow an elephant. A rack of worker NICs runs the web-server
// lambda with the per-core warm-state model enabled: a request whose
// flow key is still in its core's LRU skips the cold-start surcharge
// (match-table rules and SRAM-resident state already installed). Three
// dispatch policies consume the *identical* seeded Zipf arrival
// schedule — long-lived client flows, a fraction of one-shot flows,
// and a mid-run flash crowd hammering the hottest flows:
//
//	rr          round-robin: perfect load spread, zero affinity. Every
//	            flow's state is sprayed across the rack, so warm hits
//	            only happen by accident.
//	pinned      consistent-hash affinity: each flow sticks to its ring
//	            owner. Warm hits dominate, but the flash crowd piles
//	            onto the elephants' owners unchecked.
//	pinned+mig  affinity plus the rebalancer: a healthd detector smooths
//	            per-worker load (EWMA) on the virtual clock; when a
//	            worker runs hot beyond the imbalance ratio, only the
//	            top-k elephant flows (per-flow rate sketch) migrate to
//	            underloaded workers. Mice stay pinned and warm.
//
// The report compares p50/p99/p999, per-worker load spread, and warm-
// hit rate per policy; its fingerprint (event count, final clock) is
// bit-identical between sim kernels.

// Skew dispatch policy names (also the benchmark row names).
const (
	SkewPolicyRR     = "rr"
	SkewPolicyPinned = "pinned"
	SkewPolicyMig    = "pinned+mig"
)

// SkewConfig sizes the flow-affinity experiment.
type SkewConfig struct {
	// Workers is the rack size (default 16); each NIC is down-binned to
	// 1 island × 2 cores × 2 threads so contention is visible.
	Workers int
	// Flows is the long-lived client-flow population (default 128).
	Flows int
	// ZipfS is the popularity exponent across flows (default 1.1 — the
	// classic "90/10" web skew).
	ZipfS float64
	// OneShotFrac is the fraction of arrivals carrying a fresh,
	// never-repeated flow key (default 0.10) — traffic no warm state or
	// pin can help.
	OneShotFrac float64
	// Rate is the base open-loop arrival rate (default 800,000 req/s —
	// roughly 70% of the down-binned rack's round-robin capacity, so
	// cold-start work shows up as queueing).
	Rate float64
	// Duration is the virtual run length (default 250 ms).
	Duration time.Duration
	// CrowdStart/CrowdEnd bound the flash crowd (defaults 80/160 ms);
	// CrowdRate is its extra arrival rate (default 200,000 req/s),
	// spread uniformly over the CrowdFlows hottest flows (default 4).
	CrowdStart, CrowdEnd time.Duration
	CrowdRate            float64
	CrowdFlows           int
	// ServiceSweeps sizes one request's EMEM scan (default 12 sweeps —
	// a mid-weight interactive lambda, ~10 µs of NPU time), so flow
	// hotspots translate into real queueing.
	ServiceSweeps int
	// WarmFlows is each NPU core's warm-state LRU capacity (default 8);
	// ColdStartCycles is the miss surcharge (default 50,000 cycles —
	// ≈79 µs at the paper's 633 MHz clock).
	WarmFlows       int
	ColdStartCycles uint64
	// RebalanceEvery is the load-report + rebalance period (default
	// 2 ms); TopK bounds migrations per tick (default 8);
	// ImbalanceRatio is the overload threshold versus mean load
	// (default 1.3); LoadAlpha is the healthd EWMA coefficient
	// (default healthd.DefaultLoadAlpha).
	RebalanceEvery time.Duration
	TopK           int
	ImbalanceRatio float64
	LoadAlpha      float64
}

// DefaultSkew returns the full-size experiment.
func DefaultSkew() SkewConfig {
	return SkewConfig{
		Workers:         16,
		Flows:           128,
		ZipfS:           1.1,
		OneShotFrac:     0.10,
		Rate:            800_000,
		Duration:        250 * time.Millisecond,
		CrowdStart:      80 * time.Millisecond,
		CrowdEnd:        160 * time.Millisecond,
		CrowdRate:       200_000,
		CrowdFlows:      4,
		ServiceSweeps:   12,
		WarmFlows:       8,
		ColdStartCycles: 50_000,
		RebalanceEvery:  2 * time.Millisecond,
		TopK:            8,
		ImbalanceRatio:  1.3,
		LoadAlpha:       healthd.DefaultLoadAlpha,
	}
}

// QuickSkew returns a reduced configuration for tests and smoke runs.
func QuickSkew() SkewConfig {
	return SkewConfig{
		Workers:         8,
		Flows:           64,
		ZipfS:           1.1,
		OneShotFrac:     0.10,
		Rate:            400_000,
		Duration:        100 * time.Millisecond,
		CrowdStart:      30 * time.Millisecond,
		CrowdEnd:        60 * time.Millisecond,
		CrowdRate:       150_000,
		CrowdFlows:      2,
		ServiceSweeps:   12,
		WarmFlows:       8,
		ColdStartCycles: 50_000,
		RebalanceEvery:  2 * time.Millisecond,
		TopK:            8,
		ImbalanceRatio:  1.3,
		LoadAlpha:       healthd.DefaultLoadAlpha,
	}
}

func (c SkewConfig) withDefaults() SkewConfig {
	d := DefaultSkew()
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.Flows <= 0 {
		c.Flows = d.Flows
	}
	if c.ZipfS <= 0 {
		c.ZipfS = d.ZipfS
	}
	if c.OneShotFrac < 0 || c.OneShotFrac >= 1 {
		c.OneShotFrac = d.OneShotFrac
	}
	if c.Rate <= 0 {
		c.Rate = d.Rate
	}
	if c.Duration <= 0 {
		c.Duration = d.Duration
	}
	if c.CrowdStart <= 0 {
		c.CrowdStart = c.Duration * 1 / 3
	}
	if c.CrowdEnd <= 0 {
		c.CrowdEnd = c.Duration * 2 / 3
	}
	if c.CrowdRate <= 0 {
		c.CrowdRate = d.CrowdRate
	}
	if c.CrowdFlows <= 0 {
		c.CrowdFlows = d.CrowdFlows
	}
	if c.ServiceSweeps <= 0 {
		c.ServiceSweeps = d.ServiceSweeps
	}
	if c.WarmFlows <= 0 {
		c.WarmFlows = d.WarmFlows
	}
	if c.ColdStartCycles == 0 {
		c.ColdStartCycles = d.ColdStartCycles
	}
	if c.RebalanceEvery <= 0 {
		c.RebalanceEvery = d.RebalanceEvery
	}
	if c.TopK <= 0 {
		c.TopK = d.TopK
	}
	if c.ImbalanceRatio <= 0 {
		c.ImbalanceRatio = d.ImbalanceRatio
	}
	if c.LoadAlpha <= 0 {
		c.LoadAlpha = healthd.DefaultLoadAlpha
	}
	return c
}

// workload is the experiment's service lambda: an EMEM sweeper sized
// by ServiceSweeps, so per-request cost — and therefore hotspot
// queueing — is a config knob rather than a fixed constant.
func (c SkewConfig) workload() *workloads.Workload {
	return workloads.BatchSweeperVariant("skew_svc", workloads.BatchSweepID, c.ServiceSweeps)
}

// testbed down-bins the rack's NICs to 4 NPU threads each, as in the
// tenants experiment, so per-worker queueing shows at sane rates.
func (c SkewConfig) testbed(cfg Config) cluster.Testbed {
	tb := cfg.Testbed
	tb.NIC.Islands = 1
	tb.NIC.CoresPerIsland = 2
	tb.NIC.ThreadsPerCore = 2
	return tb
}

// SkewPolicyStat is one dispatch policy's outcome over the full run.
type SkewPolicyStat struct {
	Policy   string
	Requests int
	Errors   int
	// Migrations counts elephant-flow moves (pinned+mig only);
	// PinnedFlows is the standing pin count at run end.
	Migrations  int
	PinnedFlows int
	// Latency percentiles over successful requests.
	P50, P99, P999 time.Duration
	// Spread is max/mean of per-worker completion counts: 1.0 is a
	// perfectly even rack; higher means hot spots.
	Spread float64
	// Warm-state outcome summed across the rack's NICs.
	WarmHits, WarmMisses uint64
	WarmRate             float64
	// Executed / FinalClock fingerprint the policy's simulation run.
	Executed   uint64
	FinalClock time.Duration
}

// SkewReport is the experiment's outcome.
type SkewReport struct {
	Rows []SkewPolicyStat
	// Affine is the verdict: pinned+mig beats round-robin on p99 AND on
	// warm-hit rate.
	Affine bool
}

// Row returns the named policy's stats (nil if absent).
func (r *SkewReport) Row(policy string) *SkewPolicyStat {
	for i := range r.Rows {
		if r.Rows[i].Policy == policy {
			return &r.Rows[i]
		}
	}
	return nil
}

// skewArrival is one scheduled request; the schedule is drawn up front
// from seeded generators so every policy and kernel consumes the exact
// same load.
type skewArrival struct {
	at   sim.Time
	flow uint64
	idx  int
}

// skewSchedule draws the base Zipf stream plus the flash crowd. All
// randomness comes from the seeded Zipf generator (zipf.go) — nothing
// depends on the simulator's RNG, so the schedule is one fixed function
// of the config.
func skewSchedule(cfg Config, sc SkewConfig) []skewArrival {
	seed := uint64(cfg.Seed)
	var name []byte
	flowKey := func(prefix string, n, width int) uint64 {
		name = flowName(name, prefix, n, width)
		return dispatch.FlowKey(string(name), workloads.BatchSweepID)
	}

	var arrivals []skewArrival
	// Base stream: exponential interarrivals at Rate; each arrival draws
	// its flow rank from the Zipf; a OneShotFrac slice gets fresh keys.
	pop, err := newZipf(sc.Flows, sc.ZipfS, seed)
	if err != nil {
		panic(err) // n ≥ 1 and s > 0 by withDefaults
	}
	end := sim.Time(sc.Duration)
	at := sim.Time(0)
	oneShots := 0
	for i := 0; at < end; i++ {
		flow := flowKey("c", pop.Next(), 4)
		if float64(pop.Uint64()>>11)/(1<<53) < sc.OneShotFrac {
			oneShots++
			flow = flowKey("one", oneShots, 6)
		}
		arrivals = append(arrivals, skewArrival{at: at, flow: flow, idx: i})
		u := float64(pop.Uint64()>>11) / (1 << 53)
		at += sim.Time(-math.Log(1-u) / sc.Rate * float64(time.Second))
	}
	// Flash crowd: an extra stream over [CrowdStart, CrowdEnd) hitting
	// the CrowdFlows hottest ranks uniformly — the elephants.
	crowd, err := newZipf(sc.CrowdFlows, 0, seed^0xc0ffee)
	if err != nil {
		panic(err)
	}
	at = sim.Time(sc.CrowdStart)
	for i := len(arrivals); at < sim.Time(sc.CrowdEnd); i++ {
		arrivals = append(arrivals, skewArrival{at: at, flow: flowKey("c", crowd.Next(), 4), idx: i})
		u := float64(crowd.Uint64()>>11) / (1 << 53)
		at += sim.Time(-math.Log(1-u) / sc.CrowdRate * float64(time.Second))
	}
	return arrivals
}

// flowName is prefix then n, zero-padded to width digits, appended to
// buf[:0]: fmt's "%0*d" for n ≥ 0 without its cost.
func flowName(buf []byte, prefix string, n, width int) []byte {
	buf = strconv.AppendInt(append(buf[:0], prefix...), int64(n), 10)
	for len(buf) < len(prefix)+width {
		buf = slices.Insert(buf, len(prefix), '0')
	}
	return buf
}

// skewDispatcher is one policy's routing brain at the gateway position.
type skewDispatcher interface {
	// observe feeds the arrival into rate tracking (before pick).
	observe(flow uint64)
	// pick returns the worker index for the flow.
	pick(flow uint64) int
	// tick consumes a smoothed load report and may migrate; returns the
	// number of migrations applied.
	tick(loads []dispatch.Load) int
	// pins reports standing migrations at run end.
	pins() int
}

type rrDispatch struct{ next, n int }

func (d *rrDispatch) observe(uint64) {}
func (d *rrDispatch) pick(uint64) int {
	w := d.next % d.n
	d.next++
	return w
}
func (d *rrDispatch) tick([]dispatch.Load) int { return 0 }
func (d *rrDispatch) pins() int                { return 0 }

type pinDispatch struct{ ring *dispatch.Ring }

func (d *pinDispatch) observe(uint64) {}
func (d *pinDispatch) pick(flow uint64) int {
	return d.ring.Pick(flow)
}
func (d *pinDispatch) tick([]dispatch.Load) int { return 0 }
func (d *pinDispatch) pins() int                { return 0 }

type migDispatch struct {
	ring   *dispatch.Ring
	sketch *dispatch.Sketch
	pinned map[uint64]int
	names  []string
	index  map[string]int
	topK   int
	ratio  float64
}

func newMigDispatch(names []string, seed uint64, topK int, ratio float64) *migDispatch {
	index := make(map[string]int, len(names))
	for i, n := range names {
		index[n] = i
	}
	return &migDispatch{
		ring:   dispatch.NewRing(names, seed, dispatch.DefaultVirtualNodes),
		sketch: dispatch.NewSketch(256),
		pinned: make(map[uint64]int),
		names:  names,
		index:  index,
		topK:   topK,
		ratio:  ratio,
	}
}

func (d *migDispatch) observe(flow uint64) { d.sketch.Observe(flow) }

func (d *migDispatch) pick(flow uint64) int {
	if w, ok := d.pinned[flow]; ok {
		return w
	}
	return d.ring.Pick(flow)
}

func (d *migDispatch) tick(loads []dispatch.Load) int {
	owner := func(flow uint64) string { return d.names[d.pick(flow)] }
	plan := dispatch.Plan(loads, d.sketch.TopK(d.topK), owner, d.ratio)
	applied := 0
	for _, m := range plan {
		to, ok := d.index[m.To]
		if !ok {
			continue
		}
		if d.ring.Pick(m.Flow) == to {
			delete(d.pinned, m.Flow) // back on its ring owner: just unpin
		} else {
			d.pinned[m.Flow] = to
		}
		applied++
	}
	d.sketch.Advance()
	return applied
}

func (d *migDispatch) pins() int { return len(d.pinned) }

func (c SkewConfig) dispatcher(policy string, names []string, seed uint64) skewDispatcher {
	switch policy {
	case SkewPolicyRR:
		return &rrDispatch{n: len(names)}
	case SkewPolicyPinned:
		return &pinDispatch{ring: dispatch.NewRing(names, seed, dispatch.DefaultVirtualNodes)}
	default:
		return newMigDispatch(names, seed, c.TopK, c.ImbalanceRatio)
	}
}

// Skew runs all three policies, each on a fresh rack, over one shared
// arrival schedule.
func Skew(cfg Config, sc SkewConfig) (*SkewReport, error) {
	sc = sc.withDefaults()
	sched := skewSchedule(cfg, sc)
	rep := &SkewReport{}
	for _, policy := range []string{SkewPolicyRR, SkewPolicyPinned, SkewPolicyMig} {
		row, err := skewRun(cfg, sc, sched, policy)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Affine = skewVerdict(rep)
	return rep, nil
}

// skewRun is the harness for one policy: build its rack, issue the
// shared schedule through the policy's dispatcher, feed the healthd
// detector smoothed load on the virtual clock, rebalance on ticks, and
// summarize.
func skewRun(cfg Config, sc SkewConfig, sched []skewArrival, policy string) (SkewPolicyStat, error) {
	web := sc.workload()
	r, err := newRack(cfg, sc.testbed(cfg), sc.Workers, nicsim.Config{
		Dispatch:        nicsim.DispatchUniform,
		WarmFlows:       sc.WarmFlows,
		ColdStartCycles: sc.ColdStartCycles,
	}, []*workloads.Workload{web})
	if err != nil {
		return SkewPolicyStat{}, fmt.Errorf("skew: %w", err)
	}
	s, names := r.sim, r.names
	end := sim.Time(sc.Duration)
	disp := sc.dispatcher(policy, names, uint64(cfg.Seed))

	// Load reports ride the same detector the live deployment's
	// rebalancer consumes: per-worker in-flight counts sampled at tick
	// instants, EWMA-smoothed so a single burst doesn't whipsaw pins.
	det := healthd.NewDetector(healthd.Config{
		Interval:  sc.RebalanceEvery,
		LoadAlpha: sc.LoadAlpha,
	})
	inflight := make([]int, len(names))
	completed := make([]uint64, len(names))
	var (
		lat        metrics.Sample
		errs       int
		migrations int
		seq        uint64
		tickEv     *sim.Event
	)
	var tick func()
	tick = func() {
		seq++
		now := time.Duration(s.Now())
		for i, name := range names {
			det.Observe(healthd.Heartbeat{Worker: name, Seq: seq, Load: inflight[i]}, now)
		}
		snap := det.Snapshot(now)
		loads := make([]dispatch.Load, 0, len(snap))
		for _, wh := range snap {
			loads = append(loads, dispatch.Load{Worker: wh.Worker, Load: wh.SmoothedLoad})
		}
		migrations += disp.tick(loads)
		if s.Now() < end {
			tickEv = s.Reschedule(tickEv, sim.Time(sc.RebalanceEvery))
		}
	}
	tickEv = s.Schedule(sim.Time(sc.RebalanceEvery), tick)

	s.AtEach(len(sched), func(i int) sim.Time { return sched[i].at }, func(i int) {
		a := &sched[i]
		disp.observe(a.flow)
		w := disp.pick(a.flow)
		inflight[w]++
		start := s.Now()
		r.nics[names[w]].InvokeFlow(web.ID, web.MakeRequest(a.idx), a.flow, nil, func(res backend.Result) {
			inflight[w]--
			completed[w]++
			if res.Err != nil {
				errs++
			} else {
				lat.AddDuration(time.Duration(s.Now() - start))
			}
		})
	})
	executed, clock, err := r.run()
	if err != nil {
		return SkewPolicyStat{}, fmt.Errorf("skew/%s: %w", policy, err)
	}

	row := SkewPolicyStat{
		Policy:      policy,
		Requests:    len(sched),
		Errors:      errs,
		Migrations:  migrations,
		PinnedFlows: disp.pins(),
		P50:         time.Duration(lat.P50() * float64(time.Second)),
		P99:         time.Duration(lat.P99() * float64(time.Second)),
		P999:        time.Duration(lat.P999() * float64(time.Second)),
		Executed:    executed,
		FinalClock:  clock,
	}
	var sum, max uint64
	for _, c := range completed {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum > 0 {
		row.Spread = float64(max) * float64(len(names)) / float64(sum)
	}
	for _, name := range names {
		st := r.nics[name].NIC().Stats()
		row.WarmHits += st.WarmHits
		row.WarmMisses += st.WarmMisses
	}
	if total := row.WarmHits + row.WarmMisses; total > 0 {
		row.WarmRate = float64(row.WarmHits) / float64(total)
	}
	return row, nil
}

// skewVerdict: affinity pays iff pinned+mig beats round-robin on both
// tail latency and warm-hit rate.
func skewVerdict(rep *SkewReport) bool {
	rr, mig := rep.Row(SkewPolicyRR), rep.Row(SkewPolicyMig)
	if rr == nil || mig == nil {
		return false
	}
	return mig.P99 > 0 && mig.P99 < rr.P99 && mig.WarmRate > rr.WarmRate
}

// RenderSkew prints the skew report.
func RenderSkew(rep *SkewReport) string {
	var b strings.Builder
	verdict := "NOT MET"
	if rep.Affine {
		verdict = "met"
	}
	fmt.Fprintf(&b, "Skew: flow affinity + elephant migration vs round-robin (%s)\n", verdict)
	fmt.Fprintf(&b, "  %-10s %9s %7s %9s %9s %9s %7s %6s %5s %5s\n",
		"policy", "requests", "errors", "p50", "p99", "p999", "spread", "warm%", "mig", "pins")
	for _, row := range rep.Rows {
		fmt.Fprintf(&b, "  %-10s %9d %7d %9v %9v %9v %7.2f %5.1f%% %5d %5d\n",
			row.Policy, row.Requests, row.Errors, row.P50, row.P99, row.P999,
			row.Spread, 100*row.WarmRate, row.Migrations, row.PinnedFlows)
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
