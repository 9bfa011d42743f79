package experiments

import (
	"fmt"
	"strings"
	"time"

	"lambdanic/internal/backend"
	"lambdanic/internal/cluster"
	"lambdanic/internal/core"
	"lambdanic/internal/metrics"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/sim"
	"lambdanic/internal/telemetry"
	"lambdanic/internal/tenant"
	"lambdanic/internal/workloads"
)

// The tenants experiment closes the multi-tenancy loop end to end in
// virtual time: an interactive tenant and a bursty batch tenant share
// one rack of worker NICs. Both tenants' lambdas are colocated on every
// NIC — multi-tenancy by time-sharing, not partitioning — with the NIC
// scheduler running tenant-weighted hierarchical WFQ and the gateway
// edge running per-tenant token-bucket admission on the simulation's
// virtual clock. Mid-run the batch tenant floods the rack far beyond
// its rate quota: admission sheds the overflow, the NIC scheduler keeps
// serving the interactive tenant's queue at its higher weight, and the
// telemetry plane's SLO tracker grades the interactive tenant's p99
// against the isolation bound throughout. The report buckets both
// tenants' requests into before/during/after phases around the burst,
// so the isolation claim — interactive p99 within bound during the
// burst, error-budget burn back to zero after — is checked against the
// same windows an operator would watch.

// TenantsConfig sizes the multi-tenant isolation experiment.
type TenantsConfig struct {
	// Workers is the rack's worker-NIC count (default 64). Each NIC is
	// down-binned to 1 island × 2 cores × 2 threads so tenant
	// contention is visible at sane request counts.
	Workers int
	// InteractiveRate is the interactive tenant's open-loop offered
	// load over the whole run (default 40,000 req/s).
	InteractiveRate float64
	// BurstRate is the batch tenant's offered load during the burst
	// (default 1,200,000 req/s — far beyond both its admission quota
	// and the rack's batch capacity).
	BurstRate float64
	// Duration is the virtual run length (default 300 ms).
	Duration time.Duration
	// BurstStart/BurstEnd bound the batch flood (defaults 60/180 ms).
	BurstStart, BurstEnd time.Duration
	// BatchSweeps sizes one batch request's EMEM scan (default 400
	// sweeps ≈ 320 µs of NPU time — ~100× an interactive request).
	BatchSweeps int
	// InteractiveWeight and BatchWeight are the tenants' WFQ weights
	// (defaults 8 and 1).
	InteractiveWeight, BatchWeight float64
	// BatchRatePerSec/BatchBurst are the batch tenant's admission
	// quota (defaults 900,000/s, burst 20,000).
	BatchRatePerSec, BatchBurst float64
	// SampleInterval is the SLO sampling period (default 10 ms; the
	// rolling window is 4 samples wide).
	SampleInterval time.Duration
	// IsolationP99 is the isolation bound: the interactive tenant's
	// p99 must stay below it in every phase (default 2 ms).
	IsolationP99 time.Duration
}

// DefaultTenants returns the full-size experiment (the 64-NIC rack).
func DefaultTenants() TenantsConfig {
	return TenantsConfig{
		Workers:           64,
		InteractiveRate:   40_000,
		BurstRate:         1_200_000,
		Duration:          300 * time.Millisecond,
		BurstStart:        60 * time.Millisecond,
		BurstEnd:          180 * time.Millisecond,
		BatchSweeps:       workloads.DefaultBatchSweeps,
		InteractiveWeight: 8,
		BatchWeight:       1,
		BatchRatePerSec:   900_000,
		BatchBurst:        20_000,
		SampleInterval:    10 * time.Millisecond,
		IsolationP99:      2 * time.Millisecond,
	}
}

// QuickTenants returns a reduced configuration for tests and smoke
// runs.
func QuickTenants() TenantsConfig {
	return TenantsConfig{
		Workers:           8,
		InteractiveRate:   20_000,
		BurstRate:         250_000,
		Duration:          150 * time.Millisecond,
		BurstStart:        40 * time.Millisecond,
		BurstEnd:          90 * time.Millisecond,
		BatchSweeps:       workloads.DefaultBatchSweeps,
		InteractiveWeight: 8,
		BatchWeight:       1,
		BatchRatePerSec:   120_000,
		BatchBurst:        2_000,
		SampleInterval:    5 * time.Millisecond,
		IsolationP99:      2 * time.Millisecond,
	}
}

func (c TenantsConfig) withDefaults() TenantsConfig {
	d := DefaultTenants()
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.InteractiveRate <= 0 {
		c.InteractiveRate = d.InteractiveRate
	}
	if c.BurstRate <= 0 {
		c.BurstRate = d.BurstRate
	}
	if c.Duration <= 0 {
		c.Duration = d.Duration
	}
	if c.BurstStart <= 0 {
		c.BurstStart = c.Duration / 5
	}
	if c.BurstEnd <= 0 {
		c.BurstEnd = c.Duration * 3 / 5
	}
	if c.BatchSweeps <= 0 {
		c.BatchSweeps = d.BatchSweeps
	}
	if c.InteractiveWeight <= 0 {
		c.InteractiveWeight = d.InteractiveWeight
	}
	if c.BatchWeight <= 0 {
		c.BatchWeight = d.BatchWeight
	}
	if c.BatchRatePerSec <= 0 {
		c.BatchRatePerSec = d.BatchRatePerSec
	}
	if c.BatchBurst <= 0 {
		c.BatchBurst = d.BatchBurst
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = d.SampleInterval
	}
	if c.IsolationP99 <= 0 {
		c.IsolationP99 = d.IsolationP99
	}
	return c
}

// testbed down-bins the rack's NICs to 4 NPU threads each; everything
// else (clock, memory latencies, link) is the paper's testbed.
func (c TenantsConfig) testbed(cfg Config) cluster.Testbed {
	tb := cfg.Testbed
	tb.NIC.Islands = 1
	tb.NIC.CoresPerIsland = 2
	tb.NIC.ThreadsPerCore = 2
	return tb
}

// Tenant names and SLO targets for the experiment.
const (
	tenantsInteractive  = "vip"
	tenantsBatch        = "bulk"
	tenantsAvailability = 0.999
	tenantsQuantile     = 0.99
)

// TenantPhaseStat is one tenant's traffic summary over one phase.
type TenantPhaseStat struct {
	Tenant string
	Phase  string
	Start  time.Duration
	End    time.Duration
	// Requests counts arrivals admitted into the rack; Shed counts
	// arrivals rejected by gateway admission; Errors counts admitted
	// requests that failed.
	Requests int
	Errors   int
	Shed     int
	P50, P99 time.Duration
}

// TenantsReport is the experiment's outcome.
type TenantsReport struct {
	// Phases: before/during/after the burst, per tenant, bucketed by
	// arrival time.
	Phases []TenantPhaseStat
	// Shed is the admission controller's total throttle count.
	Shed uint64
	// InteractiveCompleted/BatchCompleted are the NIC schedulers' own
	// per-tenant completion counters summed across the rack — the
	// device-side cross-check of the harness's sample counts.
	InteractiveCompleted, BatchCompleted uint64
	// IsolationP99 echoes the bound; DuringP99 is the interactive
	// tenant's p99 during the burst; Isolated is the verdict
	// (DuringP99 within bound AND final burn zero).
	IsolationP99 time.Duration
	DuringP99    time.Duration
	Isolated     bool
	// WorstBurn/FinalBurn are the interactive latency objective's
	// error-budget burn extremes from the SLO tracker.
	WorstBurn, FinalBurn float64
	// Executed / FinalClock are the determinism fingerprint: identical
	// across queue kernels.
	Executed   uint64
	FinalClock time.Duration
	// SLO is the interactive tenant's full error-budget timeline.
	SLO *telemetry.SLOReport
}

// tenantsPlane is the experiment's control-plane state: the real
// workload manager with tenants registered and bound, the
// admission controller loaded with the batch tenant's quota, and the
// classifier/weights the NIC schedulers consume.
type tenantsPlane struct {
	web, batch    *workloads.Workload
	vipID, bulkID uint32
	tenantOf      func(lambdaID uint32) uint32
	weights       map[uint32]float64
	adm           *tenant.Admission
}

func newTenantsPlane(cfg Config, tc TenantsConfig) (*tenantsPlane, error) {
	mgr, err := core.NewManager(1, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	vip, err := mgr.RegisterTenant(tenant.Tenant{
		Name:   tenantsInteractive,
		Class:  tenant.ClassInteractive,
		Weight: tc.InteractiveWeight,
	})
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	bulk, err := mgr.RegisterTenant(tenant.Tenant{
		Name:   tenantsBatch,
		Class:  tenant.ClassBatch,
		Weight: tc.BatchWeight,
		Quota:  tenant.Quota{RatePerSec: tc.BatchRatePerSec, Burst: tc.BatchBurst},
	})
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	web := workloads.WebServer()
	batch := workloads.BatchSweeperVariant("batch_sweep", workloads.BatchSweepID, tc.BatchSweeps)
	webID, err := mgr.RegisterFor(tenantsInteractive, web)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	batchID, err := mgr.RegisterFor(tenantsBatch, batch)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	// Snapshot the binding into a plain map: the classifier runs on the
	// NIC hot path, so it must not take registry locks.
	byLambda := map[uint32]uint32{webID: vip.ID, batchID: bulk.ID}
	adm := tenant.NewAdmission()
	if err := adm.SetQuota(vip); err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	if err := adm.SetQuota(bulk); err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	return &tenantsPlane{
		web: web, batch: batch,
		vipID: vip.ID, bulkID: bulk.ID,
		tenantOf: func(lambdaID uint32) uint32 { return byLambda[lambdaID] },
		weights:  mgr.Tenants().Weights(),
		adm:      adm,
	}, nil
}

// tenantsSample is one arrival for phase bucketing.
type tenantsSample struct {
	tenantID uint32
	start    sim.Time
	latency  time.Duration
	shed     bool
	failed   bool
}

// Tenants runs the multi-tenant isolation experiment: admission, load,
// SLO grading, and phase bucketing over one rack.
func Tenants(cfg Config, tc TenantsConfig) (*TenantsReport, error) {
	tc = tc.withDefaults()
	plane, err := newTenantsPlane(cfg, tc)
	if err != nil {
		return nil, err
	}
	r, err := newRack(cfg, tc.testbed(cfg), tc.Workers, nicsim.Config{
		Dispatch:      nicsim.DispatchTenantWFQ,
		TenantOf:      plane.tenantOf,
		TenantWeights: plane.weights,
	}, []*workloads.Workload{plane.web, plane.batch})
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	s, names := r.sim, r.names
	end := sim.Time(tc.Duration)

	// The interactive tenant's SLO, graded on the virtual clock every
	// sampling interval.
	slo, err := telemetry.NewSLOTracker(
		telemetry.NewWindowed(telemetry.WindowConfig{
			Slots:        4,
			SlotDuration: tc.SampleInterval,
		}),
		telemetry.Objective{
			Name: "vip-availability", Kind: telemetry.ObjectiveAvailability,
			Target: tenantsAvailability,
		},
		telemetry.Objective{
			Name: "vip-p99", Kind: telemetry.ObjectiveLatency,
			Target: tenantsQuantile, Threshold: tc.IsolationP99,
		},
	)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	sloMeter := slo.Windowed()
	sloMeter.Stats(0)
	var sampleEv *sim.Event
	var sample func()
	sample = func() {
		slo.Sample(s.Now())
		if s.Now() < end {
			sampleEv = s.Reschedule(sampleEv, tc.SampleInterval)
		}
	}
	sampleEv = s.Schedule(tc.SampleInterval, sample)

	// Load: both tenants' arrival schedules are drawn up front from the
	// simulation's seeded source — interactive first, then the
	// burst — so the whole run is a pure function of the seed. Every
	// arrival passes gateway admission on the virtual clock before any
	// wire event is scheduled; shed requests never touch the rack.
	rng := s.Rand()
	var arrivals []sim.Time
	at := sim.Time(0)
	for at < end {
		arrivals = append(arrivals, at)
		at += sim.Time(rng.ExpFloat64() / tc.InteractiveRate * float64(time.Second))
	}
	interactive := len(arrivals)
	at = sim.Time(tc.BurstStart)
	for at < sim.Time(tc.BurstEnd) {
		arrivals = append(arrivals, at)
		at += sim.Time(rng.ExpFloat64() / tc.BurstRate * float64(time.Second))
	}
	samples := make([]tenantsSample, 0, len(arrivals))
	next := 0
	s.AtEach(len(arrivals), func(k int) sim.Time { return arrivals[k] }, func(k int) {
		wl, tenantID, i := plane.web, plane.vipID, k
		if k >= interactive {
			wl, tenantID, i = plane.batch, plane.bulkID, k-interactive
		}
		start := s.Now()
		if err := plane.adm.Admit(tenantID, start); err != nil {
			samples = append(samples, tenantsSample{
				tenantID: tenantID, start: start, shed: true,
			})
			return
		}
		name := names[next%len(names)]
		next++
		r.nics[name].InvokeTraced(wl.ID, wl.MakeRequest(i), nil, func(res backend.Result) {
			lat := s.Now() - start
			if tenantID == plane.vipID {
				sloMeter.Observe(lat, res.Err != nil)
			}
			samples = append(samples, tenantsSample{
				tenantID: tenantID, start: start,
				latency: lat, failed: res.Err != nil,
			})
		})
	})

	executed, clock, err := r.run()
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}

	rep := &TenantsReport{
		IsolationP99: tc.IsolationP99,
		Shed:         plane.adm.TotalShed(),
		Executed:     executed,
		FinalClock:   clock,
	}
	for _, name := range names {
		nic := r.nics[name].NIC()
		rep.InteractiveCompleted += nic.TenantCompleted(plane.vipID)
		rep.BatchCompleted += nic.TenantCompleted(plane.bulkID)
	}
	sloReport := slo.Report()
	rep.SLO = &sloReport
	for _, sum := range sloReport.Summary {
		if sum.Name == "vip-p99" {
			rep.WorstBurn, rep.FinalBurn = sum.WorstBurnRate, sum.FinalBurnRate
		}
	}

	// Phase bucketing by arrival time, per tenant.
	bounds := []struct {
		name       string
		start, end sim.Time
	}{
		{"before", 0, sim.Time(tc.BurstStart)},
		{"during", sim.Time(tc.BurstStart), sim.Time(tc.BurstEnd)},
		{"after", sim.Time(tc.BurstEnd), end},
	}
	tenants := []struct {
		name string
		id   uint32
	}{
		{tenantsInteractive, plane.vipID},
		{tenantsBatch, plane.bulkID},
	}
	for _, tn := range tenants {
		for _, b := range bounds {
			var lat metrics.Sample
			phase := TenantPhaseStat{Tenant: tn.name, Phase: b.name, Start: b.start, End: b.end}
			for _, sm := range samples {
				if sm.tenantID != tn.id || sm.start < b.start || sm.start >= b.end {
					continue
				}
				if sm.shed {
					phase.Shed++
					continue
				}
				phase.Requests++
				if sm.failed {
					phase.Errors++
				} else {
					lat.AddDuration(sm.latency)
				}
			}
			phase.P50 = time.Duration(lat.P50() * float64(time.Second))
			phase.P99 = time.Duration(lat.P99() * float64(time.Second))
			rep.Phases = append(rep.Phases, phase)
			if tn.name == tenantsInteractive && b.name == "during" {
				rep.DuringP99 = phase.P99
			}
		}
	}
	rep.Isolated = rep.DuringP99 > 0 && rep.DuringP99 <= tc.IsolationP99 && rep.FinalBurn == 0
	return rep, nil
}

// RenderTenants prints the tenants report.
func RenderTenants(rep *TenantsReport) string {
	var b strings.Builder
	verdict := "VIOLATED"
	if rep.Isolated {
		verdict = "met"
	}
	fmt.Fprintf(&b, "Tenants: interactive p99 during burst %v (bound %v, %s); admission shed %d; burn worst %.2fx final %.2fx\n",
		rep.DuringP99, rep.IsolationP99, verdict, rep.Shed, rep.WorstBurn, rep.FinalBurn)
	fmt.Fprintf(&b, "  NIC completions: %s=%d %s=%d (%d events)\n",
		tenantsInteractive, rep.InteractiveCompleted, tenantsBatch, rep.BatchCompleted,
		rep.Executed)
	fmt.Fprintf(&b, "  %-6s %-7s %9s %7s %7s %11s %11s\n",
		"tenant", "phase", "requests", "errors", "shed", "p50", "p99")
	for _, p := range rep.Phases {
		fmt.Fprintf(&b, "  %-6s %-7s %9d %7d %7d %11v %11v\n",
			p.Tenant, p.Phase, p.Requests, p.Errors, p.Shed, p.P50, p.P99)
	}
	if rep.SLO != nil {
		for _, line := range strings.Split(strings.TrimRight(rep.SLO.Text(), "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}
