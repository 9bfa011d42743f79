package autoscale

import (
	"testing"
	"time"

	"lambdanic/internal/core"
	"lambdanic/internal/workloads"
)

func testPolicy() Policy {
	return Policy{
		TargetPerReplica: 100,
		MinReplicas:      1,
		MaxReplicas:      4,
		UpThreshold:      1.2,
		DownThreshold:    0.5,
		Cooldown:         10 * time.Second,
		Smoothing:        1, // no smoothing: deterministic tests
	}
}

func newScaler(t *testing.T, p Policy) *Autoscaler {
	t.Helper()
	a, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestPolicyValidation(t *testing.T) {
	bad := []Policy{
		{},
		{TargetPerReplica: 1, MinReplicas: -1, MaxReplicas: 2, UpThreshold: 2, DownThreshold: 0.5, Smoothing: 1},
		{TargetPerReplica: 1, MinReplicas: 3, MaxReplicas: 2, UpThreshold: 2, DownThreshold: 0.5, Smoothing: 1},
		{TargetPerReplica: 1, MinReplicas: 0, MaxReplicas: 0, UpThreshold: 2, DownThreshold: 0.5, Smoothing: 1},
		{TargetPerReplica: 1, MinReplicas: 1, MaxReplicas: 2, UpThreshold: 1, DownThreshold: 0.5, Smoothing: 1},
		{TargetPerReplica: 1, MinReplicas: 1, MaxReplicas: 2, UpThreshold: 2, DownThreshold: 1.5, Smoothing: 1},
		{TargetPerReplica: 1, MinReplicas: 1, MaxReplicas: 2, UpThreshold: 2, DownThreshold: 0.5, Smoothing: 0},
	}
	for i, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("case %d: invalid policy accepted", i)
		}
	}
	zero := testPolicy()
	zero.MinReplicas = 0
	if err := zero.Validate(); err != nil {
		t.Errorf("MinReplicas=0 (scale-to-zero) rejected: %v", err)
	}
}

// TestScaleToZeroAndBack: with MinReplicas=0, a workload whose rate
// decays away releases every replica, and the first traffic after the
// cooldown brings it back from zero.
func TestScaleToZeroAndBack(t *testing.T) {
	p := testPolicy()
	p.MinReplicas = 0
	a := newScaler(t, p)
	a.Track("web", 2)
	now := time.Unix(1000, 0)

	// Rate collapses: scale all the way to zero in one decision.
	if err := a.Observe("web", 0, time.Second); err != nil {
		t.Fatal(err)
	}
	ds := a.Decide(now)
	if len(ds) != 1 || ds[0].To != 0 || ds[0].From != 2 {
		t.Fatalf("decisions = %+v, want 2->0", ds)
	}
	if a.Replicas("web") != 0 {
		t.Fatalf("Replicas = %d, want 0", a.Replicas("web"))
	}

	// At zero replicas any observed traffic is overload: scale up from
	// zero once the cooldown passes.
	if err := a.Observe("web", 150, time.Second); err != nil {
		t.Fatal(err)
	}
	ds = a.Decide(now.Add(p.Cooldown + time.Second))
	if len(ds) != 1 || ds[0].From != 0 || ds[0].To != 2 {
		t.Fatalf("decisions = %+v, want 0->2", ds)
	}
}

// TestTrackZeroReplicas: Track honors a zero initial count when the
// policy allows it (a cold workload need not be provisioned eagerly).
func TestTrackZeroReplicas(t *testing.T) {
	p := testPolicy()
	p.MinReplicas = 0
	a := newScaler(t, p)
	a.Track("cold", 0)
	if got := a.Replicas("cold"); got != 0 {
		t.Fatalf("Replicas = %d, want 0", got)
	}
}

// TestOscillationDamping: a rate that whipsaws around the target inside
// the hysteresis band produces no decisions — the band plus cooldown
// absorb the oscillation instead of translating it into replica churn.
func TestOscillationDamping(t *testing.T) {
	p := testPolicy()
	p.Smoothing = 0.5 // EWMA on: bursts are averaged before deciding
	a := newScaler(t, p)
	a.Track("web", 2)
	now := time.Unix(1000, 0)
	// Capacity is 200; the band holds inside (100, 240). Alternate 160
	// and 240 req/s: raw rates brush the band edge but the EWMA settles
	// near 200, so no decision should ever fire.
	if err := a.Observe("web", 200, time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r := uint64(160)
		if i%2 == 1 {
			r = 240
		}
		if err := a.Observe("web", r, time.Second); err != nil {
			t.Fatal(err)
		}
		if ds := a.Decide(now.Add(time.Duration(i) * time.Minute)); len(ds) != 0 {
			t.Fatalf("iteration %d: oscillating load caused decisions %+v (rate %.1f)",
				i, ds, a.Rate("web"))
		}
	}
}

func TestScaleUpOnOverload(t *testing.T) {
	a := newScaler(t, testPolicy())
	a.Track("web", 1)
	now := time.Unix(1000, 0)
	// 350 req/s against 100/replica: needs 4 replicas.
	if err := a.Observe("web", 350, time.Second); err != nil {
		t.Fatal(err)
	}
	ds := a.Decide(now)
	if len(ds) != 1 || ds[0].To != 4 || ds[0].From != 1 {
		t.Fatalf("decisions = %+v, want 1->4", ds)
	}
	if a.Replicas("web") != 4 {
		t.Errorf("Replicas = %d", a.Replicas("web"))
	}
}

func TestScaleUpCappedAtMax(t *testing.T) {
	a := newScaler(t, testPolicy())
	a.Track("web", 1)
	if err := a.Observe("web", 100_000, time.Second); err != nil {
		t.Fatal(err)
	}
	ds := a.Decide(time.Unix(1000, 0))
	if len(ds) != 1 || ds[0].To != 4 {
		t.Fatalf("decisions = %+v, want cap at 4", ds)
	}
}

func TestScaleDownOnIdle(t *testing.T) {
	a := newScaler(t, testPolicy())
	a.Track("web", 4)
	if err := a.Observe("web", 90, time.Second); err != nil { // 90 req/s: one replica suffices
		t.Fatal(err)
	}
	ds := a.Decide(time.Unix(1000, 0))
	if len(ds) != 1 || ds[0].To != 1 {
		t.Fatalf("decisions = %+v, want down to 1", ds)
	}
}

func TestHysteresisBandHolds(t *testing.T) {
	a := newScaler(t, testPolicy())
	a.Track("web", 2)
	// 150 req/s with 2 replicas: between 50% (100) and 120% (240) of
	// capacity — no action.
	if err := a.Observe("web", 150, time.Second); err != nil {
		t.Fatal(err)
	}
	if ds := a.Decide(time.Unix(1000, 0)); len(ds) != 0 {
		t.Errorf("decisions in hysteresis band: %+v", ds)
	}
}

func TestCooldownSuppressesFlapping(t *testing.T) {
	a := newScaler(t, testPolicy())
	a.Track("web", 1)
	now := time.Unix(1000, 0)
	if err := a.Observe("web", 350, time.Second); err != nil {
		t.Fatal(err)
	}
	if ds := a.Decide(now); len(ds) != 1 {
		t.Fatal("first decision missing")
	}
	// Load drops immediately, but the cooldown holds the replica count.
	if err := a.Observe("web", 10, time.Second); err != nil {
		t.Fatal(err)
	}
	if ds := a.Decide(now.Add(5 * time.Second)); len(ds) != 0 {
		t.Errorf("scaled during cooldown: %+v", ds)
	}
	// After the cooldown it scales down.
	if ds := a.Decide(now.Add(11 * time.Second)); len(ds) != 1 || ds[0].To != 1 {
		t.Errorf("post-cooldown decisions = %+v", ds)
	}
}

func TestEWMASmoothing(t *testing.T) {
	p := testPolicy()
	p.Smoothing = 0.5
	a := newScaler(t, p)
	a.Track("web", 1)
	if err := a.Observe("web", 400, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := a.Observe("web", 0, time.Second); err != nil {
		t.Fatal(err)
	}
	// EWMA: 400 then 0.5*0 + 0.5*400 = 200.
	if got := a.Rate("web"); got != 200 {
		t.Errorf("Rate = %v, want 200", got)
	}
}

func TestObserveErrors(t *testing.T) {
	a := newScaler(t, testPolicy())
	if err := a.Observe("ghost", 1, time.Second); err == nil {
		t.Error("untracked workload accepted")
	}
	a.Track("web", 1)
	if err := a.Observe("web", 1, 0); err == nil {
		t.Error("zero window accepted")
	}
}

// TestAutoscalerDrivesPlacements closes the loop with the workload
// manager: decisions become placement updates in the control store.
func TestAutoscalerDrivesPlacements(t *testing.T) {
	m, err := core.NewManager(3, 11)
	if err != nil {
		t.Fatal(err)
	}
	web := workloads.WebServer()
	if _, err := m.Register(web); err != nil {
		t.Fatal(err)
	}
	pool := []string{"m2", "m3", "m4", "m5"}
	if err := m.RecordPlacement(web.Name, pool[:1]); err != nil {
		t.Fatal(err)
	}

	a := newScaler(t, testPolicy())
	a.Track(web.Name, 1)
	if err := a.Observe(web.Name, 350, time.Second); err != nil {
		t.Fatal(err)
	}
	for _, d := range a.Decide(time.Unix(2000, 0)) {
		if err := m.RecordPlacement(d.Workload, pool[:d.To]); err != nil {
			t.Fatal(err)
		}
	}
	p, err := m.Placement(web.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Workers) != 4 {
		t.Errorf("placement scaled to %d workers, want 4", len(p.Workers))
	}
}
