package experiments

import (
	"reflect"
	"testing"

	"lambdanic/internal/sim"
)

// The simulation kernel is swappable (ladder queue vs binary heap), and
// independent sweep points can run concurrently. Both must be
// implementation details: same seed, same experiment, bit-identical
// results. These tests are the differential that pins that down.

func withKernel(cfg Config, k sim.KernelKind) Config {
	cfg.Kernel = k
	return cfg
}

func TestFigure6KernelDifferential(t *testing.T) {
	ladder, err := Figure6(withKernel(Quick(), sim.KernelLadder))
	if err != nil {
		t.Fatal(err)
	}
	heap, err := Figure6(withKernel(Quick(), sim.KernelHeap))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ladder, heap) {
		t.Fatalf("Figure6 differs across kernels:\nladder=%+v\nheap=%+v", ladder, heap)
	}
}

// chaosFingerprint is everything a chaos run reports except the raw
// trace spans, fault marks and SLO timeline.
type chaosFingerprint struct {
	Phases            []ChaosPhase
	Killed            string
	KillAt, EvictedAt interface{}
	Recovery          float64
	Failovers         uint64
	Survivors         []string
	Transitions       int
	Executed          uint64
	FinalClock        interface{}
}

func fingerprint(r *ChaosReport) chaosFingerprint {
	return chaosFingerprint{
		Phases:      r.Phases,
		Killed:      r.Killed,
		KillAt:      r.KillAt,
		EvictedAt:   r.EvictedAt,
		Recovery:    r.RecoveryIntervals,
		Failovers:   r.Failovers,
		Survivors:   r.Survivors,
		Transitions: len(r.Transitions),
		Executed:    r.Executed,
		FinalClock:  r.FinalClock,
	}
}

func TestChaosDifferential(t *testing.T) {
	ch := QuickChaos()

	ladder, err := Chaos(withKernel(Quick(), sim.KernelLadder), ch)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := Chaos(withKernel(Quick(), sim.KernelHeap), ch)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(heap), fingerprint(ladder); !reflect.DeepEqual(got, want) {
		t.Errorf("heap chaos run diverged:\n got=%+v\nwant=%+v", got, want)
	}
}

func TestLoadCurveParallelMatchesSerial(t *testing.T) {
	cfg := Quick()
	serial, err := LoadLatencyCurve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := LoadLatencyCurveParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel load curve diverged:\nserial=%+v\nparallel=%+v", serial, par)
	}
}

func TestParallelScaleOutScales(t *testing.T) {
	points, err := ParallelScaleOut(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}
	for _, p := range points {
		if p.PerSecond <= 0 {
			t.Errorf("%d workers: non-positive throughput %f", p.Workers, p.PerSecond)
		}
	}
	// Independent identical domains: aggregate throughput is exactly
	// workers x the single-worker rate, so efficiency is exactly 1.
	for _, p := range points {
		if p.Efficiency < 0.999 || p.Efficiency > 1.001 {
			t.Errorf("%d workers: efficiency %f, want ~1", p.Workers, p.Efficiency)
		}
	}
}
