package experiments

import (
	"reflect"
	"testing"

	"lambdanic/internal/sim"
)

// The simulation kernel is swappable (ladder queue vs binary heap), and
// the swap must be an implementation detail: same seed, same
// experiment, bit-identical results. These tests are the differential
// that pins that down.

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
