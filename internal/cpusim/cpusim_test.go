package cpusim

import (
	"errors"
	"testing"
	"time"

	"lambdanic/internal/cluster"
	"lambdanic/internal/sim"
)

func testCosts() cluster.SoftwareCosts {
	return cluster.SoftwareCosts{
		KernelRx:          20 * time.Microsecond,
		KernelTx:          15 * time.Microsecond,
		DispatchWarm:      40 * time.Microsecond,
		DispatchLoaded:    500 * time.Microsecond,
		ContextSwitch:     450 * time.Microsecond,
		OverlayPerPacket:  30 * time.Microsecond,
		ContainerFork:     2400 * time.Microsecond,
		InterpreterFactor: 38,
	}
}

func testConfig(mode Mode) Config {
	return Config{
		Host:  cluster.Default().Host,
		Costs: testCosts(),
		Mode:  mode,
	}
}

func newHost(t *testing.T, s *sim.Sim, cfg Config) *Host {
	t.Helper()
	h, err := New(s, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return h
}

func deploy(t *testing.T, h *Host, p Profile) {
	t.Helper()
	if err := h.Deploy(p); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
}

func webProfile(id uint32) Profile {
	return Profile{ID: id, NativeInstructions: 600, GILFraction: 1}
}

func TestNewValidation(t *testing.T) {
	s := sim.New(1)
	if _, err := New(s, Config{Host: cluster.Default().Host}); err == nil {
		t.Error("New without mode succeeded")
	}
	if _, err := New(s, Config{Mode: ModeBareMetal}); err == nil {
		t.Error("New with zero host succeeded")
	}
}

func TestDeployValidation(t *testing.T) {
	s := sim.New(1)
	h := newHost(t, s, testConfig(ModeBareMetal))
	if err := h.Deploy(Profile{ID: 1, GILFraction: 1.5}); err == nil {
		t.Error("Deploy with GILFraction > 1 succeeded")
	}
}

func TestUnknownLambda(t *testing.T) {
	s := sim.New(1)
	h := newHost(t, s, testConfig(ModeBareMetal))
	var got error
	h.Submit(9, 100, 1, func(err error) { got = err })
	if !errors.Is(got, ErrUnknownLambda) {
		t.Errorf("err = %v, want ErrUnknownLambda", got)
	}
}

func TestBareMetalWarmLatency(t *testing.T) {
	s := sim.New(1)
	h := newHost(t, s, testConfig(ModeBareMetal))
	deploy(t, h, webProfile(1))

	var done sim.Time
	h.Submit(1, 100, 1, func(err error) {
		if err != nil {
			t.Errorf("Submit: %v", err)
		}
		done = s.Now()
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Warm single request: rx(20+0.4/KB) + warm dispatch(40) +
	// exec(600*38/2GHz = 11.4µs) + tx(15+0.1). Roughly 87µs; assert a
	// window rather than the exact sum.
	if done < 80*time.Microsecond || done > 95*time.Microsecond {
		t.Errorf("warm bare-metal latency = %v, want ~87µs", done)
	}
}

func TestContainerAddsForkAndOverlay(t *testing.T) {
	sBare, sCont := sim.New(1), sim.New(1)
	bare := newHost(t, sBare, testConfig(ModeBareMetal))
	cont := newHost(t, sCont, testConfig(ModeContainer))
	deploy(t, bare, webProfile(1))
	deploy(t, cont, webProfile(1))

	var bareDone, contDone sim.Time
	bare.Submit(1, 100, 1, func(error) { bareDone = sBare.Now() })
	cont.Submit(1, 100, 1, func(error) { contDone = sCont.Now() })
	if err := sBare.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if err := sCont.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	extra := contDone - bareDone
	// Fork (2400µs) + 2x overlay (60µs) + overlay per-KB.
	if extra < 2400*time.Microsecond || extra > 2600*time.Microsecond {
		t.Errorf("container extra = %v, want ~2.48ms", extra)
	}
}

func TestLoadedDispatchSerializes(t *testing.T) {
	s := sim.New(1)
	h := newHost(t, s, testConfig(ModeBareMetal))
	deploy(t, h, webProfile(1))

	const n = 20
	var completions int
	for i := 0; i < n; i++ {
		h.Submit(1, 100, 1, func(error) { completions++ })
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if completions != n {
		t.Fatalf("completed %d, want %d", completions, n)
	}
	// Under load the dispatch stage serializes at ~DispatchLoaded+exec
	// per request: makespan must be at least (n-1) * 500µs.
	if s.Now() < (n-1)*500*time.Microsecond {
		t.Errorf("makespan %v too small; loaded dispatch not serialized", s.Now())
	}
}

func TestContextSwitchChargedAcrossLambdas(t *testing.T) {
	s := sim.New(1)
	h := newHost(t, s, testConfig(ModeBareMetal))
	for id := uint32(1); id <= 3; id++ {
		deploy(t, h, webProfile(id))
	}
	// Round-robin across 3 lambdas: every request switches.
	for i := 0; i < 9; i++ {
		h.Submit(uint32(i%3)+1, 100, 1, nil)
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got := h.Stats().ContextSwitches; got != 8 {
		t.Errorf("ContextSwitches = %d, want 8 (first request has no prior)", got)
	}
}

func TestNoContextSwitchSameLambda(t *testing.T) {
	s := sim.New(1)
	h := newHost(t, s, testConfig(ModeBareMetal))
	deploy(t, h, webProfile(1))
	for i := 0; i < 5; i++ {
		h.Submit(1, 100, 1, nil)
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got := h.Stats().ContextSwitches; got != 0 {
		t.Errorf("ContextSwitches = %d, want 0", got)
	}
}

func TestSingleCoreSlower(t *testing.T) {
	mk := func(single bool) sim.Time {
		s := sim.New(1)
		cfg := testConfig(ModeBareMetal)
		cfg.SingleCore = single
		h := newHost(t, s, cfg)
		deploy(t, h, webProfile(1))
		var last sim.Time
		for i := 0; i < 20; i++ {
			h.Submit(1, 100, 1, func(error) { last = s.Now() })
		}
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	multi, single := mk(false), mk(true)
	if single <= multi {
		t.Errorf("single-core makespan %v not slower than multi-core %v", single, multi)
	}
}

func TestGILFractionParallelism(t *testing.T) {
	// A workload with GILFraction 0 should complete a concurrent batch
	// much faster than GILFraction 1, because execution parallelizes
	// across physical cores.
	mk := func(gil float64) sim.Time {
		s := sim.New(1)
		h := newHost(t, s, testConfig(ModeBareMetal))
		deploy(t, h, Profile{ID: 1, NativeInstructions: 5_000_000, GILFraction: gil})
		for i := 0; i < 28; i++ {
			h.Submit(1, 100, 1, nil)
		}
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return s.Now()
	}
	serial, parallel := mk(1), mk(0)
	if parallel >= serial/4 {
		t.Errorf("GIL-free makespan %v not ≪ GIL-bound %v", parallel, serial)
	}
}

func TestLargePayloadCostScales(t *testing.T) {
	s := sim.New(1)
	h := newHost(t, s, testConfig(ModeContainer))
	deploy(t, h, Profile{ID: 1, NativeInstructions: 100, GILFraction: 1})
	var small, large sim.Time
	h.Submit(1, 1024, 1, func(error) { small = s.Now() })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	base := small
	s2 := sim.New(1)
	h2 := newHost(t, s2, testConfig(ModeContainer))
	deploy(t, h2, Profile{ID: 1, NativeInstructions: 100, GILFraction: 1})
	h2.Submit(1, 16*1024*1024, 11000, func(error) { large = s2.Now() })
	if err := s2.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// 16 MiB through the overlay at ~20µs/KB is ~330ms of extra cost.
	if large-base < 200*time.Millisecond {
		t.Errorf("large payload extra = %v, want > 200ms (overlay per-KB)", large-base)
	}
}

func TestExternalConnPenaltyOnlyUnderLoadAndContainer(t *testing.T) {
	cfgC := testConfig(ModeContainer)
	cfgC.ContainerExternalConn = 10 * time.Millisecond
	s := sim.New(1)
	h := newHost(t, s, cfgC)
	deploy(t, h, Profile{ID: 1, NativeInstructions: 600, GILFraction: 1, ExternalConnPerRequest: true})

	// Single warm request: no penalty.
	var warm sim.Time
	h.Submit(1, 100, 1, func(error) { warm = s.Now() })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if warm > 5*time.Millisecond {
		t.Errorf("warm external-conn latency = %v, want < 5ms", warm)
	}

	// Concurrent burst: the penalty serializes.
	s2 := sim.New(1)
	h2 := newHost(t, s2, cfgC)
	deploy(t, h2, Profile{ID: 1, NativeInstructions: 600, GILFraction: 1, ExternalConnPerRequest: true})
	for i := 0; i < 10; i++ {
		h2.Submit(1, 100, 1, nil)
	}
	if err := s2.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if s2.Now() < 90*time.Millisecond {
		t.Errorf("loaded makespan = %v, want > 90ms (9 x 10ms penalties)", s2.Now())
	}
}

func TestUtilizationBounded(t *testing.T) {
	s := sim.New(1)
	h := newHost(t, s, testConfig(ModeBareMetal))
	deploy(t, h, webProfile(1))
	for i := 0; i < 50; i++ {
		h.Submit(1, 100, 1, nil)
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	u := h.Utilization()
	if u <= 0 || u > 1 {
		t.Errorf("Utilization = %v, want in (0, 1]", u)
	}
}

func TestModeString(t *testing.T) {
	if ModeBareMetal.String() != "bare-metal" || ModeContainer.String() != "container" {
		t.Error("Mode.String wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown Mode.String wrong")
	}
}
