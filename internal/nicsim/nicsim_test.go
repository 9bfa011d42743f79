package nicsim

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"lambdanic/internal/cluster"
	"lambdanic/internal/sim"
)

// fakeLambda is one lambda's fixed cost inside a fakeImage.
type fakeLambda struct {
	instr uint64
	emem  uint64
}

// fakeImage is a firmware image charging fixed costs per lambda and
// echoing the request payload.
type fakeImage struct {
	lambdas   map[uint32]fakeLambda
	static    int
	memory    map[MemLevel]int
	execCount int
}

func (f *fakeImage) Serve(req *Request) (Response, error) {
	f.execCount++
	l := f.lambdas[req.LambdaID]
	var st ExecStats
	st.Instructions = l.instr
	st.AddAccess(MemEMEM, l.emem)
	return Response{Payload: req.Payload, Size: len(req.Payload), Stats: st}, nil
}

func (f *fakeImage) Handles(id uint32) bool {
	_, ok := f.lambdas[id]
	return ok
}

func (f *fakeImage) StaticInstructions() int { return f.static }

func (f *fakeImage) MemoryBytes() map[MemLevel]int { return f.memory }

// image builds a fakeImage for a single lambda.
func image(id uint32, l fakeLambda) *fakeImage {
	return &fakeImage{lambdas: map[uint32]fakeLambda{id: l}, static: 1000}
}

func testConfig() Config {
	return Config{NIC: cluster.Default().NIC}
}

// smallConfig returns a NIC with very few threads so queueing is easy to
// trigger.
func smallConfig(threads int) Config {
	cfg := testConfig()
	cfg.NIC.Islands = 1
	cfg.NIC.CoresPerIsland = 1
	cfg.NIC.ThreadsPerCore = threads
	return cfg
}

func newNIC(t *testing.T, s *sim.Sim, cfg Config) *NIC {
	t.Helper()
	n, err := New(s, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func loadSingle(t *testing.T, n *NIC, img *fakeImage) {
	t.Helper()
	if err := n.Load(img); err != nil {
		t.Fatalf("Load: %v", err)
	}
}

func TestNewRejectsZeroThreads(t *testing.T) {
	if _, err := New(sim.New(1), Config{}); err == nil {
		t.Fatal("New with zero threads succeeded, want error")
	}
}

func TestInjectWithoutFirmware(t *testing.T) {
	s := sim.New(1)
	n := newNIC(t, s, testConfig())
	var gotErr error
	n.Inject(&Request{LambdaID: 1}, func(_ Response, err error) { gotErr = err })
	if !errors.Is(gotErr, ErrNoFirmware) {
		t.Errorf("err = %v, want ErrNoFirmware", gotErr)
	}
	if n.Stats().Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", n.Stats().Dropped)
	}
}

func TestSingleRequestLatency(t *testing.T) {
	s := sim.New(1)
	cfg := testConfig()
	n := newNIC(t, s, cfg)
	loadSingle(t, n, image(7, fakeLambda{instr: 500, emem: 2}))

	var completedAt sim.Time
	n.Inject(&Request{LambdaID: 7, Payload: []byte("hi"), Packets: 1}, func(r Response, err error) {
		if err != nil {
			t.Errorf("Execute error: %v", err)
		}
		if string(r.Payload) != "hi" {
			t.Errorf("payload = %q, want %q", r.Payload, "hi")
		}
		completedAt = s.Now()
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// cycles = parse/match (120) + 500 instr + 2 EMEM x 500 = 1620
	want := sim.CyclesToDuration(120+500+2*500, cfg.NIC.ClockHz)
	if completedAt != want {
		t.Errorf("completion at %v, want %v", completedAt, want)
	}
}

func TestMultiPacketReorderCost(t *testing.T) {
	s := sim.New(1)
	cfg := testConfig()
	n := newNIC(t, s, cfg)
	loadSingle(t, n, image(1, fakeLambda{instr: 100}))

	var at sim.Time
	n.Inject(&Request{LambdaID: 1, Packets: 4}, func(Response, error) { at = s.Now() })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := sim.CyclesToDuration(120+4*30+100, cfg.NIC.ClockHz)
	if at != want {
		t.Errorf("completion at %v, want %v (reorder charged)", at, want)
	}
}

func TestUnmatchedLambdaGoesToHost(t *testing.T) {
	s := sim.New(1)
	n := newNIC(t, s, testConfig())
	loadSingle(t, n, image(1, fakeLambda{instr: 10}))

	var cbErr error
	n.Inject(&Request{LambdaID: 99}, func(_ Response, err error) { cbErr = err })
	if cbErr == nil {
		t.Error("expected error for unmatched lambda")
	}
	if n.Stats().SentToHost != 1 {
		t.Errorf("SentToHost = %d, want 1", n.Stats().SentToHost)
	}
}

func TestInstructionStoreLimit(t *testing.T) {
	s := sim.New(1)
	n := newNIC(t, s, testConfig())
	err := n.Load(&fakeImage{static: 16*1024 + 1})
	if !errors.Is(err, ErrProgramTooLarge) {
		t.Errorf("Load = %v, want ErrProgramTooLarge", err)
	}
	// Exactly at the limit fits.
	err = n.Load(&fakeImage{static: 16 * 1024})
	if err != nil {
		t.Errorf("Load at limit = %v, want nil", err)
	}
}

func TestMemoryCapacityLimit(t *testing.T) {
	s := sim.New(1)
	cfg := testConfig()
	n := newNIC(t, s, cfg)
	err := n.Load(&fakeImage{memory: map[MemLevel]int{MemEMEM: cfg.NIC.EMEMBytes + 1}})
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Errorf("Load = %v, want ErrMemoryExceeded", err)
	}
}

func TestQueueingWhenSaturated(t *testing.T) {
	s := sim.New(1)
	cfg := smallConfig(2) // 2 threads
	n := newNIC(t, s, cfg)
	loadSingle(t, n, image(1, fakeLambda{instr: 633})) // ~1µs + parse/match each

	done := 0
	for i := 0; i < 6; i++ {
		n.Inject(&Request{LambdaID: 1}, func(Response, error) { done++ })
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if done != 6 {
		t.Errorf("completed %d, want 6", done)
	}
	st := n.Stats()
	if st.MaxQueueDepth < 4 {
		t.Errorf("MaxQueueDepth = %d, want >= 4 (6 arrivals, 2 threads)", st.MaxQueueDepth)
	}
	// With 2 threads and 6 equal requests, makespan is 3 service times.
	service := sim.CyclesToDuration(120+633, cfg.NIC.ClockHz)
	if got, want := s.Now(), 3*service; got != want {
		t.Errorf("makespan = %v, want %v", got, want)
	}
}

func TestParallelThreadsRunConcurrently(t *testing.T) {
	s := sim.New(1)
	cfg := smallConfig(8)
	n := newNIC(t, s, cfg)
	loadSingle(t, n, image(1, fakeLambda{instr: 6330}))

	done := 0
	for i := 0; i < 8; i++ {
		n.Inject(&Request{LambdaID: 1}, func(Response, error) { done++ })
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	service := sim.CyclesToDuration(120+6330, cfg.NIC.ClockHz)
	if got := s.Now(); got != service {
		t.Errorf("8 requests on 8 threads took %v, want one service time %v", got, service)
	}
}

func TestWFQDispatchFairUnderSaturation(t *testing.T) {
	s := sim.New(1)
	cfg := smallConfig(1)
	cfg.Dispatch = DispatchWFQ
	n := newNIC(t, s, cfg)
	img := &fakeImage{lambdas: map[uint32]fakeLambda{1: {instr: 100}, 2: {instr: 100}}, static: 1000}
	if err := n.Load(img); err != nil {
		t.Fatal(err)
	}
	// Flow 1 floods first; flow 2's requests arrive after. WFQ must not
	// starve flow 2 behind flow 1's backlog.
	var order []uint32
	for i := 0; i < 10; i++ {
		n.Inject(&Request{LambdaID: 1, Payload: make([]byte, 100)}, func(Response, error) { order = append(order, 1) })
	}
	for i := 0; i < 10; i++ {
		n.Inject(&Request{LambdaID: 2, Payload: make([]byte, 100)}, func(Response, error) { order = append(order, 2) })
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Count flow-2 completions within the first half.
	flow2Early := 0
	for _, f := range order[:10] {
		if f == 2 {
			flow2Early++
		}
	}
	if flow2Early < 3 {
		t.Errorf("WFQ served only %d of flow 2 in first half; starvation", flow2Early)
	}
}

func TestFirmwareSwapDowntime(t *testing.T) {
	s := sim.New(1)
	cfg := smallConfig(4)
	cfg.FirmwareSwapDowntime = time.Second
	n := newNIC(t, s, cfg)
	loadSingle(t, n, image(1, fakeLambda{instr: 10}))
	// Swap firmware: NIC goes down for 1s.
	loadSingle(t, n, image(2, fakeLambda{instr: 10}))

	var gotErr error
	n.Inject(&Request{LambdaID: 2}, func(_ Response, err error) { gotErr = err })
	if !errors.Is(gotErr, ErrNICDown) {
		t.Errorf("during swap err = %v, want ErrNICDown", gotErr)
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// After downtime elapses, requests are served.
	served := false
	n.Inject(&Request{LambdaID: 2}, func(_ Response, err error) { served = err == nil })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !served {
		t.Error("request after downtime not served")
	}
}

func TestFirstLoadHasNoDowntime(t *testing.T) {
	s := sim.New(1)
	cfg := smallConfig(1)
	cfg.FirmwareSwapDowntime = time.Second
	n := newNIC(t, s, cfg)
	loadSingle(t, n, image(1, fakeLambda{instr: 10}))
	served := false
	n.Inject(&Request{LambdaID: 1}, func(_ Response, err error) { served = err == nil })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !served {
		t.Error("request after first load not served; first load must be downtime-free")
	}
}

func TestMemoryUsed(t *testing.T) {
	s := sim.New(1)
	n := newNIC(t, s, testConfig())
	if n.MemoryUsed() != 0 {
		t.Error("MemoryUsed != 0 before load")
	}
	loadSingle(t, n, &fakeImage{memory: map[MemLevel]int{MemIMEM: 1 << 20, MemCTM: 1 << 10}})
	if got := n.MemoryUsed(); got != 1<<20+1<<10 {
		t.Errorf("MemoryUsed = %d, want %d", got, 1<<20+1<<10)
	}
}

func TestUtilization(t *testing.T) {
	s := sim.New(1)
	cfg := smallConfig(1)
	n := newNIC(t, s, cfg)
	loadSingle(t, n, image(1, fakeLambda{instr: 633_000_000 - 120})) // exactly 1s busy
	n.Inject(&Request{LambdaID: 1}, nil)
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got := n.Utilization(); got < 0.99 || got > 1.01 {
		t.Errorf("Utilization = %v, want ~1.0", got)
	}
}

func TestMemLevelString(t *testing.T) {
	tests := []struct {
		lvl  MemLevel
		want string
	}{
		{MemLocal, "LMEM"}, {MemCTM, "CTM"}, {MemIMEM, "IMEM"}, {MemEMEM, "EMEM"}, {MemLevel(42), "MemLevel(42)"},
	}
	for _, tt := range tests {
		if got := tt.lvl.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.lvl), got, tt.want)
		}
	}
}

func TestExecStatsCycles(t *testing.T) {
	cfg := cluster.Default().NIC
	var st ExecStats
	st.Instructions = 1000
	st.AddAccess(MemLocal, 10)
	st.AddAccess(MemCTM, 5)
	st.AddAccess(MemIMEM, 2)
	st.AddAccess(MemEMEM, 1)
	want := uint64(1000 + 10*1 + 5*50 + 2*150 + 1*500)
	if got := st.Cycles(cfg); got != want {
		t.Errorf("Cycles = %d, want %d", got, want)
	}
	if got := st.Accesses(MemCTM); got != 5 {
		t.Errorf("Accesses(CTM) = %d, want 5", got)
	}
	// Out-of-range levels are ignored, not a panic.
	st.AddAccess(MemLevel(0), 100)
	st.AddAccess(MemLevel(99), 100)
	if got := st.Accesses(MemLevel(99)); got != 0 {
		t.Errorf("Accesses(99) = %d, want 0", got)
	}
}

func TestWorkConservationProperty(t *testing.T) {
	// Property: the NIC's total busy cycles equal the sum of per-request
	// cycles (parse/match + reorder + execution) — no work is lost or
	// double-charged, regardless of arrival pattern or queueing.
	f := func(instrs []uint16, threads uint8) bool {
		s := sim.New(7)
		cfg := smallConfig(int(threads%7) + 1)
		n, err := New(s, cfg)
		if err != nil {
			return false
		}
		img := &fakeImage{lambdas: map[uint32]fakeLambda{}, static: 100}
		want := uint64(0)
		for i, instr := range instrs {
			if i >= 50 {
				break
			}
			id := uint32(i + 1)
			img.lambdas[id] = fakeLambda{instr: uint64(instr)}
			want += uint64(instr) + cfg.NIC.ParseMatchCycles
		}
		if len(img.lambdas) == 0 {
			return true
		}
		if err := n.Load(img); err != nil {
			return false
		}
		for id := range img.lambdas {
			n.Inject(&Request{LambdaID: id}, nil)
		}
		if err := s.RunUntilIdle(); err != nil {
			return false
		}
		return n.Stats().BusyCycles == want &&
			n.Stats().Completed == uint64(len(img.lambdas))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCrashBlackHolesAndRecovers(t *testing.T) {
	s := sim.New(1)
	cfg := smallConfig(1)
	n := newNIC(t, s, cfg)
	loadSingle(t, n, image(7, fakeLambda{instr: 500}))

	// One request in flight, one queued behind it, then the crash: the
	// in-flight completion is suppressed, the queued request discarded,
	// and neither callback ever fires.
	completions := 0
	n.Inject(&Request{LambdaID: 7, Packets: 1}, func(Response, error) { completions++ })
	n.Inject(&Request{LambdaID: 7, Packets: 1}, func(Response, error) { completions++ })
	n.Crash()
	// Requests arriving at a crashed NIC vanish the same way.
	n.Inject(&Request{LambdaID: 7, Packets: 1}, func(Response, error) { completions++ })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if completions != 0 {
		t.Errorf("crashed NIC fired %d completions, want 0 (black hole)", completions)
	}
	if got := n.Stats().Dropped; got != 3 {
		t.Errorf("Dropped = %d, want 3", got)
	}

	// Recover restores full capacity: the occupied thread was released
	// through the normal finish path.
	n.Recover()
	served := false
	n.Inject(&Request{LambdaID: 7, Packets: 1}, func(_ Response, err error) {
		if err != nil {
			t.Errorf("post-recovery request: %v", err)
		}
		served = true
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !served {
		t.Error("recovered NIC did not serve")
	}
}

func TestSetSlowdownStretchesService(t *testing.T) {
	run := func(factor float64) sim.Time {
		s := sim.New(1)
		n := newNIC(t, s, testConfig())
		loadSingle(t, n, image(7, fakeLambda{instr: 500}))
		n.SetSlowdown(factor)
		var done sim.Time
		n.Inject(&Request{LambdaID: 7, Packets: 1}, func(Response, error) { done = s.Now() })
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	base := run(0)
	slowed := run(3)
	if slowed != 3*base {
		t.Errorf("slowdown 3x: latency %v, want %v (base %v)", slowed, 3*base, base)
	}
	// Factors <= 1 restore full speed.
	if again := run(1); again != base {
		t.Errorf("slowdown 1x: latency %v, want base %v", again, base)
	}
}
