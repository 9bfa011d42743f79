package trace

import (
	"testing"
	"time"

	"lambdanic/internal/backend"
	"lambdanic/internal/obs"
	"lambdanic/internal/sim"
)

// fixedInvoker serves every request after a constant delay, with
// unlimited parallelism.
type fixedInvoker struct {
	s       *sim.Sim
	service time.Duration
	served  int
}

func (f *fixedInvoker) Invoke(id uint32, payload []byte, done func(backend.Result)) {
	f.served++
	f.s.Schedule(f.service, func() { done(backend.Result{}) })
}

// serialInvoker serves one request at a time (a 1-server queue).
type serialInvoker struct {
	s       *sim.Sim
	service time.Duration
	freeAt  sim.Time
}

func (f *serialInvoker) Invoke(id uint32, payload []byte, done func(backend.Result)) {
	start := f.s.Now()
	if f.freeAt > start {
		start = f.freeAt
	}
	f.freeAt = start + sim.Time(f.service)
	f.s.ScheduleAt(f.freeAt, func() { done(backend.Result{}) })
}

func TestClosedLoopSequential(t *testing.T) {
	s := sim.New(1)
	inv := &fixedInvoker{s: s, service: time.Millisecond}
	res, err := ClosedLoop{
		Concurrency: 1,
		Requests:    10,
		Gen:         Fixed(1, func(i int) []byte { return nil }),
	}.Run(s, inv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.N() != 10 {
		t.Fatalf("samples = %d", res.Latency.N())
	}
	// Closed loop with one outstanding request: each latency is exactly
	// the service time, and throughput is 1/service.
	if got := res.Latency.Mean(); got < 0.00099 || got > 0.00101 {
		t.Errorf("mean latency = %v, want 1ms", got)
	}
	if got := res.Throughput.PerSecond(); got < 990 || got > 1010 {
		t.Errorf("throughput = %v, want ~1000", got)
	}
}

func TestClosedLoopConcurrencyScalesThroughput(t *testing.T) {
	run := func(conc int) float64 {
		s := sim.New(1)
		inv := &fixedInvoker{s: s, service: time.Millisecond}
		res, err := ClosedLoop{
			Concurrency: conc,
			Requests:    100,
			Gen:         Fixed(1, func(i int) []byte { return nil }),
		}.Run(s, inv)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput.PerSecond()
	}
	one, ten := run(1), run(10)
	if ten < 8*one {
		t.Errorf("concurrency 10 throughput %v not ~10x of %v", ten, one)
	}
}

func TestClosedLoopWarmupExcluded(t *testing.T) {
	s := sim.New(1)
	inv := &fixedInvoker{s: s, service: time.Millisecond}
	res, err := ClosedLoop{
		Concurrency: 1,
		Requests:    5,
		Warmup:      3,
		Gen:         Fixed(1, func(i int) []byte { return nil }),
	}.Run(s, inv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.N() != 5 {
		t.Errorf("measured samples = %d, want 5 (warmup excluded)", res.Latency.N())
	}
	if inv.served != 8 {
		t.Errorf("served = %d, want 8 (5 + 3 warmup)", inv.served)
	}
}

func TestClosedLoopCountsErrors(t *testing.T) {
	s := sim.New(1)
	fail := invokerFunc(func(id uint32, payload []byte, done func(backend.Result)) {
		s.Schedule(time.Microsecond, func() { done(backend.Result{Err: errTest}) })
	})
	res, err := ClosedLoop{
		Concurrency: 1,
		Requests:    4,
		Gen:         Fixed(1, func(i int) []byte { return nil }),
	}.Run(s, fail)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 4 {
		t.Errorf("Errors = %d, want 4", res.Errors)
	}
	if res.Latency.N() != 0 {
		t.Errorf("failed requests contributed latencies: %d", res.Latency.N())
	}
}

type invokerFunc func(uint32, []byte, func(backend.Result))

func (f invokerFunc) Invoke(id uint32, payload []byte, done func(backend.Result)) {
	f(id, payload, done)
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "test error" }

func TestRoundRobinGenerator(t *testing.T) {
	gen := RoundRobin(
		Fixed(1, func(i int) []byte { return []byte{byte(i)} }),
		Fixed(2, func(i int) []byte { return []byte{byte(i)} }),
		Fixed(3, func(i int) []byte { return []byte{byte(i)} }),
	)
	for i := 0; i < 9; i++ {
		r := gen(i)
		if want := uint32(i%3) + 1; r.Workload != want {
			t.Errorf("request %d workload = %d, want %d", i, r.Workload, want)
		}
		if r.Payload[0] != byte(i/3) {
			t.Errorf("request %d inner index = %d, want %d", i, r.Payload[0], i/3)
		}
	}
}

func TestGatewaySerializesOccupancy(t *testing.T) {
	s := sim.New(1)
	inv := &fixedInvoker{s: s, service: 0}
	gw := NewGateway(s, inv, 0, 100*time.Microsecond)
	// 10 simultaneous requests through a 100µs-occupancy gateway: the
	// last completes no earlier than 1ms.
	completed := 0
	var last sim.Time
	for i := 0; i < 10; i++ {
		gw.Invoke(1, nil, func(backend.Result) {
			completed++
			last = s.Now()
		})
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if completed != 10 {
		t.Fatalf("completed = %d", completed)
	}
	if last < 900*time.Microsecond {
		t.Errorf("last completion at %v, want >= 900µs (serialized)", last)
	}
}

func TestGatewayAddsPipelineLatency(t *testing.T) {
	s := sim.New(1)
	inv := &fixedInvoker{s: s, service: time.Microsecond}
	gw := NewGateway(s, inv, time.Millisecond, 0)
	var at sim.Time
	gw.Invoke(1, nil, func(backend.Result) { at = s.Now() })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := time.Millisecond + time.Microsecond
	if at != sim.Time(want) {
		t.Errorf("completion at %v, want %v", at, want)
	}
}

func TestClosedLoopThroughSerialBottleneck(t *testing.T) {
	// With a serialized server, throughput is capped at 1/service no
	// matter the concurrency, and latency grows with queue depth
	// (Little's law) — the mechanism behind Table 2.
	s := sim.New(1)
	inv := &serialInvoker{s: s, service: time.Millisecond}
	res, err := ClosedLoop{
		Concurrency: 8,
		Requests:    80,
		Gen:         Fixed(1, func(i int) []byte { return nil }),
	}.Run(s, inv)
	if err != nil {
		t.Fatal(err)
	}
	tput := res.Throughput.PerSecond()
	if tput < 900 || tput > 1100 {
		t.Errorf("throughput = %v, want ~1000 (serialized)", tput)
	}
	// Latency ~ concurrency x service.
	if mean := res.Latency.Mean(); mean < 0.007 || mean > 0.009 {
		t.Errorf("mean latency = %v, want ~8ms", mean)
	}
}

func TestOpenLoopWindowOpensOnceAtTimeZero(t *testing.T) {
	// With no warmup the first measured request is issued at virtual
	// time 0, so the throughput window legitimately starts at 0. The
	// window must open exactly once: re-stamping Start on later issues
	// (the old `Start == 0` sentinel check) would shrink the window and
	// inflate throughput.
	s := sim.New(1)
	inv := &fixedInvoker{s: s, service: 10 * time.Microsecond}
	res, err := OpenLoop{
		RatePerSec: 1e6,
		Requests:   100,
		Gen:        Fixed(1, func(i int) []byte { return nil }),
	}.Run(s, inv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Start != 0 {
		t.Errorf("window start = %v, want 0 (re-stamped after first issue)", res.Throughput.Start)
	}
	if res.Throughput.Completed != 100 {
		t.Errorf("completed = %d, want 100", res.Throughput.Completed)
	}
	if res.Throughput.End <= res.Throughput.Start {
		t.Errorf("window [%v, %v] is empty", res.Throughput.Start, res.Throughput.End)
	}
}

func TestClosedLoopTracesMeasuredRequestsOnly(t *testing.T) {
	s := sim.New(1)
	inv := &fixedInvoker{s: s, service: time.Millisecond}
	col := obs.NewCollector(s.Now)
	_, err := ClosedLoop{
		Concurrency: 1,
		Requests:    5,
		Warmup:      3,
		Gen:         Labeled(7, "web", func(i int) []byte { return nil }),
		Tracer:      col,
	}.Run(s, inv)
	if err != nil {
		t.Fatal(err)
	}
	reqs := col.Requests()
	if len(reqs) != 5 {
		t.Fatalf("traced %d requests, want 5 (warmup excluded)", len(reqs))
	}
	for _, r := range reqs {
		if r.Workload != 7 || r.Label != "web" {
			t.Errorf("request %d: workload=%d label=%q", r.ID, r.Workload, r.Label)
		}
		if r.End <= r.Start {
			t.Errorf("request %d: not finished (start=%v end=%v)", r.ID, r.Start, r.End)
		}
	}
}

// TestFixedPayloadsAreNotRecycled: the load drivers hand a Fixed
// generator's payload to the target and never write it, even when every
// request of a run shares one slice.
func TestFixedPayloadsAreNotRecycled(t *testing.T) {
	s := sim.New(1)
	shared := []byte("constant")
	gen := Fixed(1, func(int) []byte { return shared })
	if _, err := (ClosedLoop{Concurrency: 2, Requests: 10, Gen: gen}).Run(s, &fixedInvoker{s: s, service: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := (OpenLoop{RatePerSec: 2000, Requests: 20, Gen: gen}).Run(s, &fixedInvoker{s: s, service: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if string(shared) != "constant" {
		t.Errorf("a Fixed payload was overwritten: %q", shared)
	}
}
