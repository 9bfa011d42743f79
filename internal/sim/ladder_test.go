package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// kernelKinds enumerates both queue implementations for tests that must
// hold on each.
var kernelKinds = []KernelKind{KernelHeap, KernelLadder}

// TestKernelsFireIdentically drives the heap and ladder kernels through
// the same scripted schedule and requires the identical fire sequence —
// the executable statement of the "same (at, seq) total order" contract.
func TestKernelsFireIdentically(t *testing.T) {
	script := func(s *Sim) []Time {
		var fired []Time
		rec := func() { fired = append(fired, s.Now()) }
		// Mix of near band, far band, ties, and nested scheduling.
		for _, d := range []Time{500 * time.Nanosecond, 10 * time.Millisecond,
			500 * time.Nanosecond, 0, 3 * time.Microsecond, 2 * time.Millisecond} {
			s.Schedule(d, rec)
		}
		s.Schedule(time.Microsecond, func() {
			rec()
			s.Schedule(100*time.Nanosecond, rec)
			s.Schedule(5*time.Millisecond, rec)
		})
		if err := s.RunUntilIdle(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return fired
	}
	heap := script(NewWithKernel(1, KernelHeap))
	ladder := script(NewWithKernel(1, KernelLadder))
	if len(heap) != len(ladder) {
		t.Fatalf("fired %d events on heap, %d on ladder", len(heap), len(ladder))
	}
	for i := range heap {
		if heap[i] != ladder[i] {
			t.Fatalf("fire %d: heap at %v, ladder at %v", i, heap[i], ladder[i])
		}
	}
}

// wheelSizes are the ladder wheels the differential tests hold to the
// heap: the default, and 64 buckets — a single bitmap word and an 8 µs
// window, which the schedules below wrap and spill past constantly.
var wheelSizes = []int{defaultBuckets, 64}

// newLadderSim is a ladder Sim with an nb-bucket wheel.
func newLadderSim(seed int64, nb int) *Sim {
	s := NewWithKernel(seed, KernelHeap)
	s.k = newLadder(defaultGranularity, nb)
	return s
}

func newHeapSim(seed int64) *Sim { return NewWithKernel(seed, KernelHeap) }

// checkOccupancy fails the test unless a ladder's bitmap marks exactly
// its non-empty wheel slots. A stale bit costs scans, never order, so no
// fire-order differential can see one.
func checkOccupancy(t *testing.T, s *Sim) {
	t.Helper()
	l, ok := s.k.(*ladder)
	if !ok {
		return
	}
	for i, b := range l.buckets {
		if set := l.occ[i>>6]>>(i&63)&1 == 1; set != (len(b) > 0) {
			t.Fatalf("wheel slot %d holds %d entries, occupancy bit %v", i, len(b), set)
		}
	}
}

// sameLog fails the test at the first difference between two kernels'
// logs.
func sameLog(t *testing.T, what string, heap, ladder []fuzzRecord) {
	t.Helper()
	if len(heap) != len(ladder) {
		t.Fatalf("%s: heap log %d entries, ladder log %d", what, len(heap), len(ladder))
	}
	for i := range heap {
		if heap[i] != ladder[i] {
			t.Fatalf("%s entry %d: heap %+v, ladder %+v", what, i, heap[i], ladder[i])
		}
	}
}

// TestKernelFuzzDifferential is the seeded fuzz half of the determinism
// differential: random interleavings of schedule / cancel / reschedule /
// horizon-bounded runs on both kernels must produce the identical fire
// order, executed counts, and final clocks.
func TestKernelFuzzDifferential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		heapLog := fuzzKernel(t, newHeapSim, seed)
		for _, nb := range wheelSizes {
			ladderLog := fuzzKernel(t, func(seed int64) *Sim { return newLadderSim(seed, nb) }, seed)
			sameLog(t, fmt.Sprintf("seed %d, %d buckets", seed, nb), heapLog, ladderLog)
		}
	}
}

// TestKernelSparseDifferential drives schedules whose gaps are 0.5–1.5
// wheel widths, mixed with far-band timers: the ladder's next bucket is
// then usually thousands of empty buckets past the window floor or
// beyond the window, so the bitmap scan crosses words, wraps the wheel,
// and often comes up empty.
func TestKernelSparseDifferential(t *testing.T) {
	for _, nb := range wheelSizes {
		width := Time(nb) * defaultGranularity
		script := func(s *Sim) []fuzzRecord {
			rng := rand.New(rand.NewSource(int64(nb)))
			var log []fuzzRecord
			var tick func(arg any)
			tick = func(arg any) {
				id := arg.(int)
				log = append(log, fuzzRecord{id: id, at: s.Now()})
				if len(log)%500 == 0 {
					checkOccupancy(t, s)
				}
				if len(log) >= 4000 {
					return
				}
				gap := width/2 + Time(rng.Int63n(int64(width)))
				if rng.Intn(6) == 0 {
					gap = Time(2+rng.Intn(40)) * width // far band
				}
				s.AfterArg(gap, tick, id)
			}
			for id := 0; id < 8; id++ {
				s.AfterArg(Time(rng.Int63n(int64(3*width))), tick, id)
			}
			if err := s.RunUntilIdle(); err != nil {
				t.Fatalf("run: %v", err)
			}
			return append(log, fuzzRecord{id: int(s.Executed), at: s.Now(), end: true})
		}
		sameLog(t, fmt.Sprintf("%d buckets", nb), script(newHeapSim(1)), script(newLadderSim(1, nb)))
	}
}

// TestLadderRejectsNarrowWheel: the occupancy bitmap scans whole words,
// so a wheel narrower than one word is refused rather than mis-scanned.
func TestLadderRejectsNarrowWheel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newLadder accepted a 32-bucket wheel")
		}
	}()
	newLadder(defaultGranularity, 32)
}

// fuzzRecord is one observable kernel fact: which event fired at what
// clock, plus the run's closing state.
type fuzzRecord struct {
	id  int
	at  Time
	end bool
}

// fuzzKernel runs a deterministic pseudo-random command stream against
// the Sim newSim builds and returns the observable log. The command RNG
// is separate from the Sim's RNG so every kernel sees the same stream.
func fuzzKernel(t *testing.T, newSim func(seed int64) *Sim, seed int64) []fuzzRecord {
	t.Helper()
	cmd := rand.New(rand.NewSource(seed))
	s := newSim(seed)
	var log []fuzzRecord
	var handles []*Event
	nextID := 0

	// Delays span all ladder regimes: same bucket, in-window, far band.
	randDelay := func() Time {
		switch cmd.Intn(4) {
		case 0:
			return Time(cmd.Intn(200)) // sub-granularity ties
		case 1:
			return Time(cmd.Intn(int(50 * time.Microsecond)))
		case 2:
			return Time(cmd.Intn(int(5 * time.Millisecond)))
		default:
			return Time(cmd.Intn(int(200 * time.Millisecond)))
		}
	}
	schedule := func() {
		id := nextID
		nextID++
		ev := s.Schedule(randDelay(), func() {
			log = append(log, fuzzRecord{id: id, at: s.Now()})
		})
		handles = append(handles, ev)
	}

	for round := 0; round < 60; round++ {
		for op := 0; op < 30; op++ {
			switch cmd.Intn(10) {
			case 0, 1, 2, 3, 4:
				schedule()
			case 5:
				if len(handles) > 0 {
					s.Cancel(handles[cmd.Intn(len(handles))])
				}
			case 6, 7:
				if len(handles) > 0 {
					s.Reschedule(handles[cmd.Intn(len(handles))], randDelay())
				}
			case 8:
				s.After(randDelay(), func() {
					log = append(log, fuzzRecord{id: -1, at: s.Now()})
				})
			default:
				id := nextID
				nextID++
				s.AfterArg(randDelay(), func(arg any) {
					log = append(log, fuzzRecord{id: *(arg.(*int)), at: s.Now()})
				}, &id)
			}
		}
		// Alternate horizon-bounded runs (forcing clock jumps and
		// window rewinds on the ladder) with stepping.
		switch cmd.Intn(3) {
		case 0:
			horizon := s.Now() + randDelay()
			if err := s.Run(horizon); err != nil {
				t.Fatalf("run: %v", err)
			}
		case 1:
			for i := 0; i < cmd.Intn(40); i++ {
				if !s.Step() {
					break
				}
			}
		default:
			for i := 0; i < cmd.Intn(40); i++ {
				if !s.StepUntil(s.Now() + randDelay()) {
					break
				}
			}
		}
		checkOccupancy(t, s)
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if s.Pending() != 0 {
		t.Fatalf("seed %d: %d events still pending after drain", seed, s.Pending())
	}
	log = append(log, fuzzRecord{id: int(s.Executed), at: s.Now(), end: true})
	return log
}

// TestLadderRewind exercises the rare window-rewind path directly: a
// horizon stop materializes a far-band bucket (jumping the window
// forward), then a later schedule lands below the window floor.
func TestLadderRewind(t *testing.T) {
	for _, nb := range wheelSizes {
		s := newLadderSim(1, nb)
		var fired []Time
		rec := func() { fired = append(fired, s.Now()) }
		s.Schedule(10*time.Millisecond, rec) // far band
		// Run to a horizon before it: peeking materializes the 10ms bucket.
		if err := s.Run(2 * time.Millisecond); err != nil {
			t.Fatalf("%d buckets: run: %v", nb, err)
		}
		if s.Now() != 2*time.Millisecond {
			t.Fatalf("%d buckets: clock at %v, want 2ms", nb, s.Now())
		}
		// Now schedule below the materialized window: must still fire first.
		s.Schedule(time.Millisecond, rec) // fires at 3ms < 10ms
		s.Schedule(100*time.Microsecond, rec)
		checkOccupancy(t, s)
		if err := s.RunUntilIdle(); err != nil {
			t.Fatalf("%d buckets: drain: %v", nb, err)
		}
		want := []Time{2100 * time.Microsecond, 3 * time.Millisecond, 10 * time.Millisecond}
		if len(fired) != len(want) {
			t.Fatalf("%d buckets: fired %v, want %v", nb, fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("%d buckets: fire %d at %v, want %v", nb, i, fired[i], want[i])
			}
		}
	}
}

// TestStepHonorsStopped is the regression test for the satellite fix:
// Step used to pop events even after Stop.
func TestStepHonorsStopped(t *testing.T) {
	for _, kind := range kernelKinds {
		s := NewWithKernel(1, kind)
		fired := 0
		s.Schedule(time.Microsecond, func() { fired++ })
		s.Schedule(2*time.Microsecond, func() { fired++ })
		s.Stop()
		if s.Step() {
			t.Fatalf("kernel %v: Step executed an event while stopped", kind)
		}
		if fired != 0 {
			t.Fatalf("kernel %v: %d events fired while stopped", kind, fired)
		}
		if !s.Stopped() {
			t.Fatalf("kernel %v: Stopped() lost the flag", kind)
		}
		// Run clears the flag, exactly as before the fix.
		if err := s.RunUntilIdle(); err != nil {
			t.Fatalf("kernel %v: run: %v", kind, err)
		}
		if fired != 2 {
			t.Fatalf("kernel %v: fired %d, want 2", kind, fired)
		}
	}
}

// TestStepUntilHorizon verifies StepUntil clamps to the horizon the way
// Run does: events past it do not fire and the clock parks at the
// horizon.
func TestStepUntilHorizon(t *testing.T) {
	s := New(1)
	fired := 0
	s.Schedule(time.Microsecond, func() { fired++ })
	s.Schedule(time.Millisecond, func() { fired++ })
	if !s.StepUntil(10 * time.Microsecond) {
		t.Fatal("first StepUntil should fire the 1µs event")
	}
	if fired != 1 || s.Now() != time.Microsecond {
		t.Fatalf("after first step: fired=%d now=%v", fired, s.Now())
	}
	if s.StepUntil(10 * time.Microsecond) {
		t.Fatal("second StepUntil should not fire past the horizon")
	}
	if s.Now() != 10*time.Microsecond {
		t.Fatalf("clock at %v, want horizon 10µs", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending %d, want 1", s.Pending())
	}
	// Zero horizon means unbounded, like Run.
	if !s.StepUntil(0) {
		t.Fatal("unbounded StepUntil should fire the 1ms event")
	}
	if fired != 2 {
		t.Fatalf("fired %d, want 2", fired)
	}
}

// TestPooledAPIs exercises After/At/AfterArg ordering and free-list
// reuse across both kernels.
func TestPooledAPIs(t *testing.T) {
	for _, kind := range kernelKinds {
		s := NewWithKernel(1, kind)
		var order []int
		s.After(3*time.Microsecond, func() { order = append(order, 3) })
		s.At(s.Now()+time.Microsecond, func() { order = append(order, 1) })
		x := 2
		s.AfterArg(2*time.Microsecond, func(arg any) {
			order = append(order, *(arg.(*int)))
		}, &x)
		s.After(-time.Second, func() { order = append(order, 0) }) // clamps to now
		if err := s.RunUntilIdle(); err != nil {
			t.Fatalf("kernel %v: run: %v", kind, err)
		}
		want := []int{0, 1, 2, 3}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("kernel %v: order %v, want %v", kind, order, want)
			}
		}
		if len(s.free) == 0 {
			t.Fatalf("kernel %v: pooled events did not return to the free list", kind)
		}
	}
}

// TestPooledEventReuse checks the free list actually recycles: a chain
// of pooled events must settle on a bounded free list rather than
// allocating per link.
func TestPooledEventReuse(t *testing.T) {
	s := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			s.After(time.Microsecond, tick)
		}
	}
	s.After(time.Microsecond, tick)
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 1000 {
		t.Fatalf("ticks %d, want 1000", n)
	}
	// The chain keeps at most one event in flight; the pool should hold
	// a handful, not a thousand.
	if len(s.free) > 4 {
		t.Fatalf("free list grew to %d for a depth-1 chain", len(s.free))
	}
}

// TestScheduleEventNotPooled: events returned by Schedule are
// caller-owned and must never enter the free list, even after firing —
// callers hold the handle for Reschedule.
func TestScheduleEventNotPooled(t *testing.T) {
	s := New(1)
	ev := s.Schedule(time.Microsecond, func() {})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(s.free) != 0 {
		t.Fatalf("caller-owned event leaked into the free list")
	}
	// The handle must still be usable.
	fired := false
	s.Reschedule(ev, time.Microsecond)
	ev2 := s.Schedule(2*time.Microsecond, func() { fired = true })
	_ = ev2
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !fired {
		t.Fatal("second schedule did not fire")
	}
}

// TestLadderInsertIntoDrainingBucket covers the binary-insert path: a
// callback schedules a new event inside the bucket currently draining.
func TestLadderInsertIntoDrainingBucket(t *testing.T) {
	s := New(1)
	var order []int
	// All three initial events share virtual bucket 0 (at < 128ns).
	s.Schedule(10, func() {
		order = append(order, 1)
		s.Schedule(20, func() { order = append(order, 3) }) // at=30, same bucket
		s.Schedule(5, func() { order = append(order, 2) })  // at=15, same bucket
	})
	s.Schedule(100, func() { order = append(order, 4) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, want := range []int{1, 2, 3, 4} {
		if order[i] != want {
			t.Fatalf("order %v", order)
		}
	}
}

// TestKernelKindString pins the names used in benchmark rows and flags.
func TestKernelKindString(t *testing.T) {
	if KernelLadder.String() != "ladder" || KernelHeap.String() != "heap" {
		t.Fatalf("kernel names changed: %v %v", KernelLadder, KernelHeap)
	}
	if KernelKind(9).String() != "unknown" {
		t.Fatal("unknown kind should stringify as unknown")
	}
}
