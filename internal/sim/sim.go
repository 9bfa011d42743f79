// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate beneath both hardware models in this
// repository: the SmartNIC simulator (internal/nicsim) and the host-CPU
// simulator (internal/cpusim). Components schedule callbacks on a shared
// virtual clock; the kernel executes them in timestamp order, breaking
// ties by scheduling order so that runs are fully reproducible.
//
// The design is callback-driven rather than goroutine-driven: a single
// goroutine owns the event loop, which keeps execution deterministic and
// avoids any dependence on the Go runtime scheduler for simulated time.
//
// Two interchangeable queue kernels implement the same (at, seq) total
// order: the default ladder queue (a fine-grained timer wheel for the
// near-future band where almost all NIC events land, with a binary-heap
// far band) and the reference binary heap. Because the firing order is
// identical, every experiment produces bit-identical results on either
// kernel; the ladder is simply faster. Events scheduled through the
// fire-and-forget After/At/AfterArg entry points are recycled through a
// free list, so the schedule/fire hot loop allocates nothing; AtEach
// issues a pre-drawn schedule of any length through one event per
// nondecreasing run of times.
//
// parallel.go runs several independent simulations concurrently, one per
// core, for sweeps whose points never interact.
package sim

import (
	"errors"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as a duration since the
// simulation epoch (t = 0).
type Time = time.Duration

// ErrStopped is returned by Run when the simulation was halted by Stop
// before the event queue drained or the horizon was reached.
var ErrStopped = errors.New("sim: stopped")

// KernelKind selects the event-queue implementation backing a Sim. Both
// kernels fire events in the identical (at, seq) total order, so the
// choice affects throughput only, never results.
type KernelKind int

const (
	// KernelLadder is the default two-band ladder queue: a timer wheel
	// of fine-grained buckets covers the near future with O(1)
	// amortized schedule/fire, and a binary heap holds the far band,
	// merging matured entries bucket by bucket.
	KernelLadder KernelKind = iota
	// KernelHeap is the reference binary min-heap kernel — O(log n)
	// per operation, kept as the executable specification the ladder
	// is differentially tested against.
	KernelHeap
)

// String names the kernel kind.
func (k KernelKind) String() string {
	switch k {
	case KernelLadder:
		return "ladder"
	case KernelHeap:
		return "heap"
	default:
		return "unknown"
	}
}

// staleSeq marks an Event with no live queue entry (fired, cancelled,
// or never scheduled). Sequence numbers are assigned from 0 upward and
// can never reach it.
const staleSeq = ^uint64(0)

// Event is a scheduled callback. The callback runs exactly once, at the
// event's timestamp, unless cancelled first.
type Event struct {
	at  Time
	seq uint64 // matches its queue entry while pending; staleSeq otherwise
	fn  func()
	// fnArg/arg are the allocation-free callback form used by AfterArg:
	// a long-lived func(any) plus a per-fire argument, avoiding a fresh
	// closure per scheduled event on hot paths.
	fnArg func(any)
	arg   any
	// pooled events were scheduled through After/At/AfterArg — the
	// caller holds no reference, so the kernel returns them to the
	// free list when they fire.
	pooled    bool
	cancelled bool
}

// Cancelled reports whether the event was cancelled before firing.
func (e *Event) Cancelled() bool { return e.cancelled }

// entry is one queue slot: the firing key plus the event it belongs to.
// Entries are values — kernels store them in plain slices, so queue
// operations never allocate. An entry is stale (skipped when reached)
// once its event's seq no longer matches: cancellation and reschedule
// are O(1) flag flips, with the dead slot discarded lazily.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

// before reports the (at, seq) ordering the whole kernel contract rests
// on.
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// stale reports whether the entry's event was cancelled, rescheduled,
// or already fired.
func (e entry) stale() bool { return e.ev.seq != e.seq }

// kernel is the priority-queue contract shared by the ladder and heap
// implementations: entries come back in (at, seq) order, possibly
// stale — the Sim filters those.
type kernel interface {
	// push inserts an entry. at is never before the last fired time.
	push(entry)
	// first returns the earliest entry without consuming it.
	first() (entry, bool)
	// shift consumes the entry first() last returned.
	shift()
}

// Sim is a discrete-event simulation instance. The zero value is not
// usable; construct with New. Sim is not safe for concurrent use: all
// scheduling must happen from event callbacks or before Run.
type Sim struct {
	now     Time
	seq     uint64
	k       kernel
	rng     *rand.Rand
	stopped bool
	// live counts pending (non-stale) events.
	live int
	// free is the pooled-Event free list: events scheduled via
	// After/At/AfterArg return here when they fire.
	free []*Event

	// Executed counts events that have fired, for diagnostics.
	Executed uint64
}

// New returns a simulation with its clock at zero, the default ladder
// kernel, and a deterministic random source seeded with seed.
func New(seed int64) *Sim { return NewWithKernel(seed, KernelLadder) }

// NewWithKernel is New with an explicit queue kernel.
func NewWithKernel(seed int64, kind KernelKind) *Sim {
	s := &Sim{rng: rand.New(rand.NewSource(seed))}
	if kind == KernelHeap {
		s.k = &heapKernel{}
	} else {
		s.k = newLadder(defaultGranularity, defaultBuckets)
	}
	return s
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source. Components
// must use this source (never the global one) so runs stay reproducible.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// schedule is the single insertion point behind every public variant.
func (s *Sim) schedule(at Time, fn func(), fnArg func(any), arg any, pooled bool) *Event {
	if at < s.now {
		at = s.now
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		e = &Event{}
	}
	e.at, e.seq = at, s.seq
	e.fn, e.fnArg, e.arg = fn, fnArg, arg
	e.pooled, e.cancelled = pooled, false
	s.k.push(entry{at: at, seq: s.seq, ev: e})
	s.seq++
	s.live++
	return e
}

// Schedule runs fn after delay of virtual time. A negative delay is
// treated as zero. It returns the event so callers may cancel or
// reschedule it; the event is caller-owned and never recycled. Prefer
// After on hot paths that discard the handle.
func (s *Sim) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return s.schedule(s.now+delay, fn, nil, nil, false)
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to the current time.
func (s *Sim) ScheduleAt(at Time, fn func()) *Event {
	return s.schedule(at, fn, nil, nil, false)
}

// After runs fn after delay of virtual time, fire-and-forget: no handle
// is returned, and the backing Event recycles through the kernel's free
// list when it fires — the zero-allocation fast path for the per-packet
// scheduling the hardware models do.
func (s *Sim) After(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.schedule(s.now+delay, fn, nil, nil, true)
}

// At is After with an absolute virtual time (clamped to now).
func (s *Sim) At(at Time, fn func()) {
	s.schedule(at, fn, nil, nil, true)
}

// AfterArg is After for callbacks that would otherwise close over one
// hot-path value: fn is typically a long-lived method value and arg the
// per-fire payload (a pointer, so the interface conversion does not
// allocate). Together with the pooled Event this makes schedule/fire
// allocation-free.
func (s *Sim) AfterArg(delay Time, fn func(any), arg any) {
	if delay < 0 {
		delay = 0
	}
	s.schedule(s.now+delay, nil, fn, arg, true)
}

// AtEach schedules fire(0), …, fire(n-1) at the virtual times at(0), …,
// at(n-1), ordered exactly as n ScheduleAt calls made now in index
// order would be: it takes the next n sequence numbers, so an event that
// ties with one of them on time fires before or after it just as it
// would then. What differs is the cost. Each maximal run of
// nondecreasing times is one caller-owned event that re-arms itself for
// the next index when it fires, so a pre-drawn arrival schedule holds
// one queue entry per run instead of one per arrival, and nothing is
// allocated per arrival. at must return the same time every time it is
// asked for index i; times before now are clamped to now, as in
// ScheduleAt.
func (s *Sim) AtEach(n int, at func(i int) Time, fire func(i int)) {
	when := func(i int) Time { return max(at(i), s.now) }
	start, seq := 0, s.seq
	for i := 1; i <= n; i++ {
		if i < n && when(i) >= when(i-1) {
			continue
		}
		r := &eachRun{s: s, i: start, end: i, seq: seq + uint64(start), at: at, fire: fire}
		r.ev.fn = r.next
		r.arm()
		start = i
	}
	s.seq += uint64(n)
}

// eachRun walks one nondecreasing run of an AtEach schedule with one
// event.
type eachRun struct {
	s      *Sim
	i, end int    // the pending index and the run's end
	seq    uint64 // the sequence number AtEach gave index i
	at     func(int) Time
	fire   func(int)
	ev     Event
}

// arm queues the event for index r.i under its reserved sequence number.
func (r *eachRun) arm() {
	at := max(r.at(r.i), r.s.now)
	r.ev.at, r.ev.seq = at, r.seq
	r.s.k.push(entry{at: at, seq: r.seq, ev: &r.ev})
	r.s.live++
}

// next fires index r.i after arming the run's next index.
func (r *eachRun) next() {
	i := r.i
	if r.i, r.seq = r.i+1, r.seq+1; r.i < r.end {
		r.arm()
	}
	r.fire(i)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op. The queue slot is discarded
// lazily when reached, so Cancel is O(1).
func (s *Sim) Cancel(e *Event) {
	if e == nil {
		return
	}
	if e.seq != staleSeq {
		e.seq = staleSeq
		s.live--
	}
	e.cancelled = true
}

// Reschedule re-arms an event to fire delay after the current time,
// returning the (reused) event. It is the retransmit-timer fast path: a
// pending event's old slot goes stale in place, and a fired or
// cancelled event is re-armed without allocating a new Event. The event
// keeps its callback and is ordered as if freshly scheduled. A nil
// event returns nil.
func (s *Sim) Reschedule(e *Event, delay Time) *Event {
	if e == nil {
		return nil
	}
	if delay < 0 {
		delay = 0
	}
	if e.seq == staleSeq {
		s.live++
	}
	e.at = s.now + delay
	e.seq = s.seq
	e.cancelled = false
	s.k.push(entry{at: e.at, seq: e.seq, ev: e})
	s.seq++
	return e
}

// Stop halts the event loop after the current callback returns.
func (s *Sim) Stop() { s.stopped = true }

// Stopped reports whether Stop has halted the loop. Run clears it.
func (s *Sim) Stopped() bool { return s.stopped }

// Pending returns the number of events waiting to fire.
func (s *Sim) Pending() int { return s.live }

// peek returns the earliest pending entry, discarding stale slots.
func (s *Sim) peek() (entry, bool) {
	for {
		en, ok := s.k.first()
		if !ok {
			return entry{}, false
		}
		if en.stale() {
			s.k.shift()
			continue
		}
		return en, true
	}
}

// fire consumes and executes the entry peek returned. Pooled events are
// recycled before the callback runs, so a callback scheduling new
// pooled work reuses the Event it was invoked from.
func (s *Sim) fire(en entry) {
	s.k.shift()
	e := en.ev
	e.seq = staleSeq
	s.live--
	s.now = en.at
	s.Executed++
	fn, fnArg, arg := e.fn, e.fnArg, e.arg
	if e.pooled {
		e.fn, e.fnArg, e.arg = nil, nil, nil
		s.free = append(s.free, e)
	}
	if fnArg != nil {
		fnArg(arg)
		return
	}
	fn()
}

// Run executes events until the queue drains, the clock passes horizon,
// or Stop is called. A zero horizon means no time limit. It returns
// ErrStopped if halted by Stop, and nil otherwise.
func (s *Sim) Run(horizon Time) error {
	s.stopped = false
	for {
		if s.stopped {
			return ErrStopped
		}
		en, ok := s.peek()
		if !ok {
			break
		}
		if horizon > 0 && en.at > horizon {
			s.now = horizon
			return nil
		}
		s.fire(en)
	}
	if horizon > 0 && s.now < horizon {
		s.now = horizon
	}
	return nil
}

// RunUntilIdle executes events until none remain, with no time horizon.
func (s *Sim) RunUntilIdle() error { return s.Run(0) }

// Step executes exactly one event. It returns false — executing
// nothing — when the queue is empty or the simulation is stopped (Run
// clears the stopped flag).
func (s *Sim) Step() bool {
	if s.stopped {
		return false
	}
	en, ok := s.peek()
	if !ok {
		return false
	}
	s.fire(en)
	return true
}

// StepUntil is Step bounded by a horizon the way Run is: an event past
// the horizon does not fire, and the clock advances to the horizon
// instead (a zero horizon means no limit). It returns false when
// nothing fired.
func (s *Sim) StepUntil(horizon Time) bool {
	if s.stopped {
		return false
	}
	en, ok := s.peek()
	if !ok || (horizon > 0 && en.at > horizon) {
		if horizon > 0 && s.now < horizon {
			s.now = horizon
		}
		return false
	}
	s.fire(en)
	return true
}

// CyclesToDuration converts a cycle count at the given clock frequency
// to virtual time, rounding to the nearest nanosecond. It is the single
// conversion point used by both hardware simulators, so cycle accounting
// is consistent across them.
func CyclesToDuration(cycles uint64, hz uint64) Time {
	if hz == 0 {
		return 0
	}
	// Split to avoid overflow for large cycle counts: whole seconds
	// first, then the fractional remainder at nanosecond resolution.
	sec := cycles / hz
	rem := cycles % hz
	ns := (rem*1e9 + hz/2) / hz
	return Time(sec)*time.Second + Time(ns)
}

// DurationToCycles converts virtual time to cycles at the given clock
// frequency, rounding to the nearest cycle.
func DurationToCycles(d Time, hz uint64) uint64 {
	if d <= 0 || hz == 0 {
		return 0
	}
	ns := uint64(d)
	sec := ns / 1e9
	rem := ns % 1e9
	return sec*hz + (rem*hz+5e8)/1e9
}
