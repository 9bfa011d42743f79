package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(30*time.Nanosecond, func() { got = append(got, 3) })
	s.Schedule(10*time.Nanosecond, func() { got = append(got, 1) })
	s.Schedule(20*time.Nanosecond, func() { got = append(got, 2) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Nanosecond {
		t.Errorf("Now() = %v, want 30ns", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5*time.Nanosecond, func() { got = append(got, i) })
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order = %v, want ascending", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var fired int
	s.Schedule(time.Microsecond, func() {
		s.Schedule(time.Microsecond, func() {
			fired++
		})
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if fired != 1 {
		t.Fatalf("nested event fired %d times, want 1", fired)
	}
	if s.Now() != 2*time.Microsecond {
		t.Errorf("Now() = %v, want 2µs", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(time.Millisecond, func() { fired = true })
	s.Cancel(e)
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
	// Double-cancel and nil-cancel must be no-ops.
	s.Cancel(e)
	s.Cancel(nil)
}

func TestHorizonStopsClock(t *testing.T) {
	s := New(1)
	fired := false
	s.Schedule(10*time.Millisecond, func() { fired = true })
	if err := s.Run(time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("event beyond horizon fired")
	}
	if s.Now() != time.Millisecond {
		t.Errorf("Now() = %v, want 1ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
	// Resuming past the horizon fires the event.
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if !fired {
		t.Error("event did not fire after horizon extended")
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	var count int
	for i := 0; i < 5; i++ {
		s.Schedule(time.Duration(i)*time.Nanosecond, func() {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	if err := s.Run(0); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 2 {
		t.Errorf("executed %d events before stop, want 2", count)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	fired := false
	s.Schedule(-time.Second, func() { fired = true })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if !fired || s.Now() != 0 {
		t.Errorf("fired=%v now=%v, want fired at t=0", fired, s.Now())
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	s := New(1)
	var at Time
	s.Schedule(time.Second, func() {
		s.ScheduleAt(0, func() { at = s.Now() })
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if at != time.Second {
		t.Errorf("past-scheduled event ran at %v, want clamped to 1s", at)
	}
}

func TestStep(t *testing.T) {
	s := New(1)
	s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	if !s.Step() || !s.Step() {
		t.Fatal("Step returned false with events pending")
	}
	if s.Step() {
		t.Fatal("Step returned true with empty queue")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		s := New(42)
		var order []int
		for i := 0; i < 100; i++ {
			i := i
			d := time.Duration(s.Rand().Intn(1000)) * time.Nanosecond
			s.Schedule(d, func() { order = append(order, i) })
		}
		if err := s.RunUntilIdle(); err != nil {
			t.Fatalf("RunUntilIdle: %v", err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestCyclesToDuration(t *testing.T) {
	tests := []struct {
		name   string
		cycles uint64
		hz     uint64
		want   time.Duration
	}{
		{"one cycle at 1GHz", 1, 1e9, time.Nanosecond},
		{"633MHz cycle rounds", 1, 633e6, 2 * time.Nanosecond}, // 1.58ns -> 2ns
		{"one second worth", 633e6, 633e6, time.Second},
		{"zero hz", 100, 0, 0},
		{"large count no overflow", 2e18, 1e9, 2e9 * time.Second},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CyclesToDuration(tt.cycles, tt.hz); got != tt.want {
				t.Errorf("CyclesToDuration(%d, %d) = %v, want %v", tt.cycles, tt.hz, got, tt.want)
			}
		})
	}
}

// durationToCycles converts virtual time to cycles at the given clock
// frequency, rounding to the nearest cycle: the inverse the round-trip
// property checks CyclesToDuration's rounding against.
func durationToCycles(d Time, hz uint64) uint64 {
	if d <= 0 || hz == 0 {
		return 0
	}
	ns := uint64(d)
	sec := ns / 1e9
	rem := ns % 1e9
	return sec*hz + (rem*hz+5e8)/1e9
}

func TestCycleConversionRoundTrip(t *testing.T) {
	// Property: converting cycles -> duration -> cycles is within one
	// cycle of the original for realistic clock rates.
	f := func(c uint32) bool {
		const hz = 633e6
		cycles := uint64(c)
		back := durationToCycles(CyclesToDuration(cycles, hz), hz)
		diff := int64(back) - int64(cycles)
		return diff >= -1 && diff <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExecutedCounter(t *testing.T) {
	s := New(1)
	for i := 0; i < 7; i++ {
		s.Schedule(time.Duration(i), func() {})
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if s.Executed != 7 {
		t.Errorf("Executed = %d, want 7", s.Executed)
	}
}

func TestReschedulePendingEventMovesLater(t *testing.T) {
	// The retransmit-timer shape: a pending timeout is pushed later
	// without firing at its original time.
	s := New(1)
	var fired []Time
	ev := s.Schedule(10*time.Millisecond, func() { fired = append(fired, s.Now()) })
	s.Schedule(5*time.Millisecond, func() {
		s.Reschedule(ev, 20*time.Millisecond) // now fires at t=25ms
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 25*time.Millisecond {
		t.Errorf("fired = %v, want [25ms]", fired)
	}
}

func TestRescheduleEarlier(t *testing.T) {
	s := New(1)
	var at Time = -1
	ev := s.Schedule(100*time.Millisecond, func() { at = s.Now() })
	s.Schedule(time.Millisecond, func() { s.Reschedule(ev, time.Millisecond) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if at != 2*time.Millisecond {
		t.Errorf("fired at %v, want 2ms", at)
	}
}

func TestRescheduleFiredEventReArms(t *testing.T) {
	// Rescheduling from inside the event's own callback re-arms the
	// same Event without a fresh allocation; the periodic-poll shape.
	s := New(1)
	count := 0
	var ev *Event
	ev = s.Schedule(time.Millisecond, func() {
		count++
		if count < 3 {
			if got := s.Reschedule(ev, time.Millisecond); got != ev {
				t.Errorf("Reschedule returned a different event")
			}
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
}

func TestRescheduleCancelledEventReArms(t *testing.T) {
	s := New(1)
	fired := false
	ev := s.Schedule(time.Millisecond, func() { fired = true })
	s.Cancel(ev)
	if !ev.Cancelled() {
		t.Fatal("event not cancelled")
	}
	s.Reschedule(ev, 2*time.Millisecond)
	if ev.Cancelled() {
		t.Error("rescheduled event still reports cancelled")
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("re-armed event did not fire")
	}
}

func TestRescheduleNil(t *testing.T) {
	s := New(1)
	if got := s.Reschedule(nil, time.Millisecond); got != nil {
		t.Errorf("Reschedule(nil) = %v", got)
	}
}

func TestRescheduleOrdersAsFreshlyScheduled(t *testing.T) {
	// A rescheduled event landing on the same timestamp as a later
	// Schedule call fires first only if rescheduled first — ties break
	// by (re)scheduling order.
	s := New(1)
	var order []string
	a := s.Schedule(50*time.Millisecond, func() { order = append(order, "a") })
	s.Schedule(time.Millisecond, func() {
		s.Reschedule(a, 9*time.Millisecond) // t=10ms, re-armed before b scheduled
		s.Schedule(9*time.Millisecond, func() { order = append(order, "b") })
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("order = %v, want [a b]", order)
	}
}
