package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestAtEachMatchesScheduleAt is the differential for AtEach: a seeded
// script issues pre-drawn schedules (nondecreasing runs broken by drops,
// some times in the past) among other events on a coarse time grid, so
// ties between arrivals, and between arrivals and everything else, are
// common; callbacks schedule more events at and after their own time,
// and the script runs to horizons between batches. Issuing each schedule
// through AtEach must fire exactly what one ScheduleAt per arrival
// fires, in the same order, on both kernels.
func TestAtEachMatchesScheduleAt(t *testing.T) {
	for _, kind := range kernelKinds {
		for seed := int64(0); seed < 30; seed++ {
			want := atEachScript(t, kind, seed, false)
			got := atEachScript(t, kind, seed, true)
			if len(got) != len(want) {
				t.Fatalf("kernel %v seed %d: AtEach logged %d records, ScheduleAt %d", kind, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("kernel %v seed %d record %d: AtEach %+v, ScheduleAt %+v", kind, seed, i, got[i], want[i])
				}
			}
		}
	}
}

func atEachScript(t *testing.T, kind KernelKind, seed int64, lazy bool) []fuzzRecord {
	t.Helper()
	cmd := rand.New(rand.NewSource(seed))
	s := NewWithKernel(seed, kind)
	var log []fuzzRecord
	rec := func(id int) { log = append(log, fuzzRecord{id: id, at: s.Now()}) }
	grid := func(steps int) Time { return Time(cmd.Intn(steps)) * 100 * time.Nanosecond }
	other := 0
	var noise func(nested bool)
	noise = func(nested bool) {
		other--
		id := other
		s.Schedule(grid(40), func() {
			rec(id)
			if !nested && cmd.Intn(3) == 0 {
				noise(true)
			}
		})
	}
	issue := func(base int) {
		at := make([]Time, cmd.Intn(120))
		next := s.Now() - grid(4)
		for i := range at {
			if cmd.Intn(10) == 0 {
				next -= grid(30)
			} else {
				next += grid(3)
			}
			at[i] = next
		}
		fire := func(i int) {
			rec(base + i)
			if cmd.Intn(5) == 0 {
				noise(true)
			}
		}
		if lazy {
			s.AtEach(len(at), func(i int) Time { return at[i] }, fire)
			return
		}
		for i := range at {
			s.ScheduleAt(at[i], func() { fire(i) })
		}
	}
	for round := 0; round < 20; round++ {
		for op := 0; op < 8; op++ {
			if cmd.Intn(3) == 0 {
				issue(round*10_000 + op*1_000)
			} else {
				noise(false)
			}
		}
		if err := s.Run(s.Now() + grid(60)); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return append(log, fuzzRecord{id: int(s.Executed), at: s.Now(), end: true})
}

// TestAtEachHoldsOneEventPerRun checks the point of AtEach: a schedule
// of thousands of arrivals keeps one pending event per nondecreasing
// run, and issuing it allocates nothing per arrival (one ScheduleAt per
// arrival costs a closure and an event each). What allocations remain
// are the ladder's buckets growing to the load.
func TestAtEachHoldsOneEventPerRun(t *testing.T) {
	at := make([]Time, 10_000)
	for i := range at {
		at[i] = Time(i%5_000) * time.Microsecond // two runs
	}
	s := New(1)
	fired := 0
	s.AtEach(len(at), func(i int) Time { return at[i] }, func(int) { fired++ })
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d after AtEach of two runs, want 2", s.Pending())
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fired != len(at) || s.Executed != uint64(len(at)) {
		t.Fatalf("fired %d, executed %d, want %d", fired, s.Executed, len(at))
	}
	allocs := testing.AllocsPerRun(5, func() {
		s.AtEach(len(at), func(i int) Time { return s.Now() + at[i] }, func(int) {})
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(len(at))/10 {
		t.Fatalf("AtEach of %d arrivals allocated %.0f times, want far fewer than one per arrival", len(at), allocs)
	}
}
