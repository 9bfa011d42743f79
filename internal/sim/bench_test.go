package sim

import (
	"testing"
	"time"
)

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		for e := 0; e < 1000; e++ {
			s.Schedule(time.Duration(e)*time.Nanosecond, func() {})
		}
		if err := s.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1000, "events/iter")
}

func BenchmarkNestedEventChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New(1)
		depth := 0
		var next func()
		next = func() {
			depth++
			if depth < 1000 {
				s.Schedule(time.Nanosecond, next)
			}
		}
		s.Schedule(0, next)
		if err := s.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSteady is the scheduling microbenchmark shape the simbench
// experiment also uses: a large steady-state population of outstanding
// events, each firing and rescheduling itself with a NIC-like delay
// mixture (mostly µs-scale service events, some wire/RDMA delays, a
// trickle of far-band control timers) — the regime where heap O(log n)
// and per-event allocation hurt most.
func benchSteady(b *testing.B, kind KernelKind, pooled bool, outstanding int) {
	b.ReportAllocs()
	s := NewWithKernel(1, kind)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		var d Time
		switch fired % 10 {
		case 0:
			d = 10 * time.Millisecond // control plane: far band
		case 1, 2:
			d = Time(40+fired%20) * time.Microsecond // wire/RDMA
		default:
			d = Time(1000+fired%9000) * time.Nanosecond // NIC service
		}
		if pooled {
			s.After(d, tick)
		} else {
			s.Schedule(d, tick)
		}
	}
	for e := 0; e < outstanding; e++ {
		s.Schedule(Time(e)*time.Microsecond, tick)
	}
	b.ResetTimer()
	for fired < b.N {
		if !s.Step() {
			b.Fatal("queue drained")
		}
	}
}

// BenchmarkLadderSparse is the regime where finding the next bucket is
// the ladder's whole cost: four outstanding events, each rescheduling
// itself 0.5–1.5 wheel widths ahead, so a scan for the next non-empty
// bucket crosses thousands of empty ones or finds none before the far
// band's top.
func BenchmarkLadderSparse(b *testing.B) {
	s := New(1)
	width := uint64(defaultBuckets) * uint64(defaultGranularity)
	fired := uint64(0)
	var tick func()
	tick = func() {
		fired++
		s.After(Time(width/2+fired*0x9E3779B97F4A7C15%width), tick)
	}
	for e := uint64(0); e < 4; e++ {
		s.After(Time(e*width/4), tick)
	}
	b.ResetTimer()
	for fired < uint64(b.N) {
		if !s.Step() {
			b.Fatal("queue drained")
		}
	}
}

func BenchmarkSteadyHeap(b *testing.B)         { benchSteady(b, KernelHeap, false, 32768) }
func BenchmarkSteadyLadder(b *testing.B)       { benchSteady(b, KernelLadder, false, 32768) }
func BenchmarkSteadyLadderPooled(b *testing.B) { benchSteady(b, KernelLadder, true, 32768) }
func BenchmarkSteadyHeapPooled(b *testing.B)   { benchSteady(b, KernelHeap, true, 32768) }
