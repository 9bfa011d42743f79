package telemetry

import (
	"runtime"
	"testing"
)

// The contended benchmark forces 8-way parallelism regardless of the
// host's core count: RunParallel spawns GOMAXPROCS goroutines, so we
// pin GOMAXPROCS to 8 for the duration of the benchmark.
func with8Procs(b *testing.B, fn func(b *testing.B)) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	fn(b)
}

// BenchmarkHistogramObserveParallel prices the lock-free sharded
// histogram under 8-goroutine contention — the always-on cost of a
// latency sample on the gateway and worker request paths.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	with8Procs(b, func(b *testing.B) {
		h := NewHistogram()
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			v := int64(1)
			for pb.Next() {
				h.Observe(v)
				v = (v*2862933555777941757 + 3037000493) & maxValue
			}
		})
	})
}

// BenchmarkHistogramObserve is the uncontended single-goroutine cost.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// BenchmarkHistogramSnapshot prices the read path (scrape-time cost).
func BenchmarkHistogramSnapshot(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < 100000; i++ {
		h.Observe(int64(i))
	}
	var s HistSnapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SnapshotInto(&s)
	}
}

// BenchmarkWindowedObserve prices the windowed hot path (histogram +
// nothing else: rolling happens on read).
func BenchmarkWindowedObserve(b *testing.B) {
	w := NewWindowed(WindowConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Observe(1500, false)
	}
}
