package monitor

import (
	"runtime"
	"testing"
	"time"
)

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkRender(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 10; i++ {
		r.MustCounter("c", "", map[string]string{"i": string(rune('a' + i))}).Add(uint64(i))
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i) / 1e4
	}
	snap := snapshotOf(FineLatencyBuckets, samples...)
	if err := r.HistogramFunc("lat", "", nil, func() HistogramSnapshot { return snap }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := r.Render(); len(out) == 0 {
			b.Fatal("empty render")
		}
	}
}

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

// BenchmarkSLOTrackerObserve prices the tracker's hot path (histogram
// + nothing else: rolling happens on read).
func BenchmarkSLOTrackerObserve(b *testing.B) {
	tr, err := NewSLOTracker(time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Observe(1500, false)
	}
}
