package monitor

import "testing"

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
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
