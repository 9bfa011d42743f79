package monitor

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexMonotone(t *testing.T) {
	// Every bucket's upper bound must map back to its own index, and the
	// next value must map to the next bucket.
	for i := 0; i < nBuckets; i++ {
		ub := BucketUpper(i)
		if got := bucketIndex(ub); got != i {
			t.Fatalf("bucketIndex(BucketUpper(%d)=%d) = %d", i, ub, got)
		}
		if ub < maxValue {
			if got := bucketIndex(ub + 1); got != i+1 {
				t.Fatalf("bucketIndex(%d) = %d, want %d", ub+1, got, i+1)
			}
		}
	}
	if got := bucketIndex(maxValue); got != nBuckets-1 {
		t.Fatalf("bucketIndex(maxValue) = %d, want %d", got, nBuckets-1)
	}
}

func TestBucketRelativeError(t *testing.T) {
	// Log-linear with 32 sub-buckets bounds relative error at ~1/32.
	for _, v := range []int64{100, 999, 12345, 1e6, 1e9, 5e10} {
		i := bucketIndex(v)
		lower := int64(0)
		if i > 0 {
			lower = BucketUpper(i-1) + 1
		}
		width := BucketUpper(i) - lower + 1
		if relErr := float64(width) / float64(v); relErr > 1.0/subCount+1e-9 {
			t.Errorf("value %d: bucket width %d gives relative error %.4f > %.4f",
				v, width, relErr, 1.0/subCount)
		}
	}
}

func TestObserveClamping(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	h.Observe(maxValue + 100)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.Counts[0] != 1 || s.Counts[nBuckets-1] != 1 {
		t.Errorf("clamped samples not in edge buckets")
	}
}

func TestQuantile(t *testing.T) {
	h := NewHistogram()
	// 1..1000 uniformly: p50 ≈ 500, p99 ≈ 990 within bucket resolution.
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	checks := []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {0, 1}, {1, 1000}}
	for _, c := range checks {
		got := float64(s.Quantile(c.q))
		if math.Abs(got-c.want)/c.want > 2.0/subCount {
			t.Errorf("Quantile(%v) = %v, want ≈%v", c.q, got, c.want)
		}
	}
	if got := (HistSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %d", got)
	}
}

func TestAtOrBelow(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	for _, v := range []int64{100, 500, 900} {
		got := float64(s.AtOrBelow(v))
		if math.Abs(got-float64(v))/float64(v) > 2.0/subCount {
			t.Errorf("AtOrBelow(%d) = %v, want ≈%d", v, got, v)
		}
	}
	if got := s.AtOrBelow(maxValue); got != 1000 {
		t.Errorf("AtOrBelow(max) = %d, want 1000", got)
	}
	if got := s.AtOrBelow(-1); got != 0 {
		t.Errorf("AtOrBelow(-1) = %d, want 0", got)
	}
}

func TestSubAndMerge(t *testing.T) {
	h := NewHistogram()
	h.Observe(10)
	h.Observe(20)
	older := h.Snapshot()
	h.Observe(30)
	h.Observe(40)
	delta := h.Snapshot().Sub(older)
	if delta.Count != 2 {
		t.Fatalf("delta count = %d, want 2", delta.Count)
	}
	if delta.Counts[bucketIndex(30)] != 1 || delta.Counts[bucketIndex(40)] != 1 {
		t.Errorf("delta buckets wrong")
	}

	// Fleet views merge exposition snapshots: the older page plus the
	// delta's page is the full page.
	merged := older.exposition()
	merged.Merge(delta.exposition())
	full := h.Snapshot().exposition()
	if !reflect.DeepEqual(merged.Cumulative, full.Cumulative) || merged.Count != full.Count ||
		math.Abs(merged.Sum-full.Sum) > 1e-15 {
		t.Errorf("merge(older, delta) = {%v %d %v}, want {%v %d %v}",
			merged.Cumulative, merged.Count, merged.Sum, full.Cumulative, full.Count, full.Sum)
	}
}

func TestSnapshotIntoReuses(t *testing.T) {
	h := NewHistogram()
	h.Observe(42)
	var s HistSnapshot
	h.SnapshotInto(&s)
	buf := &s.Counts[0]
	h.Observe(43)
	h.SnapshotInto(&s)
	if &s.Counts[0] != buf {
		t.Error("SnapshotInto reallocated the bucket slice")
	}
	if s.Count != 2 {
		t.Errorf("count = %d, want 2", s.Count)
	}
}

// TestObserveZeroAlloc is an acceptance criterion: the hot path must
// not allocate.
func TestObserveZeroAlloc(t *testing.T) {
	h := NewHistogram()
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f times per call, want 0", allocs)
	}
}

// TestHistogramConcurrent hammers one histogram from 8 goroutines (run
// under -race in CI) and checks no samples are lost.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64(g*perG + i))
				if i%128 == 0 {
					// Concurrent reads must be safe too.
					_ = h.Snapshot().Count
				}
			}
		}(g)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != goroutines*perG {
		t.Fatalf("count = %d, want %d (lost samples under contention)", got, goroutines*perG)
	}
}

func TestObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(3 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatal("sample lost")
	}
	got := s.QuantileDuration(1)
	if got < 2900*time.Microsecond || got > 3100*time.Microsecond {
		t.Errorf("QuantileDuration(1) = %v, want ≈3ms", got)
	}
}
