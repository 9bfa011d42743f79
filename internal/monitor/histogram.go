package monitor

import (
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// The histogram's value domain is int64 "units" — nanoseconds for the
// latency plane. Buckets are log-linear (HDR-style): subCount linear
// buckets per power-of-two octave, giving a bounded relative error of
// 1/subCount (~3.1%) across the whole range. Values are clamped to
// [0, maxValue]; with nanosecond units the range spans 1ns..~18min,
// which covers every latency this system can produce.
const (
	subBits  = 5
	subCount = 1 << subBits
	// maxExp bounds the bucket count: index(maxValue) is the last bucket.
	maxExp   = 35
	nBuckets = (maxExp + 1) * subCount
	// maxValue is the largest representable unit value (2^40-1 ns).
	maxValue = int64(1)<<(subBits+maxExp) - 1

	// numShards stripes the bucket array to keep concurrent writers off
	// each other's cache lines. Shards are picked per-Observe from the
	// runtime's per-thread fast random source, so no state is shared
	// between writers on distinct threads.
	numShards = 16
)

// bucketIndex maps a non-negative value to its log-linear bucket.
// Values 0..subCount-1 map identically; above that, each power-of-two
// octave is split into subCount linear buckets.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	e := uint(bits.Len64(u)) - 1 - subBits
	return int((uint64(e)+1)<<subBits) + int(u>>e) - subCount
}

// BucketUpper returns the largest value that lands in bucket i — the
// bucket's inclusive upper bound.
func BucketUpper(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	e := uint(i/subCount) - 1
	sub := uint64(i%subCount) + subCount
	return int64((sub+1)<<e) - 1
}

// bucketMid returns the midpoint of bucket i, used to reconstruct an
// approximate sum from counts (bounded by the bucket resolution).
func bucketMid(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	e := uint(i/subCount) - 1
	sub := uint64(i%subCount) + subCount
	return int64(sub<<e) + int64(1)<<e/2
}

// Histogram is a lock-free latency histogram: log-linear buckets
// striped over shards of atomic counters. Observe is wait-free, does
// not allocate, and never takes a lock; Snapshot merges the stripes
// into a cumulative view. The zero value is not ready — use
// NewHistogram.
type Histogram struct {
	counts []atomic.Uint64 // numShards * nBuckets, shard-major
}

// NewHistogram builds an empty histogram (~147 KiB of counters).
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, numShards*nBuckets)}
}

// Observe records one sample. Negative values clamp to zero, values
// beyond the representable range clamp to the top bucket.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	} else if v > maxValue {
		v = maxValue
	}
	// rand/v2's top-level generator is per-thread state in the runtime:
	// picking the stripe this way costs a few nanoseconds and shares
	// nothing between concurrent writers.
	shard := int(rand.Uint64() & (numShards - 1))
	h.counts[shard*nBuckets+bucketIndex(v)].Add(1)
}

// ObserveDuration records a latency sample in nanosecond units — the
// common case for the request-path histograms.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// HistSnapshot is a point-in-time merged view of a histogram. Counts
// are per-bucket (non-cumulative); Sum is reconstructed from bucket
// midpoints and is exact to the bucket resolution (~3%).
type HistSnapshot struct {
	Counts []uint64 `json:"-"`
	Count  uint64   `json:"count"`
	Sum    int64    `json:"sum"`
}

// Snapshot merges the shards into one view.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	h.SnapshotInto(&s)
	return s
}

// SnapshotInto merges the shards into dst, reusing dst's bucket slice —
// the SLO tracker rolls snapshots frequently and reuses ring
// slots to avoid re-allocating the bucket array each slot.
func (h *Histogram) SnapshotInto(dst *HistSnapshot) {
	if cap(dst.Counts) < nBuckets {
		dst.Counts = make([]uint64, nBuckets)
	}
	dst.Counts = dst.Counts[:nBuckets]
	dst.Count, dst.Sum = 0, 0
	for b := 0; b < nBuckets; b++ {
		var c uint64
		for s := 0; s < numShards; s++ {
			c += h.counts[s*nBuckets+b].Load()
		}
		dst.Counts[b] = c
		if c > 0 {
			dst.Count += c
			dst.Sum += int64(c) * bucketMid(b)
		}
	}
}

// Sub returns the delta s − older: the observations recorded between
// the two snapshots. Buckets missing from either side read as zero.
func (s HistSnapshot) Sub(older HistSnapshot) HistSnapshot {
	out := HistSnapshot{Counts: make([]uint64, nBuckets)}
	for b := range out.Counts {
		var cur, old uint64
		if b < len(s.Counts) {
			cur = s.Counts[b]
		}
		if b < len(older.Counts) {
			old = older.Counts[b]
		}
		if cur > old {
			out.Counts[b] = cur - old
			out.Count += cur - old
			out.Sum += int64(cur-old) * bucketMid(b)
		}
	}
	return out
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) in units, interpolated
// linearly within the containing bucket. Returns 0 for an empty
// snapshot.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := uint64(q * float64(s.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lower := int64(0)
			if b > 0 {
				lower = BucketUpper(b-1) + 1
			}
			upper := BucketUpper(b)
			frac := float64(target-cum) / float64(c)
			return lower + int64(frac*float64(upper-lower))
		}
		cum += c
	}
	return BucketUpper(nBuckets - 1)
}

// QuantileDuration is Quantile for nanosecond-unit histograms.
func (s HistSnapshot) QuantileDuration(q float64) time.Duration {
	return time.Duration(s.Quantile(q))
}

// AtOrBelow counts the observations ≤ v — the "good" side of a latency
// objective. The straddling bucket is interpolated.
func (s HistSnapshot) AtOrBelow(v int64) uint64 {
	if v < 0 {
		return 0
	}
	if v >= maxValue {
		return s.Count
	}
	idx := bucketIndex(v)
	var cum uint64
	for b := 0; b < idx; b++ {
		cum += s.Counts[b]
	}
	if c := s.Counts[idx]; c > 0 {
		lower := int64(0)
		if idx > 0 {
			lower = BucketUpper(idx-1) + 1
		}
		upper := BucketUpper(idx)
		if upper > lower {
			frac := float64(v-lower+1) / float64(upper-lower+1)
			cum += uint64(frac * float64(c))
		} else {
			cum += c
		}
	}
	return cum
}

// Mean returns the mean in units (bucket-midpoint approximation).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// exposition renders the snapshot on FineLatencyBuckets, in seconds.
// Native log-linear buckets are far finer than the exposition bounds,
// so each native bucket is attributed to the first bound at or above
// its upper edge.
func (s HistSnapshot) exposition() HistogramSnapshot {
	const secondsPerUnit = 1e-9
	bounds := FineLatencyBuckets
	out := HistogramSnapshot{
		Bounds:     bounds,
		Cumulative: make([]uint64, len(bounds)+1),
		Sum:        float64(s.Sum) * secondsPerUnit,
		Count:      s.Count,
	}
	bi := 0
	var cum uint64
	for b, c := range s.Counts {
		if c == 0 {
			continue
		}
		upper := float64(BucketUpper(b)) * secondsPerUnit
		for bi < len(bounds) && upper > bounds[bi] {
			out.Cumulative[bi] = cum
			bi++
		}
		cum += c
	}
	for ; bi <= len(bounds); bi++ {
		out.Cumulative[bi] = cum
	}
	return out
}

// Expose registers the histogram in reg under the given name, rendered
// through the fine latency bounds at scrape time. The histogram's units
// must be nanoseconds.
func (h *Histogram) Expose(reg *Registry, name, help string, labels map[string]string) error {
	return reg.HistogramFunc(name, help, labels, func() HistogramSnapshot {
		return h.Snapshot().exposition()
	})
}
