package main

import (
	"math"
	"math/bits"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice. The input is not modified.
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the p-quantile by linear interpolation between the
// closest ranks; 0 for an empty slice. The input is not modified.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// hist is a latency histogram in ns: exact below 256 ns, then 128
// buckets per power of two, so a bucket is under 0.8% wide. Callers
// record into histograms instead of keeping samples so that the
// benchmark's own memory does not grow with the program's throughput
// (peak_rss_mb is one of the metrics) and the generator allocates
// nothing while it measures.
type hist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histSubBits = 7
	histMaxLen  = 33 // latencies clamp at 2^33 ns (8.6 s); the client gives up after 2.25 s
	histBuckets = (histMaxLen - histSubBits + 1) << histSubBits
)

func histBucket(ns int64) int {
	v := uint64(max(ns, 0))
	if v < 1<<(histSubBits+1) {
		return int(v)
	}
	if bits.Len64(v) > histMaxLen {
		return histBuckets - 1
	}
	e := bits.Len64(v) - (histSubBits + 1) // v>>e is in [128, 255]
	return (e+1)<<histSubBits + int(v>>e) - 1<<histSubBits
}

// histBounds returns a bucket's lowest value and its width.
func histBounds(b int) (lo, width float64) {
	if b < 1<<(histSubBits+1) {
		return float64(b), 1
	}
	e := b>>histSubBits - 1
	m := b&(1<<histSubBits-1) + 1<<histSubBits
	return float64(uint64(m) << e), float64(uint64(1) << e)
}

func (h *hist) add(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the p-quantile in ns, interpolating inside the
// bucket that holds the rank; 0 for an empty histogram.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p * float64(h.n-1)
	var before float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < before+float64(c) {
			lo, width := histBounds(b)
			return lo + width*(rank-before+0.5)/float64(c)
		}
		before += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// windowAcc is what one caller records about one measurement window.
type windowAcc struct {
	lat hist // successful requests that completed in the window
	n   int  // all requests that completed in the window
}

// windowStat is one measurement window, all callers merged.
type windowStat struct {
	n        int
	p50, p99 float64 // µs
	rps      float64 // completions per second
	cpuPerUs float64 // process CPU µs per completed request
}

// windowStats merges the callers' accumulators window by window.
// cpuNs[w] is the process CPU time at the start of window w (one more
// entry than there are windows); windowSec is a window's length.
// Windows in which nothing succeeded are dropped: the estimators take
// medians over windows, and such a window has no latency to give.
func windowStats(perCaller [][]windowAcc, cpuNs []int64, windowSec float64) []windowStat {
	var out []windowStat
	for w := 0; w+1 < len(cpuNs); w++ {
		var lat hist
		n := 0
		for _, acc := range perCaller {
			if w < len(acc) {
				lat.merge(&acc[w].lat)
				n += acc[w].n
			}
		}
		if lat.n == 0 {
			continue
		}
		out = append(out, windowStat{
			n:        n,
			p50:      lat.quantile(0.50) / 1e3,
			p99:      lat.quantile(0.99) / 1e3,
			rps:      float64(n) / windowSec,
			cpuPerUs: float64(cpuNs[w+1]-cpuNs[w]) / 1e3 / float64(n),
		})
	}
	return out
}

// overWindows is the estimator every wall-clock end-to-end timing uses:
// a quantile, over the phase's windows, of one per-window statistic.
// On a shared VM the host's interference comes in bursts that land in
// some windows and not in others. Where it can push a statistic either
// way (median latency, CPU per request) the median window is taken.
// Where it only ever makes things worse (throughput, the loaded tail)
// the quartile of windows it disturbed least is taken: the upper
// quartile of throughput, the lower quartile of p99. A whole-run mean
// or tail would report the bursts.
func overWindows(ws []windowStat, p float64, pick func(windowStat) float64) float64 {
	v := make([]float64, len(ws))
	for i, w := range ws {
		v[i] = pick(w)
	}
	return quantile(v, p)
}
