package monitor

import "time"

// windowSlots is how many boundary snapshots an SLOTracker keeps: its
// rolling view spans up to windowSlots slot durations of history at
// slot granularity.
const windowSlots = 4

// windowSlot is one cumulative boundary snapshot.
type windowSlot struct {
	at   time.Duration
	snap HistSnapshot
	errs uint64
}

// Observe records one completed request: successes contribute a
// latency sample, failures count against availability only. It touches
// only the histogram's striped atomics and the error counter — it never
// reads a clock or takes the ring lock.
func (t *SLOTracker) Observe(latency time.Duration, failed bool) {
	if failed {
		t.errs.Add(1)
		return
	}
	t.hist.ObserveDuration(latency)
}

// roll advances slot boundaries up to now; t.mu must be held. Rolling
// is lazy: every read passes an explicit timestamp and advances the
// boundaries it implies. Reads are expected at slot granularity or
// coarser; a long read gap simply widens the oldest retained boundary
// until reads resume.
func (t *SLOTracker) roll(now time.Duration) {
	for t.nextRoll <= now {
		at := t.nextRoll
		// A long quiet gap would imply many identical boundaries; skip
		// ahead so at most one ring lap is ever materialized.
		if behind := (now - t.nextRoll) / t.slot; behind > windowSlots {
			at = now - windowSlots*t.slot
			t.nextRoll = at
		}
		t.head = (t.head + 1) % len(t.ring)
		slot := &t.ring[t.head]
		slot.at = at
		t.hist.SnapshotInto(&slot.snap)
		slot.errs = t.errs.Load()
		if t.n < len(t.ring) {
			t.n++
		}
		t.nextRoll += t.slot
	}
}

// WindowStats is the rolling view at one instant.
type WindowStats struct {
	// Window is the span actually covered (≤ the configured window
	// while history is still filling).
	Window time.Duration `json:"window"`
	// Count and Errors are completions inside the window; Total is
	// their sum.
	Count  uint64 `json:"count"`
	Errors uint64 `json:"errors"`
	Total  uint64 `json:"total"`
	// Availability is the fraction of requests answered successfully
	// (1.0 when the window saw no traffic).
	Availability float64 `json:"availability"`
	// RatePerSec is completions per second over the window.
	RatePerSec float64 `json:"rate_per_sec"`
	// Rolling latency quantiles over successful requests.
	P50  time.Duration `json:"p50"`
	P99  time.Duration `json:"p99"`
	P999 time.Duration `json:"p999"`
	Mean time.Duration `json:"mean"`
	// Latency is the window's full latency delta for further math
	// (good-fraction evaluation in Sample).
	Latency HistSnapshot `json:"-"`
}

// stats reads the rolling view at the given instant, advancing slot
// boundaries first.
func (t *SLOTracker) stats(now time.Duration) WindowStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roll(now)

	// Oldest retained boundary: head-(n-1) in ring order.
	oldest := &t.ring[(t.head-(t.n-1)+len(t.ring))%len(t.ring)]
	var cur HistSnapshot
	t.hist.SnapshotInto(&cur)
	curErrs := t.errs.Load()

	delta := cur.Sub(oldest.snap)
	errs := curErrs - oldest.errs
	st := WindowStats{
		Window: now - oldest.at,
		Count:  delta.Count,
		Errors: errs,
		Total:  delta.Count + errs,
	}
	st.Availability = 1.0
	if st.Total > 0 {
		st.Availability = float64(st.Count) / float64(st.Total)
	}
	if st.Window > 0 {
		st.RatePerSec = float64(st.Total) / st.Window.Seconds()
	}
	st.P50 = delta.QuantileDuration(0.50)
	st.P99 = delta.QuantileDuration(0.99)
	st.P999 = delta.QuantileDuration(0.999)
	st.Mean = time.Duration(delta.Mean())
	st.Latency = delta
	return st
}
