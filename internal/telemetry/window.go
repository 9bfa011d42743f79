package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// WindowConfig sizes a sliding window: Slots boundary snapshots taken
// every SlotDuration, so the rolling view spans up to
// Slots×SlotDuration of history at SlotDuration granularity.
type WindowConfig struct {
	Slots        int
	SlotDuration time.Duration
}

// Default window: 12 slots of 5 s — a one-minute rolling view.
const (
	DefaultSlots        = 12
	DefaultSlotDuration = 5 * time.Second
)

func (c WindowConfig) withDefaults() WindowConfig {
	if c.Slots <= 0 {
		c.Slots = DefaultSlots
	}
	if c.SlotDuration <= 0 {
		c.SlotDuration = DefaultSlotDuration
	}
	return c
}

// Window returns the configured span.
func (c WindowConfig) Window() time.Duration {
	c = c.withDefaults()
	return time.Duration(c.Slots) * c.SlotDuration
}

// windowSlot is one cumulative boundary snapshot.
type windowSlot struct {
	at   time.Duration
	snap HistSnapshot
	errs uint64
}

// Windowed pairs a lock-free histogram with an error counter and a
// ring of cumulative boundary snapshots, yielding rolling quantiles,
// rates, and availability over the configured window.
//
// The hot path (Observe) touches only the striped atomics — it never
// reads a clock or takes the ring lock. Rolling is lazy: every read
// passes an explicit timestamp and advances the slot boundaries it
// implies, so the same Windowed works on the wall clock (pass a
// monotonic duration) and on virtual time (pass sim.Now()). Reads are
// expected at slot granularity or coarser; a long read gap simply
// widens the oldest retained boundary until reads resume.
type Windowed struct {
	cfg  WindowConfig
	hist *Histogram
	errs atomic.Uint64

	mu       sync.Mutex
	ring     []windowSlot // len cfg.Slots, reused in place
	n        int          // boundaries recorded (≤ len(ring))
	head     int          // ring index of the newest boundary
	nextRoll time.Duration
	started  bool
}

// NewWindowed builds a windowed meter.
func NewWindowed(cfg WindowConfig) *Windowed {
	cfg = cfg.withDefaults()
	return &Windowed{
		cfg:  cfg,
		hist: NewHistogram(),
		ring: make([]windowSlot, cfg.Slots),
	}
}

// Config returns the effective window configuration.
func (w *Windowed) Config() WindowConfig { return w.cfg }

// Observe records one completed request: successes contribute a
// latency sample, failures count against availability only.
func (w *Windowed) Observe(latency time.Duration, failed bool) {
	if failed {
		w.errs.Add(1)
		return
	}
	w.hist.ObserveDuration(latency)
}

// roll advances slot boundaries up to now; w.mu must be held.
func (w *Windowed) roll(now time.Duration) {
	if !w.started {
		w.started = true
		w.nextRoll = now + w.cfg.SlotDuration
		w.head = 0
		w.ring[0].at = now
		w.hist.SnapshotInto(&w.ring[0].snap)
		w.ring[0].errs = w.errs.Load()
		w.n = 1
		return
	}
	for w.nextRoll <= now {
		at := w.nextRoll
		// A long quiet gap would imply many identical boundaries; skip
		// ahead so at most one ring lap is ever materialized.
		if behind := (now - w.nextRoll) / w.cfg.SlotDuration; behind > time.Duration(w.cfg.Slots) {
			at = now - time.Duration(w.cfg.Slots)*w.cfg.SlotDuration
			w.nextRoll = at
		}
		w.head = (w.head + 1) % len(w.ring)
		slot := &w.ring[w.head]
		slot.at = at
		w.hist.SnapshotInto(&slot.snap)
		slot.errs = w.errs.Load()
		if w.n < len(w.ring) {
			w.n++
		}
		w.nextRoll += w.cfg.SlotDuration
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
	// (good-fraction evaluation in the SLO tracker).
	Latency HistSnapshot `json:"-"`
}

// Stats reads the rolling view at the given instant, advancing slot
// boundaries first.
func (w *Windowed) Stats(now time.Duration) WindowStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.roll(now)

	// Oldest retained boundary: head-(n-1) in ring order.
	oldest := &w.ring[(w.head-(w.n-1)+len(w.ring))%len(w.ring)]
	var cur HistSnapshot
	w.hist.SnapshotInto(&cur)
	curErrs := w.errs.Load()

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
