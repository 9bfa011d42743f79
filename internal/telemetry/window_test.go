package telemetry

import (
	"testing"
	"time"
)

func TestWindowedRollsOldDataOut(t *testing.T) {
	w := NewWindowed(WindowConfig{Slots: 4, SlotDuration: time.Second})
	now := time.Duration(0)
	w.Stats(now) // establish the epoch

	// 100 slow requests in the first second.
	for i := 0; i < 100; i++ {
		w.Observe(100*time.Millisecond, false)
	}
	now += time.Second
	st := w.Stats(now)
	if st.Count != 100 {
		t.Fatalf("count = %d, want 100", st.Count)
	}
	if st.P50 < 90*time.Millisecond {
		t.Fatalf("p50 = %v, want ≈100ms", st.P50)
	}

	// Then only fast requests; after the window passes, the slow batch
	// must be gone from the rolling view.
	for slot := 0; slot < 5; slot++ {
		for i := 0; i < 100; i++ {
			w.Observe(time.Millisecond, false)
		}
		now += time.Second
		w.Stats(now)
	}
	st = w.Stats(now)
	if st.P99 > 10*time.Millisecond {
		t.Errorf("p99 = %v after slow batch aged out, want ≈1ms", st.P99)
	}
	if st.Count > 400 {
		t.Errorf("count = %d, want ≤400 (window holds 4 slots)", st.Count)
	}
}

func TestWindowedAvailability(t *testing.T) {
	w := NewWindowed(WindowConfig{Slots: 4, SlotDuration: time.Second})
	w.Stats(0)
	for i := 0; i < 90; i++ {
		w.Observe(time.Millisecond, false)
	}
	for i := 0; i < 10; i++ {
		w.Observe(0, true)
	}
	st := w.Stats(time.Second)
	if st.Total != 100 || st.Errors != 10 {
		t.Fatalf("total=%d errors=%d, want 100/10", st.Total, st.Errors)
	}
	if st.Availability < 0.899 || st.Availability > 0.901 {
		t.Errorf("availability = %v, want 0.9", st.Availability)
	}
	if st.RatePerSec < 99 || st.RatePerSec > 101 {
		t.Errorf("rate = %v, want ≈100/s", st.RatePerSec)
	}
}

func TestWindowedIdleWindow(t *testing.T) {
	w := NewWindowed(WindowConfig{Slots: 2, SlotDuration: time.Second})
	w.Stats(0)
	st := w.Stats(5 * time.Second)
	if st.Availability != 1.0 {
		t.Errorf("idle availability = %v, want 1.0 (no traffic burns no budget)", st.Availability)
	}
	if st.Count != 0 || st.Total != 0 {
		t.Errorf("idle window has traffic: %+v", st)
	}
}

func TestWindowedLongGap(t *testing.T) {
	// A read after a long quiet gap must not materialize thousands of
	// boundaries, and old data must be out of the window.
	w := NewWindowed(WindowConfig{Slots: 4, SlotDuration: time.Second})
	w.Stats(0)
	w.Observe(time.Millisecond, false)
	st := w.Stats(1000 * time.Second)
	if st.Count != 0 {
		t.Errorf("count = %d after 1000s gap with a 4s window, want 0", st.Count)
	}
	// And the meter keeps working afterwards.
	w.Observe(2*time.Millisecond, false)
	st = w.Stats(1001 * time.Second)
	if st.Count != 1 {
		t.Errorf("count = %d after gap, want 1", st.Count)
	}
}

func TestWindowDefaults(t *testing.T) {
	w := NewWindowed(WindowConfig{})
	cfg := w.Config()
	if cfg.Slots != DefaultSlots || cfg.SlotDuration != DefaultSlotDuration {
		t.Errorf("defaults = %+v", cfg)
	}
	if got := cfg.Window(); got != time.Minute {
		t.Errorf("default window = %v, want 1m", got)
	}
}
