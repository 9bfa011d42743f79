package healthd

import (
	"math"
	"testing"
	"time"
)

func smoothedOf(t *testing.T, d *Detector, worker string, now time.Duration) float64 {
	t.Helper()
	for _, wh := range d.Snapshot(now) {
		if wh.Worker == worker {
			return wh.SmoothedLoad
		}
	}
	t.Fatalf("worker %s not in snapshot", worker)
	return 0
}

func TestEWMASeedsAtFirstSample(t *testing.T) {
	d := NewDetector(iv)
	d.Observe(Heartbeat{Worker: "w", Seq: 1, Load: 40}, 0)
	if got := smoothedOf(t, d, "w", 0); got != 40 {
		t.Fatalf("SmoothedLoad after first beat = %v, want 40 (seeded)", got)
	}
}

func TestEWMAFollowsRecurrence(t *testing.T) {
	alpha := DefaultLoadAlpha
	d := NewDetector(iv)
	samples := []int{10, 20, 0, 100, 50}
	want := float64(samples[0])
	now := time.Duration(0)
	d.Observe(Heartbeat{Worker: "w", Seq: 1, Load: samples[0]}, now)
	for i, load := range samples[1:] {
		now += 50 * time.Millisecond
		d.Observe(Heartbeat{Worker: "w", Seq: uint64(i + 2), Load: load}, now)
		want = alpha*float64(load) + (1-alpha)*want
	}
	if got := smoothedOf(t, d, "w", now); math.Abs(got-want) > 1e-9 {
		t.Fatalf("SmoothedLoad = %v, want %v", got, want)
	}
	// The raw load is the last sample; the EWMA must differ (it carries
	// history) and sit between the extremes.
	if got := smoothedOf(t, d, "w", now); got == 50 {
		t.Fatal("SmoothedLoad equals raw load; smoothing is a no-op")
	}
}

func TestEWMADampensSpike(t *testing.T) {
	d := NewDetector(iv)
	now := time.Duration(0)
	for i := 1; i <= 10; i++ {
		d.Observe(Heartbeat{Worker: "w", Seq: uint64(i), Load: 10}, now)
		now += 50 * time.Millisecond
	}
	// One wild sample: raw jumps to 1000, smoothed must not.
	d.Observe(Heartbeat{Worker: "w", Seq: 11, Load: 1000}, now)
	got := smoothedOf(t, d, "w", now)
	if got >= 500 {
		t.Fatalf("SmoothedLoad %v tracked the spike; want damping", got)
	}
	if got <= 10 {
		t.Fatalf("SmoothedLoad %v ignored the spike entirely", got)
	}
}

func TestEWMAIgnoresStaleBeats(t *testing.T) {
	d := NewDetector(iv)
	d.Observe(Heartbeat{Worker: "w", Seq: 5, Load: 10}, 0)
	before := smoothedOf(t, d, "w", 0)
	d.Observe(Heartbeat{Worker: "w", Seq: 5, Load: 999}, 50*time.Millisecond) // duplicate seq
	if got := smoothedOf(t, d, "w", 50*time.Millisecond); got != before {
		t.Fatalf("stale heartbeat moved the EWMA: %v -> %v", before, got)
	}
}
