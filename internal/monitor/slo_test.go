package monitor

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func newTestTracker(t *testing.T) *SLOTracker {
	t.Helper()
	tr, err := NewSLOTracker(time.Second,
		Objective{Name: "availability", Kind: ObjectiveAvailability, Target: 0.999},
		Objective{Name: "p99-latency", Kind: ObjectiveLatency, Target: 0.99, Threshold: 10 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSLOTrackerHealthySteadyState(t *testing.T) {
	tr := newTestTracker(t)
	for i := 0; i < 1000; i++ {
		tr.Observe(time.Millisecond, false)
	}
	s := tr.Sample(time.Second)
	for _, o := range s.Objs {
		if !o.Met {
			t.Errorf("objective %s not met in healthy state: %+v", o.Name, o)
		}
		if o.BurnRate != 0 {
			t.Errorf("objective %s burn = %v, want 0", o.Name, o.BurnRate)
		}
	}
}

func TestSLOTrackerAvailabilityBurn(t *testing.T) {
	tr := newTestTracker(t)
	// 1% errors against a 0.1% budget: burn rate 10x.
	for i := 0; i < 990; i++ {
		tr.Observe(time.Millisecond, false)
	}
	for i := 0; i < 10; i++ {
		tr.Observe(0, true)
	}
	s := tr.Sample(time.Second)
	av := s.Status("availability")
	if av == nil {
		t.Fatal("availability objective missing")
	}
	if av.Met {
		t.Error("availability met at 1% errors against 0.1% budget")
	}
	if av.BurnRate < 9.9 || av.BurnRate > 10.1 {
		t.Errorf("burn = %v, want ≈10", av.BurnRate)
	}
}

func TestSLOTrackerLatencyBurn(t *testing.T) {
	tr := newTestTracker(t)
	// 5% of requests breach the 10ms threshold against a 1% budget:
	// burn ≈ 5x.
	for i := 0; i < 950; i++ {
		tr.Observe(time.Millisecond, false)
	}
	for i := 0; i < 50; i++ {
		tr.Observe(100*time.Millisecond, false)
	}
	s := tr.Sample(time.Second)
	lat := s.Status("p99-latency")
	if lat == nil {
		t.Fatal("latency objective missing")
	}
	if lat.Met {
		t.Error("latency objective met with 5% breaching")
	}
	if lat.BurnRate < 4.5 || lat.BurnRate > 5.5 {
		t.Errorf("burn = %v, want ≈5", lat.BurnRate)
	}
}

func TestSLOReportSummary(t *testing.T) {
	tr := newTestTracker(t)

	// Healthy slot, bad slot, then recovery once the bad slot ages out.
	for i := 0; i < 100; i++ {
		tr.Observe(time.Millisecond, false)
	}
	tr.Sample(1 * time.Second)
	for i := 0; i < 90; i++ {
		tr.Observe(time.Millisecond, false)
	}
	for i := 0; i < 10; i++ {
		tr.Observe(0, true)
	}
	tr.Sample(2 * time.Second)
	for s := 3; s <= 8; s++ {
		for i := 0; i < 100; i++ {
			tr.Observe(time.Millisecond, false)
		}
		tr.Sample(time.Duration(s) * time.Second)
	}

	rep := tr.Report()
	if len(rep.Samples) != 8 {
		t.Fatalf("samples = %d, want 8", len(rep.Samples))
	}
	var av *ObjectiveSummary
	for i := range rep.Summary {
		if rep.Summary[i].Name == "availability" {
			av = &rep.Summary[i]
		}
	}
	if av == nil {
		t.Fatal("availability summary missing")
	}
	if av.WorstBurnRate <= 1 {
		t.Errorf("worst burn = %v, want > 1 (outage slot)", av.WorstBurnRate)
	}
	if av.PeakAt != 2*time.Second {
		t.Errorf("peak at %v, want 2s", av.PeakAt)
	}
	if av.FinalBurnRate != 0 {
		t.Errorf("final burn = %v, want 0 (recovered)", av.FinalBurnRate)
	}

	// JSON round-trips and text renders every objective.
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back SLOReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Samples) != len(rep.Samples) {
		t.Errorf("JSON round-trip lost samples: %d != %d", len(back.Samples), len(rep.Samples))
	}
	text := rep.Text()
	for _, name := range []string{"availability", "p99-latency"} {
		if !strings.Contains(text, name) {
			t.Errorf("text report missing objective %s:\n%s", name, text)
		}
	}
}

func TestObjectiveValidation(t *testing.T) {
	bad := []Objective{
		{Name: "", Kind: ObjectiveAvailability, Target: 0.99},
		{Name: "x", Kind: ObjectiveAvailability, Target: 0},
		{Name: "x", Kind: ObjectiveAvailability, Target: 1},
		{Name: "x", Kind: ObjectiveLatency, Target: 0.99},
		{Name: "x", Kind: "bogus", Target: 0.99},
	}
	for _, o := range bad {
		if _, err := NewSLOTracker(time.Second, o); err == nil {
			t.Errorf("objective %+v accepted", o)
		}
	}
}
