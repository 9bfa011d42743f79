package monitor

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ObjectiveKind selects how an Objective grades a window.
type ObjectiveKind string

const (
	// ObjectiveAvailability grades the fraction of requests answered
	// successfully against Target (e.g. 0.999).
	ObjectiveAvailability ObjectiveKind = "availability"
	// ObjectiveLatency grades the fraction of successful requests at or
	// below Threshold against Target (e.g. 99% of requests under 2 ms).
	ObjectiveLatency ObjectiveKind = "latency"
)

// Objective is one declared service-level objective.
type Objective struct {
	Name string        `json:"name"`
	Kind ObjectiveKind `json:"kind"`
	// Target is the required good fraction in (0, 1), e.g. 0.999.
	Target float64 `json:"target"`
	// Threshold is the latency bound for ObjectiveLatency; ignored for
	// availability objectives.
	Threshold time.Duration `json:"threshold,omitempty"`
}

func (o Objective) validate() error {
	switch o.Kind {
	case ObjectiveAvailability:
	case ObjectiveLatency:
		if o.Threshold <= 0 {
			return fmt.Errorf("monitor: objective %q: latency objective needs a positive threshold", o.Name)
		}
	default:
		return fmt.Errorf("monitor: objective %q: unknown kind %q", o.Name, o.Kind)
	}
	if o.Name == "" {
		return fmt.Errorf("monitor: objective with empty name")
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("monitor: objective %q: target %v outside (0,1)", o.Name, o.Target)
	}
	return nil
}

// kindLabel names the objective's kind in rendered tables.
func (o Objective) kindLabel() string {
	if o.Kind == ObjectiveLatency {
		return fmt.Sprintf("p≤%s", o.Threshold)
	}
	return string(o.Kind)
}

// ObjectiveStatus is one objective graded over one window.
type ObjectiveStatus struct {
	Objective
	// GoodFraction is the measured good fraction over the window (1.0
	// for an idle window: no traffic burns no budget).
	GoodFraction float64 `json:"good_fraction"`
	// BurnRate is the error-budget burn speed: the window's bad
	// fraction divided by the budgeted bad fraction. 1.0 means the
	// budget is being spent exactly at the sustainable pace; >1 means
	// faster; 0 means no burn.
	BurnRate float64 `json:"burn_rate"`
	// Met reports whether the window itself satisfied the objective.
	Met bool `json:"met"`
}

// Grade scores a measured good fraction against the objective.
func (o Objective) Grade(good float64) ObjectiveStatus {
	return ObjectiveStatus{
		Objective:    o,
		GoodFraction: good,
		BurnRate:     (1 - good) / (1 - o.Target),
		Met:          good >= o.Target,
	}
}

// SLOSample is the full tracker evaluation at one instant.
type SLOSample struct {
	// At is the evaluation timestamp (duration since the tracker's
	// epoch — wall start or virtual time zero).
	At    time.Duration     `json:"at"`
	Stats WindowStats       `json:"stats"`
	Objs  []ObjectiveStatus `json:"objectives"`
}

// Status finds an objective's grading by name; nil if absent.
func (s *SLOSample) Status(name string) *ObjectiveStatus {
	for i := range s.Objs {
		if s.Objs[i].Name == name {
			return &s.Objs[i]
		}
	}
	return nil
}

// SLOTracker keeps a sliding window over a latency histogram and an
// error counter, grades it against declared objectives, and accumulates
// a history of samples for reporting. Every read receives an explicit
// timestamp, so the same tracker works on the wall clock (a monotonic
// duration since start) and on virtual time (sim.Now()); the window
// starts at time zero.
type SLOTracker struct {
	objs    []Objective
	samples []SLOSample

	slot time.Duration
	hist *Histogram
	errs atomic.Uint64

	mu       sync.Mutex
	ring     [windowSlots]windowSlot
	n        int // boundaries recorded (≤ len(ring))
	head     int // ring index of the newest boundary
	nextRoll time.Duration
}

// NewSLOTracker declares objectives over a window of windowSlots
// boundaries taken every slot. Invalid objectives are rejected.
func NewSLOTracker(slot time.Duration, objs ...Objective) (*SLOTracker, error) {
	if slot <= 0 {
		return nil, fmt.Errorf("monitor: window slot %v is not positive", slot)
	}
	for _, o := range objs {
		if err := o.validate(); err != nil {
			return nil, err
		}
	}
	// ring[0], zero-valued, is the boundary at time zero: no
	// observations and no errors yet.
	return &SLOTracker{
		objs:     append([]Objective(nil), objs...),
		slot:     slot,
		hist:     NewHistogram(),
		n:        1,
		nextRoll: slot,
	}, nil
}

// Sample evaluates every objective over the current window, records
// the result in the tracker's history, and returns it.
func (t *SLOTracker) Sample(now time.Duration) SLOSample {
	st := t.stats(now)
	s := SLOSample{At: now, Stats: st, Objs: make([]ObjectiveStatus, 0, len(t.objs))}
	for _, o := range t.objs {
		good := 1.0
		switch o.Kind {
		case ObjectiveAvailability:
			good = st.Availability
		case ObjectiveLatency:
			if st.Count > 0 {
				good = float64(st.Latency.AtOrBelow(int64(o.Threshold))) / float64(st.Count)
			}
		}
		s.Objs = append(s.Objs, o.Grade(good))
	}
	t.samples = append(t.samples, s)
	return s
}

// SLOReport is the tracker's full history plus per-objective summary,
// serialized by lnic-bench -slo-out and rendered in experiment reports.
type SLOReport struct {
	// Window describes the rolling window the samples were graded over.
	Window time.Duration `json:"window"`
	// Objectives echoes the declarations.
	Objectives []Objective `json:"objectives"`
	// Samples is the full timeline.
	Samples []SLOSample `json:"samples"`
	// Summary aggregates each objective across the timeline.
	Summary []ObjectiveSummary `json:"summary"`
}

// ObjectiveSummary aggregates one objective across a report's samples.
type ObjectiveSummary struct {
	Name string `json:"name"`
	// WorstBurnRate is the maximum burn rate across samples; PeakAt is
	// when it occurred.
	WorstBurnRate float64       `json:"worst_burn_rate"`
	PeakAt        time.Duration `json:"peak_at"`
	// FinalBurnRate is the last sample's burn rate — the steady state
	// the system recovered to.
	FinalBurnRate float64 `json:"final_burn_rate"`
	// SamplesMet / SamplesTotal count windows that satisfied the
	// objective.
	SamplesMet   int `json:"samples_met"`
	SamplesTotal int `json:"samples_total"`
}

// Report assembles the history into a report.
func (t *SLOTracker) Report() SLOReport {
	rep := SLOReport{
		Window:     windowSlots * t.slot,
		Objectives: append([]Objective(nil), t.objs...),
		Samples:    t.samples,
	}
	for _, o := range t.objs {
		sum := ObjectiveSummary{Name: o.Name}
		for _, s := range t.samples {
			st := s.Status(o.Name)
			if st == nil {
				continue
			}
			sum.SamplesTotal++
			if st.Met {
				sum.SamplesMet++
			}
			if st.BurnRate >= sum.WorstBurnRate {
				// >= so ties report the latest peak; with a strictly
				// decaying burn this still pins the first maximum.
				if st.BurnRate > sum.WorstBurnRate {
					sum.PeakAt = s.At
				}
				sum.WorstBurnRate = st.BurnRate
			}
			sum.FinalBurnRate = st.BurnRate
		}
		rep.Summary = append(rep.Summary, sum)
	}
	return rep
}

// JSON serializes the report (indented, stable field order).
func (r SLOReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Text renders the report as an operator-facing summary table.
func (r SLOReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SLO report  window=%s  samples=%d\n", r.Window, len(r.Samples))
	fmt.Fprintf(&b, "%-24s %-13s %8s %12s %10s %10s\n",
		"OBJECTIVE", "KIND", "TARGET", "WORST BURN", "FINAL", "MET")
	for _, s := range r.Summary {
		var obj Objective
		for _, o := range r.Objectives {
			if o.Name == s.Name {
				obj = o
				break
			}
		}
		fmt.Fprintf(&b, "%-24s %-13s %7.4g%% %11.2fx %9.2fx %6d/%d\n",
			s.Name, obj.kindLabel(), obj.Target*100, s.WorstBurnRate, s.FinalBurnRate,
			s.SamplesMet, s.SamplesTotal)
	}
	return b.String()
}
