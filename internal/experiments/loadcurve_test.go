package experiments

import (
	"strings"
	"testing"
)

func TestLoadLatencyCurveShape(t *testing.T) {
	points, err := LoadLatencyCurve(Quick())
	if err != nil {
		t.Fatal(err)
	}
	byBackend := map[BackendID][]LoadPoint{}
	for _, p := range points {
		byBackend[p.Backend] = append(byBackend[p.Backend], p)
	}
	nic, bare := byBackend[BackendLambdaNIC], byBackend[BackendBareMetal]
	if len(nic) != len(bare) || len(nic) < 4 {
		t.Fatalf("points per backend: nic=%d bare=%d", len(nic), len(bare))
	}
	// λ-NIC's p99 stays flat across the sweep (< 3x its lightest-load
	// p99); run-to-completion threads never queue at these rates.
	base := nic[0].P99
	for _, p := range nic {
		if p.P99 > 3*base {
			t.Errorf("λ-NIC p99 grew at %.0f req/s: %v vs %v", p.OfferedRPS, p.P99, base)
		}
	}
	// Bare metal hits its knee: its highest-load p99 must blow past its
	// lightest-load p99 by an order of magnitude (dispatch saturation).
	if last, first := bare[len(bare)-1].P99, bare[0].P99; last < 10*first {
		t.Errorf("bare-metal knee missing: p99 %v -> %v", first, last)
	}
	// And λ-NIC beats bare metal at every point.
	for i := range nic {
		if nic[i].P99 >= bare[i].P99 {
			t.Errorf("at %.0f req/s λ-NIC p99 %v not below bare %v",
				nic[i].OfferedRPS, nic[i].P99, bare[i].P99)
		}
	}
	// SLO grading: λ-NIC holds the 1 ms p99 objective at every offered
	// load; bare metal must violate it (burn > 1) once past its knee.
	for _, p := range nic {
		if !p.SLO.Met {
			t.Errorf("λ-NIC violated SLO at %.0f req/s: good=%.4f burn=%.2f",
				p.OfferedRPS, p.SLO.GoodFraction, p.SLO.BurnRate)
		}
	}
	if last := bare[len(bare)-1]; last.SLO.Met || last.SLO.BurnRate <= 1 {
		t.Errorf("bare metal should burn budget past its knee: good=%.4f burn=%.2f",
			last.SLO.GoodFraction, last.SLO.BurnRate)
	}
	out := RenderLoadCurve(points)
	if !strings.Contains(out, "offered load") {
		t.Error("render broken")
	}
	for _, want := range []string{"SLO", "burn=", "VIOLATED"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
