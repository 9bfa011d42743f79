package experiments

import (
	"fmt"
	"strings"
	"time"

	"lambdanic/internal/metrics"
	"lambdanic/internal/telemetry"
	"lambdanic/internal/trace"
	"lambdanic/internal/workloads"
)

// LoadCurveObjective is the latency SLO each load point is graded
// against: 99% of requests inside 1 ms. λ-NIC holds it across the
// whole sweep; bare metal blows through it once offered load passes
// its dispatch knee — the hockey stick restated in error-budget terms.
var LoadCurveObjective = telemetry.Objective{
	Name:      "p99-latency",
	Kind:      telemetry.ObjectiveLatency,
	Target:    0.99,
	Threshold: time.Millisecond,
}

// LoadPoint is one offered-load measurement on a latency-vs-load curve.
type LoadPoint struct {
	Backend    BackendID
	OfferedRPS float64
	P50, P99   float64 // seconds
	Errors     int
	// GoodFrac and BurnRate grade the point against LoadCurveObjective;
	// SLOMet reports whether the objective held at this offered load.
	GoodFrac float64
	BurnRate float64
	SLOMet   bool
}

// gradeLoadPoint fills the SLO columns from the point's latency sample.
func (p *LoadPoint) gradeLoadPoint(lat *metrics.Sample) {
	o := LoadCurveObjective
	p.GoodFrac = lat.FracAtOrBelow(o.Threshold.Seconds())
	p.BurnRate = (1 - p.GoodFrac) / (1 - o.Target)
	p.SLOMet = p.GoodFrac >= o.Target
}

// LoadLatencyCurve sweeps offered load (open-loop Poisson arrivals)
// against the web-server lambda on λ-NIC and the bare-metal backend and
// reports tail latency at each point — the hockey-stick view of the
// paper's claim that λ-NIC "can run to completion without degradation
// in performance ... even at the tail" (§4.2.1 D1). Bare metal's knee
// appears near its serialized dispatch capacity (~2 kreq/s); λ-NIC's
// curve stays flat through the entire sweep.
func LoadLatencyCurve(cfg Config) ([]LoadPoint, error) {
	web := workloads.WebServer()
	rates := []float64{200, 500, 1000, 1500, 1800, 2500}
	requests := cfg.Fig7Requests / 2
	if requests < 200 {
		requests = 200
	}
	var out []LoadPoint
	for _, bid := range []BackendID{BackendLambdaNIC, BackendBareMetal} {
		for _, rate := range rates {
			s, b, err := cfg.newBackend(bid, cfg.set())
			if err != nil {
				return nil, err
			}
			res, err := trace.OpenLoop{
				RatePerSec: rate,
				Requests:   requests,
				Warmup:     cfg.Warmup,
				Gen:        trace.Fixed(web.ID, web.MakeRequest),
			}.Run(s, b)
			if err != nil {
				return nil, fmt.Errorf("loadcurve %s@%.0f: %w", bid, rate, err)
			}
			pt := LoadPoint{
				Backend:    bid,
				OfferedRPS: rate,
				P50:        res.Latency.Quantile(0.50),
				P99:        res.Latency.Quantile(0.99),
				Errors:     res.Errors,
			}
			pt.gradeLoadPoint(&res.Latency)
			out = append(out, pt)
		}
	}
	return out, nil
}

// RenderLoadCurve prints the latency-vs-load sweep.
func RenderLoadCurve(points []LoadPoint) string {
	var b strings.Builder
	b.WriteString("Latency vs offered load (open-loop Poisson, web server)\n")
	fmt.Fprintf(&b, "  SLO: %g%% of requests ≤ %s\n",
		LoadCurveObjective.Target*100, LoadCurveObjective.Threshold)
	last := BackendID("")
	for _, p := range points {
		if p.Backend != last {
			fmt.Fprintf(&b, "  %s:\n", p.Backend)
			last = p.Backend
		}
		met := "met"
		if !p.SLOMet {
			met = "VIOLATED"
		}
		fmt.Fprintf(&b, "    %7.0f req/s  p50=%-10s p99=%-10s burn=%6.2fx  %s\n",
			p.OfferedRPS, metrics.FormatSeconds(p.P50), metrics.FormatSeconds(p.P99),
			p.BurnRate, met)
	}
	return b.String()
}
