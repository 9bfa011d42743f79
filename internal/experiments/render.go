package experiments

import (
	"fmt"
	"sort"
	"strings"

	"lambdanic/internal/mcc"
	"lambdanic/internal/metrics"
)

// This file renders experiment results as the text tables and series
// cmd/lnic-bench prints, mirroring the paper's presentation.

func dur(sec float64) string { return metrics.FormatSeconds(sec) }

// RenderTable1 prints the SmartNIC comparison.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: A comparison of various types of SmartNICs\n")
	fmt.Fprintf(&b, "  %-12s %-16s %-26s %s\n", "Type", "Programmability", "Performance", "Dev cost")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s %-16s %-26s %s\n", r.Type, r.Programmability, r.Performance, r.DevelopmentCost)
	}
	return b.String()
}

// RenderFigure6 prints the isolation-latency series with their ECDFs
// summarized at key quantiles.
func RenderFigure6(series []LatencySeries) string {
	var b strings.Builder
	b.WriteString("Figure 6: latency of a single warm lambda in isolation (closed loop)\n")
	byWorkload := map[string][]LatencySeries{}
	var order []string
	for _, s := range series {
		if _, ok := byWorkload[s.Workload]; !ok {
			order = append(order, s.Workload)
		}
		byWorkload[s.Workload] = append(byWorkload[s.Workload], s)
	}
	for _, w := range order {
		fmt.Fprintf(&b, "  %s:\n", w)
		var nicMean float64
		for _, s := range byWorkload[w] {
			if s.Backend == BackendLambdaNIC {
				nicMean = s.Summary.Mean
			}
		}
		for _, s := range byWorkload[w] {
			speedup := ""
			if s.Backend != BackendLambdaNIC && nicMean > 0 {
				speedup = fmt.Sprintf("  (%0.0fx vs lambda-nic)", s.Summary.Mean/nicMean)
			}
			fmt.Fprintf(&b, "    %-18s mean=%-10s p50=%-10s p99=%-10s%s\n",
				s.Backend, dur(s.Summary.Mean), dur(s.Summary.P50), dur(s.Summary.P99), speedup)
		}
	}
	return b.String()
}

// RenderFigure7 prints the throughput series.
func RenderFigure7(points []ThroughputPoint) string {
	var b strings.Builder
	b.WriteString("Figure 7: average throughput (req/s)\n")
	byWorkload := map[string][]ThroughputPoint{}
	var order []string
	for _, p := range points {
		if _, ok := byWorkload[p.Workload]; !ok {
			order = append(order, p.Workload)
		}
		byWorkload[p.Workload] = append(byWorkload[p.Workload], p)
	}
	for _, w := range order {
		fmt.Fprintf(&b, "  %s:\n", w)
		pts := byWorkload[w]
		sort.SliceStable(pts, func(i, j int) bool {
			if pts[i].Threads != pts[j].Threads {
				return pts[i].Threads < pts[j].Threads
			}
			return pts[i].Backend < pts[j].Backend
		})
		for _, p := range pts {
			fmt.Fprintf(&b, "    %-18s threads=%-3d %12.0f req/s\n", p.Backend, p.Threads, p.PerSecond)
		}
	}
	return b.String()
}

// RenderFigure8Table2 prints the contention experiment.
func RenderFigure8Table2(results []ContentionResult) string {
	var b strings.Builder
	b.WriteString("Figure 8 / Table 2: three distinct web-server lambdas, round-robin requests\n")
	var nicMean float64
	for _, r := range results {
		if r.Backend == BackendLambdaNIC {
			nicMean = r.Summary.Mean
		}
	}
	for _, r := range results {
		slowdown := ""
		if r.Backend != BackendLambdaNIC && nicMean > 0 {
			slowdown = fmt.Sprintf("  (%0.0fx vs lambda-nic)", r.Summary.Mean/nicMean)
		}
		fmt.Fprintf(&b, "  %-18s mean=%-10s p99=%-10s throughput=%8.0f req/s%s\n",
			r.Backend, dur(r.Summary.Mean), dur(r.Summary.P99), r.PerSecond, slowdown)
	}
	return b.String()
}

// RenderTable3 prints resource utilization.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: additional resources for the image-transformer workload\n")
	fmt.Fprintf(&b, "  %-18s %14s %18s %16s\n", "Backend", "Host CPU (%)", "Host Memory (MiB)", "NIC Memory (MiB)")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-18s %14.1f %18.1f %16.1f\n",
			r.Backend, r.Usage.HostCPUPercent, r.Usage.HostMemoryMiB, r.Usage.NICMemoryMiB)
	}
	return b.String()
}

// RenderTable4 prints artifact sizes and startup times.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4: factors affecting startup times\n")
	fmt.Fprintf(&b, "  %-18s %18s %16s\n", "Backend", "Workload (MiB)", "Startup (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-18s %18.1f %16.1f\n", r.Backend, r.SizeMiB, r.Startup.Seconds())
	}
	return b.String()
}

// RenderFigure9 prints the optimizer trajectory.
func RenderFigure9(results []mcc.PassResult) string {
	var b strings.Builder
	b.WriteString("Figure 9: effectiveness of target-specific optimizations\n")
	if len(results) == 0 {
		return b.String()
	}
	base := float64(results[0].Instructions)
	for _, r := range results {
		pct := 100 * (base - float64(r.Instructions)) / base
		fmt.Fprintf(&b, "  %-24s %6d instructions  (-%.2f%%)\n", r.Pass, r.Instructions, pct)
	}
	return b.String()
}
