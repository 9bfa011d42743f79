package experiments

import (
	"fmt"
	"strings"
	"time"

	"lambdanic/internal/backend"
	"lambdanic/internal/cluster"
	"lambdanic/internal/cpusim"
	"lambdanic/internal/metrics"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/sim"
	"lambdanic/internal/trace"
	"lambdanic/internal/workloads"
)

// NICClassResult quantifies Table 1 for one SmartNIC class running the
// Match+Lambda machine model (§7: "the λ-NIC abstract machine model can
// run on other SmartNICs (with varying benefits)").
type NICClassResult struct {
	Class string
	// WebLatency is the warm web-server service latency.
	WebLatency metrics.Summary
	// WebThroughput is the 112-way concurrent web throughput (direct,
	// no gateway; the NIC itself is the bottleneck under study).
	WebThroughput float64
}

// fpgaNIC models an FPGA-based SmartNIC: on-chip interconnect overhead
// limits it to a handful of processing cores (§2.2: "today's large
// FPGAs can barely support a small number of processing cores (< 10 or
// so)"), clocked lower than the ASIC but with fast on-chip memories.
func fpgaNIC(tb cluster.Testbed) cluster.NICConfig {
	nic := tb.NIC
	nic.Islands = 1
	nic.CoresPerIsland = 8
	nic.ThreadsPerCore = 1
	nic.ClockHz = 250_000_000
	nic.LocalLatency = 1
	nic.CTMLatency = 20 // BRAM
	nic.IMEMLatency = 60
	nic.EMEMLatency = 400
	return nic
}

// socCosts models a SoC-based SmartNIC: ~50 embedded ARM cores running
// a Linux-like OS (§2.2), so every request pays a kernel network stack
// and scheduler dispatch — "similar to server CPUs, they are
// susceptible to high tail latency due to context switch and network
// stack overheads".
func socCosts() (cluster.HostConfig, cluster.SoftwareCosts) {
	host := cluster.HostConfig{
		PhysicalCores:  48,
		ThreadsPerCore: 1,
		ClockHz:        1_200_000_000,
		MemoryBytes:    8 << 30,
	}
	costs := cluster.SoftwareCosts{
		KernelRx:          15 * time.Microsecond,
		KernelTx:          10 * time.Microsecond,
		DispatchWarm:      8 * time.Microsecond,
		DispatchLoaded:    20 * time.Microsecond,
		ContextSwitch:     25 * time.Microsecond,
		InterpreterFactor: 1.5, // native ARM runtime, no Python
	}
	return host, costs
}

// SmartNICClasses runs the web-server lambda on all three SmartNIC
// classes of Table 1 and reports latency and saturated throughput. The
// qualitative table's claims become measurements: ASIC and FPGA are
// both low-latency but the FPGA's few cores cap its throughput; the SoC
// has cores to spare but its OS path puts it an order of magnitude
// behind on latency.
func SmartNICClasses(cfg Config) ([]NICClassResult, error) {
	web := workloads.WebServer()
	requests := cfg.Fig7Requests
	concurrency := 2 * cfg.Concurrency

	measure := func(mk func(s *sim.Sim) (trace.Invoker, error)) (metrics.Summary, float64, error) {
		// Latency: closed loop, one outstanding.
		s := cfg.newSim()
		inv, err := mk(s)
		if err != nil {
			return metrics.Summary{}, 0, err
		}
		lat, err := trace.ClosedLoop{
			Concurrency: 1, Requests: cfg.Fig6Samples, Warmup: warmup,
			Gen: trace.Fixed(web.ID, web.MakeRequest),
		}.Run(s, inv)
		if err != nil {
			return metrics.Summary{}, 0, err
		}
		// Throughput: saturating concurrency.
		s2 := cfg.newSim()
		inv2, err := mk(s2)
		if err != nil {
			return metrics.Summary{}, 0, err
		}
		tput, err := trace.ClosedLoop{
			Concurrency: concurrency, Requests: requests, Warmup: warmup,
			Gen: trace.Fixed(web.ID, web.MakeRequest),
		}.Run(s2, inv2)
		if err != nil {
			return metrics.Summary{}, 0, err
		}
		return lat.Latency.Summarize(), tput.Throughput.PerSecond(), nil
	}

	nicBackend := func(nic cluster.NICConfig) func(s *sim.Sim) (trace.Invoker, error) {
		return func(s *sim.Sim) (trace.Invoker, error) {
			tb := cfg.Testbed
			tb.NIC = nic
			b, err := backend.NewLambdaNIC(s, tb, nicsim.DispatchUniform)
			if err != nil {
				return nil, err
			}
			if err := b.Deploy(cfg.set()); err != nil {
				return nil, err
			}
			return b, nil
		}
	}
	socBackend := func(s *sim.Sim) (trace.Invoker, error) {
		host, costs := socCosts()
		h, err := cpusim.New(s, cpusim.Config{Host: host, Costs: costs, Mode: cpusim.ModeBareMetal})
		if err != nil {
			return nil, err
		}
		for _, w := range cfg.set() {
			// Native embedded runtime: execution parallelizes across
			// the ARM cores.
			p := w.Profile
			p.GILFraction = 0
			if err := h.Deploy(p); err != nil {
				return nil, err
			}
		}
		return &socInvoker{s: s, h: h, tb: cfg.Testbed}, nil
	}

	classes := []struct {
		name string
		mk   func(s *sim.Sim) (trace.Invoker, error)
	}{
		{"ASIC-based", nicBackend(cfg.Testbed.NIC)},
		{"FPGA-based", nicBackend(fpgaNIC(cfg.Testbed))},
		{"SoC-based", socBackend},
	}
	var out []NICClassResult
	for _, c := range classes {
		lat, tput, err := measure(c.mk)
		if err != nil {
			return nil, fmt.Errorf("nic class %s: %w", c.name, err)
		}
		out = append(out, NICClassResult{Class: c.name, WebLatency: lat, WebThroughput: tput})
	}
	return out, nil
}

// socInvoker adapts the cpusim host (without container/python layers)
// as an invoker with wire latency, standing in for an SoC NIC's
// embedded cores.
type socInvoker struct {
	s  *sim.Sim
	h  *cpusim.Host
	tb cluster.Testbed
}

func (si *socInvoker) Invoke(id uint32, payload []byte, done func(backend.Result)) {
	si.s.Schedule(si.tb.Link.OneWay(len(payload)), func() {
		si.h.Submit(id, len(payload), workloads.Packets(len(payload)), func(err error) {
			si.s.Schedule(si.tb.Link.OneWay(256), func() {
				done(backend.Result{Err: err})
			})
		})
	})
}

// RenderNICClasses prints the quantified Table 1.
func RenderNICClasses(results []NICClassResult) string {
	var b strings.Builder
	b.WriteString("SmartNIC classes running Match+Lambda (Table 1, quantified; §7)\n")
	fmt.Fprintf(&b, "  %-12s %14s %14s %16s\n", "Class", "web p50", "web p99", "throughput")
	for _, r := range results {
		fmt.Fprintf(&b, "  %-12s %14s %14s %13.0f req/s\n",
			r.Class, metrics.FormatSeconds(r.WebLatency.P50),
			metrics.FormatSeconds(r.WebLatency.P99), r.WebThroughput)
	}
	return b.String()
}
