package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lambdanic/internal/monitor"
)

// A traced run (-trace) produces the per-layer metrics. Every name is
// produced on every workload, so one table can be laid beside another;
// what changes with the workload is which pass runs at full length:
//
//   - the two data-plane passes (interactive_mix, image_bulk): an
//     untraced one-caller segment, then the same on a tapped cluster.
//     The selected workload's pass is long; the other is brief. The
//     spans and runtime.* reported are the selected workload's (on a
//     simulator workload: interactive_mix's, brief); the per-kind
//     handler times always come from the pass that sends that kind.
//   - the loopback-UDP pass: both request streams through the same
//     cluster on real sockets.
//   - the direct probes (probes.go).
//   - the two simulator passes, one child process each: the selected
//     workload at full size, the other at smoke size.

// passLen is how long a data-plane pass measures.
type passLen struct{ untraced, traced, warm time.Duration }

func lens(o options) (full, brief passLen, udp, echo time.Duration) {
	sec := time.Duration(o.seconds * float64(time.Second))
	full = passLen{sec / 8, sec / 4, 500 * time.Millisecond}
	brief = passLen{500 * time.Millisecond, time.Second, 200 * time.Millisecond}
	udp, echo = sec/10, sec/40
	if o.smoke {
		brief = passLen{150 * time.Millisecond, 250 * time.Millisecond, 50 * time.Millisecond}
		full, udp, echo = brief, 200*time.Millisecond, 50*time.Millisecond
	}
	return
}

// scrape sums a monitoring-registry counter over all its series.
func scrape(reg *monitor.Registry, name string) float64 {
	var sum float64
	for _, line := range strings.Split(reg.Render(), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		if v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// dpPass is one data-plane pass's outcome.
type dpPass struct {
	untraced, traced *loadResult
	tr               *tracer
	deploys          []time.Duration
	counters         planeCounters // from the traced cluster, at its end
}

// planeCounters are the data plane's own failure and retry counts.
type planeCounters struct {
	retransmits, duplicates, drops float64
	failovers, unrouted, throttled float64
}

// runPass runs one workload's untraced and traced one-caller segments.
func runPass(workload string, seed int64, l passLen) (*dpPass, error) {
	in, err := makeInputs(workload, seed, 1)
	if err != nil {
		return nil, err
	}
	p := &dpPass{}
	c, _, err := setUp(newMemNetwork(seed), seed, nil, in)
	if err != nil {
		return nil, err
	}
	p.untraced = drive(c, in, 1, l.warm, l.untraced, nil)
	if err := c.Close(); err != nil {
		return nil, err
	}

	p.tr = newTracer()
	c, p.deploys, err = setUp(newMemNetwork(seed), seed, p.tr, in)
	if err != nil {
		return nil, err
	}
	p.traced = drive(c, in, 1, l.warm, l.traced, p.tr)
	p.counters = planeCounters{
		retransmits: float64(c.client.Retransmits() + c.gw.Retransmits()),
		duplicates:  float64(c.client.Duplicates()),
		// The gateway's and worker 0's pool drops are exposed only
		// through the monitoring registry.
		drops: float64(c.client.Drops()) + scrape(c.metrics, "lnic_gateway_pool_drops_total") +
			scrape(c.metrics, "lnic_worker_pool_drops_total"),
		failovers: float64(c.gw.Failovers()),
		unrouted:  float64(c.gw.Unrouted()),
		throttled: float64(c.gw.Throttled()),
	}
	return p, c.Close()
}

// spanStats are the medians, in µs, of each span over a traced pass's
// regular requests.
type spanStats struct {
	regular, measured       int
	gets, bypassed          int // regular GETs, and those the one-sided Bypass served
	clientSend, hop, recv   float64
	forward, relay          float64
	workerSelf, kvRoundTrip float64
	handle                  [numKinds]float64
	sumOverLatency          float64 // median of (Σ tiles)/latency; 1 by construction
}

func (p *dpPass) spanStats() spanStats {
	var send, hop, recv, fwd, relay, self, kv, ratio []float64
	var handle [numKinds][]float64
	st := spanStats{}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, r := range p.tr.recs {
		if r.measured {
			st.measured++
		}
		b, regular := r.bounds()
		if !regular {
			continue
		}
		st.regular++
		send = append(send, us(b[1]-b[0]))
		hop = append(hop, us((b[2]-b[1])+(b[4]-b[3])+(b[6]-b[5])+(b[8]-b[7])))
		fwd = append(fwd, us(b[3]-b[2]))
		relay = append(relay, us(b[7]-b[6]))
		recv = append(recv, us(b[9]-b[8]))
		self = append(self, us((b[5]-b[4])-(r.hEnd-r.hStart)))
		handle[r.kind] = append(handle[r.kind], us(r.hEnd-r.hStart))
		if r.kind == kindKVGet {
			st.gets++
			if r.bypass {
				st.bypassed++
			}
		}
		if r.kvTx != 0 && r.kvRx >= r.kvTx {
			kv = append(kv, us(r.kvRx-r.kvTx))
		}
		var tiles int64
		for i := 1; i < len(b); i++ {
			tiles += b[i] - b[i-1]
		}
		ratio = append(ratio, float64(tiles)/float64(r.tEnd-r.t0))
	}
	st.clientSend, st.hop, st.recv = median(send), median(hop), median(recv)
	st.forward, st.relay = median(fwd), median(relay)
	st.workerSelf, st.kvRoundTrip = median(self), median(kv)
	for k := range handle {
		st.handle[k] = median(handle[k])
	}
	st.sumOverLatency = median(ratio)
	return st
}

func perK(count float64, requests int) float64 {
	if requests == 0 {
		return 0
	}
	return count / float64(requests) * 1000
}

// udpProbe runs both request streams, two callers each, through the
// cluster on loopback UDP sockets — the daemons' path.
func udpProbe(m *metricSet, t *tally, seed int64, d time.Duration) error {
	// Two callers: more would only measure how many fragments of
	// concurrent bursts the kernel's socket buffers drop.
	const callers = 2
	for _, w := range []struct{ workload, p50 string }{
		{"interactive_mix", "transport.udp_small_p50_us"},
		{"image_bulk", "transport.udp_bulk_p50_us"},
	} {
		in, err := makeInputs(w.workload, seed, callers)
		if err != nil {
			return err
		}
		c, _, err := setUp(udpNetwork{}, seed, nil, in)
		if err != nil {
			return err
		}
		res := drive(c, in, callers, d/4, d, nil)
		retransmits := float64(c.client.Retransmits() + c.gw.Retransmits())
		if err := c.Close(); err != nil {
			return err
		}
		t.add(res.attempted, res.failed, res.firstFail)
		m.set(w.p50, res.p50(), "us")
		if w.workload == "interactive_mix" {
			m.set("transport.udp_allocs_per_req", float64(res.mem.mallocs)/float64(max(res.attempted, 1)), "count")
		} else {
			m.set("transport.udp_bulk_retransmits_per_kreq", perK(retransmits, res.attempted), "count")
		}
	}
	return nil
}

// simPass runs one simulator workload once in a child and sets its
// per-call metrics.
func simPass(m *metricSet, t *tally, workload string, seed int64, smoke bool) (*childRun, error) {
	out, err := measureSimOnce(workload, seed, smoke)
	if err != nil {
		return nil, err
	}
	t.add(out.checks, len(out.mismatches), strings.Join(out.mismatches, "; "))
	run := out.runs[0]
	for _, c := range run.report.Calls {
		if c.Name != "table1" {
			m.set("experiments."+c.Name+"_s", c.HostS, "s")
		}
	}
	return run, nil
}

// rackNICs is how many simulated NICs one sim_rack repetition builds.
func rackNICs(smoke bool) int {
	tc, sc, bc, cc := rackConfigs(smoke)
	// Skew and boundary build a rack per policy (three each).
	return tc.Workers + 3*sc.Workers + 3*bc.NICs + cc.Workers
}

// runLayers is the traced run.
func runLayers(o options, m *metricSet, t *tally) error {
	full, brief, udpLen, echoLen := lens(o)
	calibBefore := calib()

	primary := o.workload
	if !isDataPlane(primary) {
		primary = "interactive_mix"
	}
	for _, w := range []string{"interactive_mix", "image_bulk"} {
		l := brief
		if w == o.workload {
			l = full
		}
		p, err := runPass(w, o.seed, l)
		if err != nil {
			return fmt.Errorf("%s pass: %w", w, err)
		}
		t.add(p.untraced.attempted, p.untraced.failed, p.untraced.firstFail)
		t.add(p.traced.attempted, p.traced.failed, p.traced.firstFail)
		st := p.spanStats()
		if w == "interactive_mix" {
			m.set("workloads.handle_web_us", st.handle[kindWeb], "us")
			m.set("workloads.handle_kvget_us", st.handle[kindKVGet], "us")
			m.set("workloads.handle_kvset_us", st.handle[kindKVSet], "us")
			m.set("workloads.web_p50_us", p.untraced.p50ByKind(kindWeb), "us")
			m.set("workloads.kvget_p50_us", p.untraced.p50ByKind(kindKVGet), "us")
			m.set("workloads.kvset_p50_us", p.untraced.p50ByKind(kindKVSet), "us")
			m.set("kvstore.roundtrip_us", st.kvRoundTrip, "us")
			// Counted at the wrapped Bypass, not read from the worker's
			// registry: only worker 0 feeds the registry (as in
			// NewDeployment), and flow pinning may send every GET of the
			// one traced caller to the other worker.
			m.set("core.bypass_share", float64(st.bypassed)/float64(max(st.gets, 1)), "ratio")
		} else {
			m.set("workloads.handle_image_us", st.handle[kindImage], "us")
		}
		if w != primary {
			continue
		}
		m.set("transport.client_send_us", st.clientSend, "us")
		m.set("transport.hop_us", st.hop, "us")
		m.set("transport.client_recv_us", st.recv, "us")
		m.set("gateway.forward_us", st.forward, "us")
		m.set("gateway.relay_us", st.relay, "us")
		m.set("core.worker_self_us", st.workerSelf, "us")
		var deploys []float64
		for _, d := range p.deploys {
			deploys = append(deploys, float64(d)/1e6)
		}
		m.set("core.manager_deploy_ms", median(deploys), "ms")
		n := p.traced.attempted
		m.set("transport.retransmits_per_kreq", perK(p.counters.retransmits, n), "count")
		m.set("transport.duplicates_per_kreq", perK(p.counters.duplicates, n), "count")
		m.set("transport.drops_per_kreq", perK(p.counters.drops, n), "count")
		m.set("gateway.failovers", p.counters.failovers, "count")
		m.set("gateway.unrouted", p.counters.unrouted, "count")
		m.set("gateway.throttled", p.counters.throttled, "count")
		un := p.untraced
		reqs := float64(max(un.attempted, 1))
		m.set("runtime.allocs_per_req", float64(un.mem.mallocs)/reqs, "count")
		m.set("runtime.alloc_bytes_per_req", float64(un.mem.bytes)/reqs, "B")
		m.set("runtime.gc_per_s", float64(un.mem.gcs)/un.seconds, "1/s")
		m.set("bench.trace_overhead_pct", (p.traced.p50()/un.p50()-1)*100, "%")
		m.set("bench.span_sum_over_latency", st.sumOverLatency, "ratio")
		m.set("bench.trace_regular_share", float64(st.regular)/float64(max(st.measured, 1)), "ratio")
		m.set("bench.samples", float64(st.regular), "count")
		if st.regular == 0 {
			return fmt.Errorf("%s pass: no regular traced request out of %d", w, st.measured)
		}
		spanPath := filepath.Join(o.outDir, "spans", fmt.Sprintf("%s-seed%d.json", w, o.seed))
		if err := p.tr.writeSpans(spanPath); err != nil {
			return err
		}
		fmt.Printf("# spans of the %s pass: %s\n", w, spanPath)

		// The floor of a hop pair, with this workload's message sizes.
		reqBytes, respBytes := 5, webPageSize
		if w == "image_bulk" {
			reqBytes, respBytes = 8+4*imageSide*imageSide, imageSide*imageSide
		}
		echo, err := probeEcho(reqBytes, respBytes, echoLen)
		if err != nil {
			return err
		}
		m.set("transport.echo_p50_us", echo, "us")
	}

	if err := udpProbe(m, t, o.seed, udpLen); err != nil {
		return fmt.Errorf("loopback pass: %w", err)
	}
	deployMs, err := directProbes(m, o.smoke)
	if err != nil {
		return fmt.Errorf("direct probes: %w", err)
	}

	if _, err := simPass(m, t, "sim_paper", o.seed, o.smoke || o.workload != "sim_paper"); err != nil {
		return err
	}
	rackSmoke := o.smoke || o.workload != "sim_rack"
	rack, err := simPass(m, t, "sim_rack", o.seed, rackSmoke)
	if err != nil {
		return err
	}
	hostS := rack.report.hostS()
	m.set("sim.events", float64(rack.report.events()), "count")
	m.set("sim.rack_events_per_s", float64(rack.report.events())/hostS, "1/s")
	m.set("experiments.rack_build_est_share", deployMs/1e3*float64(rackNICs(rackSmoke))/hostS, "ratio")

	m.set("bench.calib_ns", (calibBefore+calib())/2, "ns")
	return nil
}
