package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"lambdanic/internal/backend"
	testbed "lambdanic/internal/cluster"
	"lambdanic/internal/kvstore"
	"lambdanic/internal/matchlambda"
	"lambdanic/internal/metrics"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/rdma"
	"lambdanic/internal/sim"
	"lambdanic/internal/trace"
	"lambdanic/internal/transport"
	"lambdanic/internal/workloads"
)

// Direct probes: each times one layer's public calls on their own, so a
// change in that layer has a number of its own beside the spans. They
// depend on no workload and run in every traced run. brief shortens
// them (smoke mode).

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func()) time.Duration {
	v := make([]float64, reps)
	for i := range v {
		start := time.Now()
		fn()
		v[i] = float64(time.Since(start))
	}
	return time.Duration(median(v))
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calib times a fixed arithmetic loop: the machine's speed at this
// moment. Two sets of runs that disagree can be told apart from a
// machine that drifted between them.
func calib() float64 {
	return float64(timeMedian(5, func() {
		x := uint64(88172645463325252)
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
	}))
}

// probeEcho is the floor of a hop pair: a bare endpoint calling a bare
// endpoint over memnet with the given request and reply sizes, one
// caller. It returns the median round trip in µs.
func probeEcho(reqBytes, respBytes int, d time.Duration) (float64, error) {
	n := transport.NewMemNetwork(1)
	sConn, err := n.Listen("echo-server")
	if err != nil {
		return 0, err
	}
	reply := make([]byte, respBytes)
	server := transport.NewEndpoint(sConn, func(*transport.Message) ([]byte, error) { return reply, nil })
	defer server.Close()
	cConn, err := n.Listen("echo-client")
	if err != nil {
		return 0, err
	}
	client := transport.NewEndpoint(cConn, nil)
	defer client.Close()
	payload := make([]byte, reqBytes)
	var lats []float64
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		if _, err := client.Call(context.Background(), transport.MemAddr("echo-server"), 1, payload); err != nil {
			return 0, fmt.Errorf("echo: %w", err)
		}
		lats = append(lats, float64(time.Since(t0))/1e3)
	}
	return median(lats), nil
}

// probeFragmentReassemble times Fragment plus Reassembler.Add over one
// 64 KiB message, µs.
func probeFragmentReassemble(reps int) (float64, error) {
	payload := make([]byte, 64*1024)
	h := matchlambda.WireHeader{Version: matchlambda.Version1, WorkloadID: 4}
	var failed error
	d := timeMedian(reps, func() {
		h.RequestID++
		pkts, err := transport.Fragment(h, payload, transport.DefaultMTU)
		if err != nil {
			failed = err
			return
		}
		r := transport.NewReassembler()
		var msg *transport.Message
		for _, p := range pkts {
			if msg, err = r.Add(p); err != nil {
				failed = err
				return
			}
		}
		if msg == nil || len(msg.Payload) != len(payload) {
			failed = fmt.Errorf("reassembled %v", msg)
		}
	})
	return float64(d) / 1e3, failed
}

// probeKV times Table.Get and Store.Set (mirror attached) by direct
// call, ns per operation.
func probeKV(ops int) (getNs, setNs float64) {
	store := kvstore.NewStore()
	table := kvstore.NewTable(kvstore.DefaultSlots)
	store.SetMirror(table)
	keys := make([]string, kvKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("user:%04d", i)
		_ = store.Set(keys[i], 0, []byte(fmt.Sprintf("value-%d", i))) // fixed valid keys and small values cannot fail
	}
	value := []byte("value-123")
	start := time.Now()
	for i := 0; i < ops; i++ {
		table.Get(keys[i%kvKeys])
	}
	getNs = float64(time.Since(start)) / float64(ops)
	start = time.Now()
	for i := 0; i < ops; i++ {
		_ = store.Set(keys[i%kvKeys], 0, value)
	}
	setNs = float64(time.Since(start)) / float64(ops)
	return getNs, setNs
}

// probeMCC times the compiler and the compiled engine.
func probeMCC(m *metricSet, brief bool) error {
	reps, execs := 7, 20000
	if brief {
		reps, execs = 1, 2000
	}
	set := workloads.DefaultSet()
	exe, _, err := workloads.CompileOptimized(set, workloads.NaiveProgramTarget)
	if err != nil {
		return err
	}
	var failed error
	m.set("mcc.compile_ms", float64(timeMedian(reps, func() {
		if _, _, err := workloads.CompileOptimized(workloads.DefaultSet(), workloads.NaiveProgramTarget); err != nil {
			failed = err
		}
	}))/1e6, "ms")
	for _, p := range []struct {
		name string
		w    *workloads.Workload
		n    int
		unit string
		div  float64
	}{
		{"mcc.exec_web_ns", set[0], execs, "ns", 1},
		{"mcc.exec_kvget_ns", set[1], execs, "ns", 1},
		{"mcc.exec_image_us", set[3], reps, "us", 1e3},
	} {
		payload := p.w.MakeRequest(7)
		req := &nicsim.Request{LambdaID: p.w.ID, Payload: payload, Packets: workloads.Packets(len(payload))}
		run := func() {
			if err := exe.ExecutePooled(req, nil); err != nil {
				failed = err
			}
		}
		run() // the runtime library's one-time init
		start := time.Now()
		for i := 0; i < p.n; i++ {
			run()
		}
		m.set(p.name, float64(time.Since(start))/float64(p.n)/p.div, p.unit)
	}
	return failed
}

// probeBackend times building one simulated NIC: NewLambdaNIC + Deploy
// (firmware compile and the 64 MiB staging region), and Register(64
// MiB) alone with the registrations held, the way a rack holds them.
func probeBackend(m *metricSet, brief bool) (deployMs float64, err error) {
	reps, held := 5, 8
	if brief {
		reps, held = 1, 1
	}
	tb := testbed.Default()
	var failed error
	deployMs = float64(timeMedian(reps, func() {
		b, err := backend.NewLambdaNIC(sim.New(1), tb, nicsim.DispatchUniform)
		if err == nil {
			err = b.Deploy(workloads.DefaultSet())
		}
		if err != nil {
			failed = err
		}
	})) / 1e6
	m.set("backend.deploy_ms", deployMs, "ms")

	eng := rdma.New(sim.New(1), rdma.Config{Link: tb.Link, MTU: workloads.MTU})
	regions := make([]*rdma.Region, 0, held)
	m.set("rdma.register_ms", float64(timeMedian(held, func() {
		r, err := eng.Register("probe", 64*1024*1024)
		if err != nil {
			failed = err
		}
		regions = append(regions, r)
	}))/1e6, "ms")
	runtime.KeepAlive(regions)
	return deployMs, failed
}

// schedDelay is simbench's delay mixture: 70% NPU service times, 20%
// wire trips, 10% control-plane timers.
func schedDelay(fired int) time.Duration {
	switch fired % 10 {
	case 0:
		return 10 * time.Millisecond
	case 1, 2:
		return time.Duration(40+fired%20) * time.Microsecond
	default:
		return time.Duration(1000+fired%9000) * time.Nanosecond
	}
}

// probeSched is the sim kernel alone: self-rescheduling pooled events
// on the ladder queue, events per host second.
func probeSched(events int) float64 {
	const outstanding = 32768
	s := sim.New(1)
	fired := 0
	var tick func()
	tick = func() {
		if fired++; fired < events {
			s.After(schedDelay(fired), tick)
		}
	}
	for i := 0; i < outstanding; i++ {
		s.At(sim.Time(i)*time.Microsecond, tick)
	}
	start := time.Now()
	for fired < events && s.Step() {
	}
	return float64(s.Executed) / time.Since(start).Seconds()
}

// probeNICSim is one simulated λ-NIC serving web requests in a closed
// loop of 8: simulated requests per host second.
func probeNICSim(requests int) (float64, error) {
	s := sim.New(1)
	b, err := backend.NewLambdaNIC(s, testbed.Default(), nicsim.DispatchUniform)
	if err != nil {
		return 0, err
	}
	web := workloads.WebServer()
	if err := b.Deploy([]*workloads.Workload{web}); err != nil {
		return 0, err
	}
	start := time.Now()
	res, err := trace.ClosedLoop{
		Concurrency: 8,
		Requests:    requests,
		Gen:         trace.Fixed(web.ID, web.MakeRequest),
	}.Run(s, b)
	if err != nil {
		return 0, err
	}
	if res.Errors != 0 {
		return 0, fmt.Errorf("nicsim probe: %d requests failed", res.Errors)
	}
	return float64(requests) / time.Since(start).Seconds(), nil
}

// probeSample times metrics.Sample: adds plus one p99.
func probeSample(adds int) float64 {
	return float64(timeMedian(3, func() {
		var s metrics.Sample
		for i := 0; i < adds; i++ {
			s.Add(float64((i * 7919) % adds))
		}
		s.Quantile(0.99)
	})) / 1e6
}

// directProbes runs every workload-independent probe.
func directProbes(m *metricSet, brief bool) (deployMs float64, err error) {
	scale := 1
	if brief {
		scale = 10
	}
	us, err := probeFragmentReassemble(200 / scale)
	if err != nil {
		return 0, err
	}
	m.set("transport.fragment_reassemble_us", us, "us")
	getNs, setNs := probeKV(1_000_000 / scale)
	m.set("kvstore.table_get_ns", getNs, "ns")
	m.set("kvstore.store_set_ns", setNs, "ns")
	if err := probeMCC(m, brief); err != nil {
		return 0, err
	}
	if deployMs, err = probeBackend(m, brief); err != nil {
		return 0, err
	}
	m.set("sim.sched_events_per_s", probeSched(2_000_000/scale), "1/s")
	rps, err := probeNICSim(20_000 / scale)
	if err != nil {
		return 0, err
	}
	m.set("nicsim.req_per_host_s", rps, "1/s")
	m.set("workloads.image_request_ms", float64(timeMedian(20/scale, func() {
		workloads.ImageRequest(workloads.DefaultImageWidth, workloads.DefaultImageHeight, 7)
	}))/1e6, "ms")
	m.set("metrics.sample_quantile_ms", probeSample(200_000/scale), "ms")
	return deployMs, nil
}
