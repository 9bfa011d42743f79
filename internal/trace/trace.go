// Package trace drives simulated backends with the load patterns the
// paper's evaluation uses (§6.3): closed-loop testing "with sender
// generating each request one after the other", parallel testing with
// 56 concurrent requests, and round-robin generation across multiple
// lambdas for the contention experiments (§6.3.2). It also models the
// OpenFaaS gateway stage every request traverses in the throughput
// experiments.
package trace

import (
	"time"

	"lambdanic/internal/backend"
	"lambdanic/internal/metrics"
	"lambdanic/internal/obs"
	"lambdanic/internal/sim"
)

// Invoker submits one request into the simulation. backend.Backend
// satisfies it.
type Invoker interface {
	Invoke(id uint32, payload []byte, done func(backend.Result))
}

// invoke dispatches through the target's traced path when a span
// container is attached and the target supports it.
func invoke(target Invoker, id uint32, payload []byte, tr *obs.Req, done func(backend.Result)) {
	if tr != nil {
		if ti, ok := target.(backend.Traced); ok {
			ti.InvokeTraced(id, payload, tr, done)
			return
		}
	}
	target.Invoke(id, payload, done)
}

// Gateway models the gateway + NAT proxy in front of the backends: a
// pipeline latency every request experiences plus a serialized
// per-request CPU occupancy whose reciprocal caps cluster throughput
// (Table 2's 58 kreq/s). It implements Invoker by wrapping another.
type Gateway struct {
	sim       *sim.Sim
	inner     Invoker
	latency   time.Duration
	occupancy time.Duration
	freeAt    sim.Time
}

// NewGateway wraps inner with the gateway stage.
func NewGateway(s *sim.Sim, inner Invoker, latency, occupancy time.Duration) *Gateway {
	return &Gateway{sim: s, inner: inner, latency: latency, occupancy: occupancy}
}

// Invoke implements Invoker: the request waits for the gateway's
// serialized slot, experiences the pipeline latency, and then enters
// the backend; the response pays the pipeline latency on the way out.
func (g *Gateway) Invoke(id uint32, payload []byte, done func(backend.Result)) {
	g.InvokeTraced(id, payload, nil, done)
}

// InvokeTraced implements backend.Traced: the occupancy wait plus the
// ingress pipeline half and the egress half are attributed to the
// gateway stage; tr is forwarded to the wrapped invoker.
func (g *Gateway) InvokeTraced(id uint32, payload []byte, tr *obs.Req, done func(backend.Result)) {
	now := g.sim.Now()
	start := now
	if g.freeAt > start {
		start = g.freeAt
	}
	g.freeAt = start + sim.Time(g.occupancy)
	enter := start + sim.Time(g.latency)/2
	if tr != nil {
		tr.AddSpan(obs.StageGateway, "gateway", "ingress", now, enter)
	}
	g.sim.At(enter, func() {
		invoke(g.inner, id, payload, tr, func(r backend.Result) {
			if tr != nil {
				back := g.sim.Now()
				tr.AddSpan(obs.StageGateway, "gateway", "egress", back, back+sim.Time(g.latency)/2)
			}
			g.sim.After(sim.Time(g.latency)/2, func() { done(r) })
		})
	})
}

// Request is one generated request.
type Request struct {
	Workload uint32
	Payload  []byte
	// Label optionally names the workload in trace reports.
	Label string
	// Recycle, when non-nil, takes Payload back for the generator to
	// build a later request in. The payload stays the caller's until the
	// request's completion callback has run — the λ-NIC lambda reads it
	// in place after its RDMA commit, and cpusim only takes its length —
	// so that is when ClosedLoop and OpenLoop call it.
	Recycle func(payload []byte)
}

// release returns a finished request's payload to its generator and
// its reply to the backend: the load drivers read neither once the
// request's completion callback has run.
func (r Request) release(reply backend.Result) {
	if r.Recycle != nil {
		poison(r.Payload)
		r.Recycle(r.Payload)
	}
	if reply.Recycle != nil {
		reply.Recycle(reply.Payload)
	}
}

// Generator produces the i-th request of a run.
type Generator func(i int) Request

// RoundRobin interleaves several per-workload generators — the round-
// robin request pattern of §6.3.2.
func RoundRobin(gens ...Generator) Generator {
	return func(i int) Request {
		g := gens[i%len(gens)]
		return g(i / len(gens))
	}
}

// Fixed generates requests for one workload using its payload maker.
func Fixed(id uint32, makePayload func(i int) []byte) Generator {
	return func(i int) Request {
		return Request{Workload: id, Payload: makePayload(i)}
	}
}

// Refilled is Fixed for payloads worth recycling: fill(i, buf) builds
// the i-th payload in buf's backing array when it is large enough, and
// buf is a finished request's payload (nil until one has finished). The
// free list belongs to the returned generator, so drive one simulation
// with it at a time.
func Refilled(id uint32, fill func(i int, buf []byte) []byte) Generator {
	var free [][]byte
	recycle := func(p []byte) { free = append(free, p) }
	return func(i int) Request {
		var buf []byte
		if last := len(free) - 1; last >= 0 {
			buf, free = free[last], free[:last]
		}
		return Request{Workload: id, Payload: fill(i, buf), Recycle: recycle}
	}
}

// Sized is the generator for targets that read a payload's length and
// nothing else (the CPU cost models): every request carries the same
// n-byte buffer, which nothing writes and no target reads.
func Sized(id uint32, n int) Generator {
	payload := make([]byte, n)
	return func(int) Request { return Request{Workload: id, Payload: payload} }
}

// Labeled is Fixed with a workload name attached for trace reports.
func Labeled(id uint32, label string, makePayload func(i int) []byte) Generator {
	return func(i int) Request {
		return Request{Workload: id, Payload: makePayload(i), Label: label}
	}
}

// Result summarizes one load run.
type Result struct {
	Latency    metrics.Sample
	Throughput metrics.Throughput
	Errors     int
}

// OpenLoop issues requests at a fixed offered rate with exponential
// (Poisson) interarrival times, independent of completions — the
// arrival model for latency-versus-load curves. Unlike ClosedLoop,
// queues can grow without bound when the target saturates.
type OpenLoop struct {
	// RatePerSec is the offered load.
	RatePerSec float64
	Requests   int
	Gen        Generator
	Warmup     int
	// Tracer, when non-nil, receives a span container per measured
	// request (sampling is the tracer's decision).
	Tracer obs.Tracer
}

// Run drives the target, returning latency and throughput measurements.
func (o OpenLoop) Run(s *sim.Sim, target Invoker) (*Result, error) {
	res, err := o.Start(s, target)
	if err != nil {
		return nil, err
	}
	if err := s.RunUntilIdle(); err != nil {
		return nil, err
	}
	return res, nil
}

// Start schedules the whole arrival process on s without running the
// simulation: the result fills in as the caller drives s (or the
// sim.Parallel domain holding it). Use Run unless the simulation is
// executed externally.
func (o OpenLoop) Start(s *sim.Sim, target Invoker) (*Result, error) {
	if o.RatePerSec <= 0 {
		return nil, errInvalidRate
	}
	res := &Result{}
	total := o.Warmup + o.Requests
	rng := s.Rand()
	at := sim.Time(0)
	// windowOpen distinguishes "throughput window not yet opened" from
	// a window legitimately starting at virtual time 0: comparing
	// Start against 0 would re-stamp the window on every issue until a
	// nonzero time was recorded.
	windowOpen := false
	for i := 0; i < total; i++ {
		i := i
		measured := i >= o.Warmup
		s.At(at, func() {
			if measured && !windowOpen {
				windowOpen = true
				res.Throughput.Start = s.Now()
			}
			// Generated at issue time, so payloads of requests that have
			// finished by now can be reused.
			req := o.Gen(i)
			start := s.Now()
			var tr *obs.Req
			if o.Tracer != nil && measured {
				tr = o.Tracer.Begin(req.Workload, req.Label)
			}
			invoke(target, req.Workload, req.Payload, tr, func(r backend.Result) {
				tr.Finish(s.Now(), r.Err)
				req.release(r)
				if !measured {
					return
				}
				if r.Err != nil {
					res.Errors++
				} else {
					res.Latency.AddDuration(s.Now() - start)
				}
				res.Throughput.Completed++
				res.Throughput.End = s.Now()
			})
		})
		gap := rng.ExpFloat64() / o.RatePerSec
		at += sim.Time(gap * float64(time.Second))
	}
	return res, nil
}

var errInvalidRate = errInvalidRateType{}

type errInvalidRateType struct{}

func (errInvalidRateType) Error() string { return "trace: open-loop rate must be positive" }

// ClosedLoop is a generator keeping Concurrency requests outstanding
// until Requests complete. Concurrency 1 is the paper's closed-loop
// test; 56 is its parallel test.
type ClosedLoop struct {
	Concurrency int
	Requests    int
	Gen         Generator
	// Warmup requests run before measurement starts (the paper
	// measures warm lambdas) and are excluded from the results.
	Warmup int
	// Tracer, when non-nil, receives a span container per measured
	// request (sampling is the tracer's decision).
	Tracer obs.Tracer
}

// Run drives the target until all requests complete, returning latency
// and throughput measurements. It runs the simulation to idle.
func (c ClosedLoop) Run(s *sim.Sim, target Invoker) (*Result, error) {
	res, err := c.Start(s, target)
	if err != nil {
		return nil, err
	}
	if err := s.RunUntilIdle(); err != nil {
		return nil, err
	}
	return res, nil
}

// Start issues the initial concurrency window on s without running the
// simulation; subsequent requests chain from completion callbacks as
// the caller drives s. Use Run unless the simulation is executed
// externally (e.g. by a sim.Parallel coordinator).
func (c ClosedLoop) Start(s *sim.Sim, target Invoker) (*Result, error) {
	res := &Result{}
	if c.Concurrency < 1 {
		c.Concurrency = 1
	}
	total := c.Warmup + c.Requests
	issued := 0
	completed := 0
	measuring := false

	var issue func()
	issue = func() {
		if issued >= total {
			return
		}
		i := issued
		issued++
		req := c.Gen(i)
		start := s.Now()
		if i == c.Warmup {
			// First measured request: open the throughput window.
			res.Throughput.Start = s.Now()
			measuring = true
		}
		measured := measuring && i >= c.Warmup
		var tr *obs.Req
		if c.Tracer != nil && measured {
			tr = c.Tracer.Begin(req.Workload, req.Label)
		}
		invoke(target, req.Workload, req.Payload, tr, func(r backend.Result) {
			tr.Finish(s.Now(), r.Err)
			completed++
			if measured {
				if r.Err != nil {
					res.Errors++
				} else {
					res.Latency.AddDuration(s.Now() - start)
				}
				res.Throughput.Completed++
				res.Throughput.End = s.Now()
			}
			req.release(r)
			issue()
		})
	}
	for k := 0; k < c.Concurrency && k < total; k++ {
		issue()
	}
	return res, nil
}
