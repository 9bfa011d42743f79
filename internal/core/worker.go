package core

import (
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lambdanic/internal/dispatch"
	"lambdanic/internal/monitor"
	"lambdanic/internal/obs"
	"lambdanic/internal/transport"
	"lambdanic/internal/workloads"
)

// DefaultWarmFlows is the worker's warm-state tracking capacity: the
// number of recently-seen flow keys (client source × workload) treated
// as warm — the software twin of the NIC cores' match-table/SRAM
// residency. Fleet views surface the hit rate as the WARM% column.
const DefaultWarmFlows = 64

// Worker is a functional λ-NIC worker node: it serves installed
// lambdas over the λ-NIC wire protocol, dispatching by the workload ID
// the gateway stamped into each request — the software twin of the
// NIC's match stage, used by the runnable daemons and examples.
type Worker struct {
	ep   *transport.Endpoint
	deps *workloads.Deps

	// lambdas is the match table, a copy-on-write snapshot the request
	// path reads with one atomic load; mu serializes its writers
	// (Install, Remove) and guards registry.
	lambdas atomic.Pointer[map[uint32]*lambda]
	mu      sync.Mutex
	// registry is where Install exposes a new lambda's instruments; nil
	// until EnableMetrics.
	registry *monitor.Registry

	// The worker's instruments exist from construction and are counted
	// once per event; EnableMetrics only registers views over them.
	// inflight — requests currently executing — is the load snapshot
	// carried in healthd heartbeats.
	inflight    atomic.Int64
	errors      atomic.Uint64
	warmHits    atomic.Uint64
	warmLookups atomic.Uint64
	latency     *monitor.Histogram

	// warm and tracer are the two optional stages of the request path,
	// each one atomic load when off. warm exists once EnableMetrics has
	// run: the registry is the only reader of its hit rate, and a worker
	// nobody scrapes takes no lock per request.
	warm   atomic.Pointer[warmFlows]
	tracer atomic.Pointer[obs.Tracer]
}

// lambda is one match-table entry: what to run for a workload ID and
// the instruments that count it. span is the exec span's track, built
// once here because the request path passes it to the tracer whether or
// not one is attached.
type lambda struct {
	name, tenant, span string
	handle             func(payload []byte, deps *workloads.Deps) ([]byte, error)
	bypass             func(payload []byte, deps *workloads.Deps) ([]byte, bool)

	requests, bypassed atomic.Uint64
	latency            *monitor.Histogram
}

// expose registers views over the lambda's instruments.
func (l *lambda) expose(reg *monitor.Registry) error {
	labels := map[string]string{"workload": l.name}
	if l.tenant != "" {
		// The owning tenant rides along as a label so fleet views
		// (lnicctl top/slo -tenant) can scope rows per tenant.
		labels["tenant"] = l.tenant
	}
	if err := reg.CounterFunc("lnic_worker_requests_total",
		"requests served per lambda", labels, l.requests.Load); err != nil {
		return err
	}
	if l.bypass != nil {
		if err := reg.CounterFunc("lnic_worker_bypass_total",
			"requests served by the one-sided fast path, no lambda invoked", labels, l.bypassed.Load); err != nil {
			return err
		}
	}
	return l.latency.Expose(reg, "lnic_worker_workload_latency_seconds",
		"lambda service latency per workload", labels)
}

// warmFlows is the warm-state tracker: an LRU of recently-seen flow keys
// behind its own mutex (dispatch.LRU is not concurrency-safe, and the
// request path is concurrent).
type warmFlows struct {
	mu  sync.Mutex
	lru *dispatch.LRU
}

// touch records one lookup and reports whether the flow was still warm.
func (f *warmFlows) touch(flow uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lru.Touch(flow)
}

// NewWorker starts a worker on conn with the given external-service
// dependencies. The worker owns the connection.
func NewWorker(conn net.PacketConn, deps *workloads.Deps) *Worker {
	w := &Worker{deps: deps, latency: monitor.NewHistogram()}
	w.lambdas.Store(&map[uint32]*lambda{})
	w.ep = transport.NewEndpoint(conn, w.handle)
	return w
}

// Addr returns the worker's listen address.
func (w *Worker) Addr() net.Addr { return w.ep.Addr() }

// Close stops the worker.
func (w *Worker) Close() error { return w.ep.Close() }

// Inflight returns the number of requests currently executing.
func (w *Worker) Inflight() int { return int(w.inflight.Load()) }

// EnableMetrics registers views over the worker's instruments — error
// and warm-state counters, service latency, and each lambda's request
// counters and latency, for lambdas installed before or after the call —
// in the monitoring engine's registry, and turns warm-state tracking on.
func (w *Worker) EnableMetrics(reg *monitor.Registry) error {
	if err := reg.CounterFunc("lnic_worker_errors_total",
		"lambda execution failures", nil, w.errors.Load); err != nil {
		return err
	}
	if err := w.latency.Expose(reg, "lnic_worker_latency_seconds",
		"lambda service latency", nil); err != nil {
		return err
	}
	// The transport worker pool sheds requests under overload; surface
	// that counter so `lnicctl top` can tell shedding from silence.
	if err := reg.CounterFunc("lnic_worker_pool_drops_total",
		"requests shed by the transport worker pool", nil, w.ep.Drops); err != nil {
		return err
	}
	if err := reg.CounterFunc("lnic_worker_reassembly_evictions_total",
		"partially received messages pushed out by newer ones", nil, w.ep.Evictions); err != nil {
		return err
	}
	// Warm-state counters: WARM% in fleet views is hits/lookups over a
	// scrape window, over the DefaultWarmFlows most recent flows.
	if err := reg.CounterFunc("lnic_worker_warm_hits_total",
		"requests whose flow key was still warm (recently seen)", nil, w.warmHits.Load); err != nil {
		return err
	}
	if err := reg.CounterFunc("lnic_worker_warm_lookups_total",
		"warm-state lookups (requests with a known source)", nil, w.warmLookups.Load); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	table := *w.lambdas.Load()
	for _, id := range slices.Sorted(maps.Keys(table)) {
		if err := table[id].expose(reg); err != nil {
			return err
		}
	}
	w.registry = reg
	w.warm.CompareAndSwap(nil, &warmFlows{lru: dispatch.NewLRU(DefaultWarmFlows)})
	return nil
}

// EnableTracing records each served request's lifecycle (lambda
// execution span per request) in the tracer; nil turns it off.
func (w *Worker) EnableTracing(t obs.Tracer) {
	if t == nil {
		w.tracer.Store(nil)
		return
	}
	w.tracer.Store(&t)
}

// Install deploys a workload's native handler. On a worker with metrics
// enabled the lambda's series are registered first, so a name whose
// series already exist — a lambda removed earlier — is refused whole.
func (w *Worker) Install(wl *workloads.Workload) error {
	if wl.Handle == nil {
		return fmt.Errorf("core: workload %s has no native handler", wl.Name)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	table := *w.lambdas.Load()
	if _, ok := table[wl.ID]; ok {
		return fmt.Errorf("%w: id %d", ErrDuplicateWorkload, wl.ID)
	}
	l := &lambda{
		name:    wl.Name,
		tenant:  wl.Tenant,
		span:    "worker/" + wl.Name,
		handle:  wl.Handle,
		bypass:  wl.Bypass,
		latency: monitor.NewHistogram(),
	}
	if w.registry != nil {
		if err := l.expose(w.registry); err != nil {
			return err
		}
	}
	next := maps.Clone(table)
	next[wl.ID] = l
	w.lambdas.Store(&next)
	return nil
}

// Remove undeploys a workload.
func (w *Worker) Remove(id uint32) {
	w.mu.Lock()
	defer w.mu.Unlock()
	next := maps.Clone(*w.lambdas.Load())
	delete(next, id)
	w.lambdas.Store(&next)
}

// Installed lists deployed workload IDs.
func (w *Worker) Installed() []uint32 {
	return slices.Collect(maps.Keys(*w.lambdas.Load()))
}

// handle serves one request: the one-sided bypass if the workload has
// one and it hits, the lambda otherwise. Both run directly on
// req.Payload, the transport's pooled buffer for the request (for a
// multi-fragment request, the one buffer it was reassembled into),
// which is recycled once the reply is sent — a Handle or Bypass that
// keeps any of it must copy (workloads.TestHandlersDoNotRetainPayload).
func (w *Worker) handle(req *transport.Message) ([]byte, error) {
	w.inflight.Add(1)
	defer w.inflight.Add(-1)
	id := req.Header.WorkloadID
	l := (*w.lambdas.Load())[id]
	var tr *obs.Req
	if t := w.tracer.Load(); t != nil {
		label := ""
		if l != nil {
			label = l.name
		}
		tr = (*t).Begin(id, label)
	}
	if l == nil {
		// The match stage's fall-through: unmatched IDs go to the host
		// OS path (§4.1); here that surfaces as an error response.
		w.errors.Add(1)
		err := fmt.Errorf("%w: id %d", ErrUnknownWorkload, id)
		tr.Mark(obs.StageHost, "worker", "unmatched", tr.Now())
		tr.Finish(tr.Now(), err)
		return nil, err
	}
	// Warm-state lookup: the request's flow key is its client source ×
	// workload — the same key the gateway pins on — so the WARM% column
	// directly measures what flow affinity preserves.
	if warm := w.warm.Load(); warm != nil && req.Source != nil {
		w.warmLookups.Add(1)
		if warm.touch(dispatch.FlowKey(req.Source.String(), id)) {
			w.warmHits.Add(1)
		}
	}
	start := time.Now()
	execStart := tr.Now()
	// One-sided fast path first: a bypass hit serves the request
	// without invoking the lambda, and is recorded in the same latency
	// histograms (a served request is a served request) plus its own
	// counter so fleet views can tell the paths apart.
	var resp []byte
	var err error
	detail, served := "", false
	if l.bypass != nil {
		if resp, served = l.bypass(req.Payload, w.deps); served {
			detail = "bypass"
			l.bypassed.Add(1)
		}
	}
	if !served {
		if resp, err = l.handle(req.Payload, w.deps); err != nil {
			w.errors.Add(1)
		}
	}
	elapsed := time.Since(start)
	tr.AddSpan(obs.StageExec, l.span, detail, execStart, tr.Now())
	tr.Finish(tr.Now(), err)
	w.latency.ObserveDuration(elapsed)
	l.latency.ObserveDuration(elapsed)
	l.requests.Add(1)
	return resp, err
}
