package core

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lambdanic/internal/dispatch"
	"lambdanic/internal/monitor"
	"lambdanic/internal/obs"
	"lambdanic/internal/telemetry"
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

	// inflight counts requests currently executing — the load snapshot
	// carried in healthd heartbeats.
	inflight atomic.Int64

	mu       sync.RWMutex
	handlers map[uint32]func(payload []byte, deps *workloads.Deps) ([]byte, error)
	bypasses map[uint32]func(payload []byte, deps *workloads.Deps) ([]byte, bool)
	names    map[uint32]string

	// Optional monitoring-engine instrumentation (§6.1.1).
	registry   *monitor.Registry
	mRequests  map[uint32]*monitor.Counter
	mBypass    map[uint32]*monitor.Counter
	mWlLatency map[uint32]*telemetry.Histogram
	mErrors    *monitor.Counter
	mLatency   *telemetry.Histogram

	// Warm-state tracking: an LRU of recently-seen flow keys guarded by
	// its own mutex (dispatch.LRU is not concurrency-safe, and the
	// request path is concurrent). Counters are atomic and incremented
	// outside the lock.
	warmMu       sync.Mutex
	warm         *dispatch.LRU
	mWarmHits    *monitor.Counter
	mWarmLookups *monitor.Counter

	// Optional request-lifecycle tracing.
	tracer obs.Tracer
}

// NewWorker starts a worker on conn with the given external-service
// dependencies. The worker owns the connection.
func NewWorker(conn net.PacketConn, deps *workloads.Deps) *Worker {
	w := &Worker{
		deps:     deps,
		handlers: make(map[uint32]func([]byte, *workloads.Deps) ([]byte, error)),
		bypasses: make(map[uint32]func([]byte, *workloads.Deps) ([]byte, bool)),
		names:    make(map[uint32]string),
	}
	w.ep = transport.NewEndpoint(conn, w.handle)
	return w
}

// Addr returns the worker's listen address.
func (w *Worker) Addr() net.Addr { return w.ep.Addr() }

// Close stops the worker.
func (w *Worker) Close() error { return w.ep.Close() }

// Inflight returns the number of requests currently executing.
func (w *Worker) Inflight() int { return int(w.inflight.Load()) }

// EnableMetrics registers the worker's per-lambda request counters and
// service-latency histogram in the monitoring engine's registry.
// Enable before Install so every lambda gets a counter.
func (w *Worker) EnableMetrics(reg *monitor.Registry) error {
	errs, err := reg.Counter("lnic_worker_errors_total", "lambda execution failures", nil)
	if err != nil {
		return err
	}
	// Service latency goes through the telemetry plane's lock-free
	// histogram: the serve path records with one atomic add rather than
	// serializing every request on a registry mutex.
	latency := telemetry.NewHistogram()
	if err := latency.Expose(reg, "lnic_worker_latency_seconds",
		"lambda service latency", nil); err != nil {
		return err
	}
	// The transport worker pool sheds requests under overload (PR 3);
	// surface that counter so `lnicctl top` can tell shedding from
	// silence. Read at scrape time — the pool owns the count.
	if err := reg.CounterFunc("lnic_worker_pool_drops_total",
		"requests shed by the transport worker pool", nil, w.ep.Drops); err != nil {
		return err
	}
	if err := reg.CounterFunc("lnic_worker_reassembly_evictions_total",
		"partially received messages pushed out by newer ones", nil, w.ep.Evictions); err != nil {
		return err
	}
	// Warm-state counters: WARM% in fleet views is hits/lookups over a
	// scrape window. Tracking is on by default at DefaultWarmFlows; use
	// SetWarmFlows to resize or disable.
	warmHits, err := reg.Counter("lnic_worker_warm_hits_total",
		"requests whose flow key was still warm (recently seen)", nil)
	if err != nil {
		return err
	}
	warmLookups, err := reg.Counter("lnic_worker_warm_lookups_total",
		"warm-state lookups (requests with a known source)", nil)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.registry = reg
	w.mRequests = make(map[uint32]*monitor.Counter)
	w.mBypass = make(map[uint32]*monitor.Counter)
	w.mWlLatency = make(map[uint32]*telemetry.Histogram)
	w.mErrors = errs
	w.mLatency = latency
	w.mWarmHits = warmHits
	w.mWarmLookups = warmLookups
	w.warmMu.Lock()
	if w.warm == nil {
		w.warm = dispatch.NewLRU(DefaultWarmFlows)
	}
	w.warmMu.Unlock()
	return nil
}

// SetWarmFlows resizes the warm-flow tracking window (capacity ≤ 0
// disables tracking). Resizing resets the tracked set.
func (w *Worker) SetWarmFlows(capacity int) {
	w.warmMu.Lock()
	defer w.warmMu.Unlock()
	if capacity <= 0 {
		w.warm = nil
		return
	}
	w.warm = dispatch.NewLRU(capacity)
}

// observeFlow records one warm-state lookup and reports whether the
// flow was already warm.
func (w *Worker) observeFlow(flow uint64) (hit, tracked bool) {
	w.warmMu.Lock()
	if w.warm == nil {
		w.warmMu.Unlock()
		return false, false
	}
	hit = w.warm.Touch(flow)
	w.warmMu.Unlock()
	return hit, true
}

// EnableTracing records each served request's lifecycle (lambda
// execution span per request) in the tracer. Enable before serving.
func (w *Worker) EnableTracing(t obs.Tracer) {
	w.mu.Lock()
	w.tracer = t
	w.mu.Unlock()
}

// Install deploys a workload's native handler.
func (w *Worker) Install(wl *workloads.Workload) error {
	if wl.Handle == nil {
		return fmt.Errorf("core: workload %s has no native handler", wl.Name)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.handlers[wl.ID]; ok {
		return fmt.Errorf("%w: id %d", ErrDuplicateWorkload, wl.ID)
	}
	w.handlers[wl.ID] = wl.Handle
	if wl.Bypass != nil {
		w.bypasses[wl.ID] = wl.Bypass
	}
	w.names[wl.ID] = wl.Name
	if w.registry != nil {
		labels := map[string]string{"workload": wl.Name}
		if wl.Tenant != "" {
			// The owning tenant rides along as a label so fleet views
			// (lnicctl top/slo -tenant) can scope rows per tenant.
			labels["tenant"] = wl.Tenant
		}
		c, err := w.registry.Counter("lnic_worker_requests_total",
			"requests served per lambda", labels)
		if err != nil {
			return err
		}
		w.mRequests[wl.ID] = c
		if wl.Bypass != nil {
			b, err := w.registry.Counter("lnic_worker_bypass_total",
				"requests served by the one-sided fast path, no lambda invoked", labels)
			if err != nil {
				return err
			}
			w.mBypass[wl.ID] = b
		}
		h := telemetry.NewHistogram()
		if err := h.Expose(w.registry, "lnic_worker_workload_latency_seconds",
			"lambda service latency per workload", labels); err != nil {
			return err
		}
		w.mWlLatency[wl.ID] = h
	}
	return nil
}

// Remove undeploys a workload.
func (w *Worker) Remove(id uint32) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.handlers, id)
	delete(w.bypasses, id)
	delete(w.names, id)
}

// Installed lists deployed workload IDs.
func (w *Worker) Installed() []uint32 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]uint32, 0, len(w.handlers))
	for id := range w.handlers {
		out = append(out, id)
	}
	return out
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
	w.mu.RLock()
	h, ok := w.handlers[req.Header.WorkloadID]
	bypass := w.bypasses[req.Header.WorkloadID]
	name := w.names[req.Header.WorkloadID]
	counter := w.mRequests[req.Header.WorkloadID]
	bypassCounter := w.mBypass[req.Header.WorkloadID]
	wlLatency := w.mWlLatency[req.Header.WorkloadID]
	errs, latency := w.mErrors, w.mLatency
	warmHits, warmLookups := w.mWarmHits, w.mWarmLookups
	tracer := w.tracer
	w.mu.RUnlock()
	var tr *obs.Req
	if tracer != nil {
		tr = tracer.Begin(req.Header.WorkloadID, name)
	}
	if !ok {
		// The match stage's fall-through: unmatched IDs go to the host
		// OS path (§4.1); here that surfaces as an error response.
		if errs != nil {
			errs.Inc()
		}
		err := fmt.Errorf("%w: id %d", ErrUnknownWorkload, req.Header.WorkloadID)
		tr.Mark(obs.StageHost, "worker", "unmatched", tr.Now())
		tr.Finish(tr.Now(), err)
		return nil, err
	}
	// Warm-state lookup: the request's flow key is its client source ×
	// workload — the same key the gateway pins on — so the WARM% column
	// directly measures what flow affinity preserves.
	if req.Source != nil {
		if hit, tracked := w.observeFlow(dispatch.FlowKey(req.Source.String(), req.Header.WorkloadID)); tracked {
			if warmLookups != nil {
				warmLookups.Inc()
			}
			if hit && warmHits != nil {
				warmHits.Inc()
			}
		}
	}
	start := time.Now()
	execStart := tr.Now()
	// One-sided fast path first: a bypass hit serves the request
	// without invoking the lambda, and is recorded in the same latency
	// histograms (a served request is a served request) plus its own
	// counter so fleet views can tell the paths apart.
	if bypass != nil {
		if resp, served := bypass(req.Payload, w.deps); served {
			elapsed := time.Since(start)
			tr.AddSpan(obs.StageExec, "worker/"+name, "bypass", execStart, tr.Now())
			tr.Finish(tr.Now(), nil)
			if latency != nil {
				latency.ObserveDuration(elapsed)
			}
			if wlLatency != nil {
				wlLatency.ObserveDuration(elapsed)
			}
			if counter != nil {
				counter.Inc()
			}
			if bypassCounter != nil {
				bypassCounter.Inc()
			}
			return resp, nil
		}
	}
	resp, err := h(req.Payload, w.deps)
	elapsed := time.Since(start)
	tr.AddSpan(obs.StageExec, "worker/"+name, "", execStart, tr.Now())
	tr.Finish(tr.Now(), err)
	if latency != nil {
		latency.ObserveDuration(elapsed)
	}
	if wlLatency != nil {
		wlLatency.ObserveDuration(elapsed)
	}
	if counter != nil {
		counter.Inc()
	}
	if err != nil && errs != nil {
		errs.Inc()
	}
	return resp, err
}
