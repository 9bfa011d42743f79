// Package gateway implements λ-NIC's gateway (paper Fig. 2): it proxies
// users' requests to the worker nodes hosting the destination lambda,
// stamping each request with the lambda's workload ID so the NIC's
// match stage can dispatch it (§4.1: "for each incoming request, the
// gateway inserts the ID of the destined lambda as a new header").
//
// Delivery follows the weakly-consistent semantic of §4.2.1 D3: the
// gateway is the sender that tracks outgoing RPCs and retransmits on
// timeout or drop (provided by transport.Endpoint). Dispatch is
// flow-affine (the oRSS-NIC direction): a seeded consistent-hash ring
// pins each flow (client source × workload) to one worker so its warm
// state on that worker's NPU cores is reused, failover walks the flow's
// ring successors deterministically, and a background rebalancer
// migrates only the elephant flows (top-k of a sliding-window rate
// sketch) off overloaded workers — mice stay pinned.
//
// The forward path is lock-free: the route table is a copy-on-write
// snapshot behind an atomic pointer (ring and pins are immutable per
// snapshot; the flow-rate sketch is a lock-free lossy table), so handle
// never takes a lock, and a concurrent SetRoute/EvictWorker can never
// change the worker set between a request's attempt-count snapshot and
// its worker selection.
package gateway

import (
	"context"
	"errors"
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
)

// Gateway proxies requests to workers by workload ID.
type Gateway struct {
	ep      *transport.Endpoint
	timeout time.Duration
	workers int

	// ringSeed seeds every workload's consistent-hash ring; gateways
	// sharing a seed compute identical flow placements.
	ringSeed uint64

	// routes is the copy-on-write routing snapshot; mu serializes
	// writers only (SetRoute, EvictWorker, rebalancer pin installs,
	// instrument installs).
	routes atomic.Pointer[routeTable]
	mu     sync.Mutex

	forwarded atomic.Uint64
	unrouted  atomic.Uint64

	failovers atomic.Uint64
	timeouts  atomic.Uint64
	throttled atomic.Uint64

	// failoversBy counts failovers per workload ID
	// (map[uint32]*atomic.Uint64).
	failoversBy sync.Map
	// inflight tracks per-worker in-flight upstream calls
	// (map[string]*atomic.Int64) — the rebalancer's default load signal.
	inflight sync.Map
	// migrations counts applied elephant-flow migrations.
	migrations atomic.Uint64
	// reb is the running rebalancer, if any (guarded by mu).
	reb *rebalancer

	// admission is the optional tenant admission snapshot
	// (admission.go), copy-on-write like routes.
	admission atomicAdmission

	// instr is the monitoring/tracing snapshot, also copy-on-write so
	// the forward path reads it with one atomic load.
	instr atomic.Pointer[instruments]
}

// routeTable is one immutable routing snapshot. Entries are shared
// across snapshots: a SetRoute for workload A reuses workload B's
// entry, so B's ring, pins, and flow-rate window survive unrelated
// updates. workloadRoute itself lives in routing.go.
type routeTable struct {
	m map[uint32]*workloadRoute
}

// instruments is the optional monitoring-engine (§6.1.1) and tracing
// hook-up, snapshotted as one unit.
type instruments struct {
	forwarded *monitor.Counter
	unrouted  *monitor.Counter
	errors    *monitor.Counter
	failovers *monitor.Counter
	timeouts  *monitor.Counter
	throttled *monitor.Counter
	latency   *telemetry.Histogram
	tracer    obs.Tracer
}

// Option configures a Gateway.
type Option func(*Gateway)

// WithUpstreamTimeout bounds each proxied call: all of its attempts at
// one worker together, after which the request fails over.
func WithUpstreamTimeout(d time.Duration) Option {
	return func(g *Gateway) { g.timeout = d }
}

// WithWorkers bounds the gateway's request-execution pool. Each proxied
// request occupies a worker for its upstream round trip, so this is the
// gateway's concurrency limit.
func WithWorkers(n int) Option {
	return func(g *Gateway) {
		if n > 0 {
			g.workers = n
		}
	}
}

// WithRingSeed sets the consistent-hash ring seed. Gateways fronting
// the same fleet must share a seed to agree on flow placement.
func WithRingSeed(seed uint64) Option {
	return func(g *Gateway) { g.ringSeed = seed }
}

// ErrNoRoute is returned for workload IDs with no registered workers.
var ErrNoRoute = errors.New("gateway: no route for workload")

// DefaultRingSeed is the consistent-hash ring seed when WithRingSeed is
// not given — an arbitrary fixed value so independent gateways agree by
// default.
const DefaultRingSeed = 0x1a4bda9c0ffee

// New starts a gateway on conn. The gateway owns the connection.
func New(conn net.PacketConn, opts ...Option) *Gateway {
	g := &Gateway{
		timeout:  2 * time.Second,
		workers:  256,
		ringSeed: DefaultRingSeed,
	}
	g.routes.Store(&routeTable{m: map[uint32]*workloadRoute{}})
	for _, o := range opts {
		o(g)
	}
	// Proxied requests block a pool worker for a full upstream round
	// trip, so the gateway runs a deeper pool than a compute endpoint.
	g.ep = transport.NewEndpoint(conn, g.handle, transport.WithWorkers(g.workers))
	return g
}

// Addr returns the gateway's listen address.
func (g *Gateway) Addr() net.Addr { return g.ep.Addr() }

// Close shuts the gateway down.
func (g *Gateway) Close() error { return g.ep.Close() }

// Forwarded returns the number of successfully proxied requests.
func (g *Gateway) Forwarded() uint64 { return g.forwarded.Load() }

// Unrouted returns the number of requests with no route.
func (g *Gateway) Unrouted() uint64 { return g.unrouted.Load() }

// Failovers returns the node-wide number of per-request worker
// failovers; FailoversFor breaks the count down by workload.
func (g *Gateway) Failovers() uint64 { return g.failovers.Load() }

// UpstreamTimeouts returns the number of upstream calls that timed out
// after retransmits.
func (g *Gateway) UpstreamTimeouts() uint64 { return g.timeouts.Load() }

// Retransmits returns the number of upstream request retransmissions.
func (g *Gateway) Retransmits() uint64 { return g.ep.Retransmits() }

// LiveWorkers counts the distinct worker addresses across all routes —
// the fleet the gateway can currently reach.
func (g *Gateway) LiveWorkers() int {
	rt := g.routes.Load()
	seen := make(map[string]bool)
	for _, wr := range rt.m {
		for _, w := range wr.workers {
			seen[w.String()] = true
		}
	}
	return len(seen)
}

// EvictWorker removes a worker from every route and aborts the in-flight
// calls addressed to it — the drain step of healthd's eviction: pending
// requests fail over to surviving replicas immediately instead of
// waiting out the retransmit schedule. Returns the number of routes the
// worker was removed from.
func (g *Gateway) EvictWorker(addr net.Addr) int {
	key := addr.String()
	g.mu.Lock()
	old := g.routes.Load()
	next := make(map[uint32]*workloadRoute, len(old.m))
	removed := 0
	for id, wr := range old.m {
		kept := make([]net.Addr, 0, len(wr.workers))
		for _, w := range wr.workers {
			if w.String() != key {
				kept = append(kept, w)
			}
		}
		switch {
		case len(kept) == len(wr.workers):
			next[id] = wr // untouched entry: ring, pins, and window survive
		case len(kept) == 0:
			removed++
		default:
			removed++
			// Rebuild the ring over the survivors. Pins to surviving
			// workers are remapped by address (stable); pins to the
			// evicted worker are dropped, so those flows revert to their
			// ring owner deterministically.
			var pins map[uint64]int
			if len(wr.pins) > 0 {
				index := make(map[string]int, len(kept))
				for i, w := range kept {
					index[w.String()] = i
				}
				pins = make(map[uint64]int, len(wr.pins))
				for f, wi := range wr.pins {
					if wi < 0 || wi >= len(wr.workers) {
						continue
					}
					if ni, ok := index[wr.workers[wi].String()]; ok {
						pins[f] = ni
					}
				}
			}
			next[id] = newWorkloadRoute(kept, g.ringSeed, pins, wr.stats)
		}
	}
	g.routes.Store(&routeTable{m: next})
	g.mu.Unlock()
	g.ep.AbortTo(addr)
	return removed
}

// SetRoute replaces the worker set for a workload (called by the
// workload manager as placements change). The workload's ring is
// rebuilt over the new set and standing migrations are cleared (the
// placement changed wholesale; the rebalancer re-derives them), but the
// flow-rate window carries over so elephant detection keeps its
// history. Other workloads' entries are shared untouched.
func (g *Gateway) SetRoute(id uint32, workers []net.Addr) {
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.routes.Load()
	next := make(map[uint32]*workloadRoute, len(old.m)+1)
	var stats *flowStats
	for wid, wr := range old.m {
		if wid != id {
			next[wid] = wr
		} else {
			stats = wr.stats
		}
	}
	if len(workers) > 0 {
		next[id] = newWorkloadRoute(append([]net.Addr(nil), workers...), g.ringSeed, nil, stats)
	}
	g.routes.Store(&routeTable{m: next})
}

// Routes returns a snapshot of the routing table.
func (g *Gateway) Routes() map[uint32][]net.Addr {
	rt := g.routes.Load()
	out := make(map[uint32][]net.Addr, len(rt.m))
	for id, wr := range rt.m {
		out[id] = append([]net.Addr(nil), wr.workers...)
	}
	return out
}

// EnableMetrics registers the gateway's counters and upstream latency
// histogram in the monitoring engine's registry.
func (g *Gateway) EnableMetrics(reg *monitor.Registry) error {
	forwarded, err := reg.Counter("lnic_gateway_forwarded_total", "requests proxied to workers", nil)
	if err != nil {
		return err
	}
	unrouted, err := reg.Counter("lnic_gateway_unrouted_total", "requests with no registered route", nil)
	if err != nil {
		return err
	}
	upErr, err := reg.Counter("lnic_gateway_upstream_errors_total", "upstream call failures", nil)
	if err != nil {
		return err
	}
	failovers, err := reg.Counter("lnic_gateway_failovers_total", "requests failed over to another worker", nil)
	if err != nil {
		return err
	}
	timeouts, err := reg.Counter("lnic_gateway_upstream_timeouts_total", "upstream calls that timed out after retransmits", nil)
	if err != nil {
		return err
	}
	retransmits, err := reg.Counter("lnic_gateway_retransmits_total", "upstream request retransmissions", nil)
	if err != nil {
		return err
	}
	throttled, err := reg.Counter("lnic_gateway_tenant_throttled_total", "requests shed by tenant admission control", nil)
	if err != nil {
		return err
	}
	// Per-tenant shed series, read straight from the admission
	// controller at scrape time. Call EnableAdmission before
	// EnableMetrics so the tenant set is known here.
	if a := g.admission.Load(); a != nil {
		for id, name := range a.adm.Quotas() {
			id := id
			if err := reg.CounterFunc("lnic_gateway_tenant_shed_total",
				"requests shed by tenant admission control, per tenant",
				map[string]string{"tenant": name},
				func() uint64 { return a.adm.Shed(id) }); err != nil {
				return err
			}
		}
	}
	// The gateway's own pool sheds under overload exactly like a
	// worker's; exposing it separates "gateway saturated" from
	// "tenant over quota".
	if err := reg.CounterFunc("lnic_gateway_pool_drops_total",
		"requests shed by the gateway worker pool", nil, g.ep.Drops); err != nil {
		return err
	}
	if err := reg.CounterFunc("lnic_gateway_reassembly_evictions_total",
		"partially received messages pushed out by newer ones", nil, g.ep.Evictions); err != nil {
		return err
	}
	if err := reg.GaugeFunc("lnic_gateway_live_workers",
		"distinct worker addresses across all routes", nil,
		func() float64 { return float64(g.LiveWorkers()) }); err != nil {
		return err
	}
	if err := reg.GaugeFunc("lnic_gateway_pinned_flows",
		"flows pinned off their ring owner by elephant migration", nil,
		func() float64 { return float64(g.PinnedFlows()) }); err != nil {
		return err
	}
	if err := reg.CounterFunc("lnic_gateway_migrations_total",
		"elephant-flow migrations applied by the rebalancer", nil,
		g.Migrations); err != nil {
		return err
	}
	// The latency histogram is the telemetry plane's lock-free sharded
	// implementation: the request hot path records with a single atomic
	// add instead of convoying on the registry histogram's mutex.
	latency := telemetry.NewHistogram()
	if err := latency.Expose(reg, "lnic_gateway_upstream_latency_seconds",
		"upstream call latency", nil); err != nil {
		return err
	}
	g.ep.SetRetransmitHook(retransmits.Inc)
	g.mu.Lock()
	ins := g.instrumentsCopy()
	ins.forwarded, ins.unrouted, ins.errors, ins.latency = forwarded, unrouted, upErr, latency
	ins.failovers, ins.timeouts, ins.throttled = failovers, timeouts, throttled
	g.instr.Store(ins)
	g.mu.Unlock()
	return nil
}

// EnableTracing records each proxied request's lifecycle — upstream
// RPC attempts, retransmits, and failovers — in the tracer. Enable
// before serving traffic.
func (g *Gateway) EnableTracing(t obs.Tracer) {
	g.mu.Lock()
	ins := g.instrumentsCopy()
	ins.tracer = t
	g.instr.Store(ins)
	g.mu.Unlock()
}

// instrumentsCopy returns a mutable copy of the current instrument
// snapshot; g.mu must be held.
func (g *Gateway) instrumentsCopy() *instruments {
	if cur := g.instr.Load(); cur != nil {
		cp := *cur
		return &cp
	}
	return &instruments{}
}

// handle proxies one client request to a worker and relays the
// response. It reads exactly one route snapshot, so the worker set it
// iterates cannot change mid-request. The first attempt goes to the
// flow's pinned owner (standing migration if one exists, ring owner
// otherwise); when an upstream call fails (a crashed or unreachable
// worker), the gateway fails over along the flow's ring successors —
// the same deterministic order on every gateway — before giving up,
// keeping a lambda available while any replica lives.
//
// req.Payload is the transport's pooled buffer for the request (for a
// multi-fragment request, the one buffer it was reassembled into) and
// every upstream attempt streams straight out of it; it is recycled
// when handle has returned and the reply is sent, so nothing here may
// keep it.
func (g *Gateway) handle(req *transport.Message) ([]byte, error) {
	// Tenant admission runs before any routing work: an over-quota
	// request costs the gateway one bucket probe, nothing upstream.
	if err := g.admit(req.Header.WorkloadID); err != nil {
		return nil, err
	}
	ins := g.instr.Load()
	var tr *obs.Req
	if ins != nil && ins.tracer != nil {
		tr = ins.tracer.Begin(req.Header.WorkloadID, "")
	}
	wr := g.routes.Load().m[req.Header.WorkloadID]
	if wr == nil || len(wr.workers) == 0 {
		g.unrouted.Add(1)
		if ins != nil && ins.unrouted != nil {
			ins.unrouted.Inc()
		}
		err := fmt.Errorf("%w: %d", ErrNoRoute, req.Header.WorkloadID)
		tr.Finish(tr.Now(), err)
		return nil, err
	}
	src := ""
	if req.Source != nil {
		src = req.Source.String()
	}
	flow := dispatch.FlowKey(src, req.Header.WorkloadID)
	wr.stats.observe(flow)
	owner := wr.ownerIndex(flow)
	attempts := len(wr.workers)
	// The successor order is only materialized on the first failover —
	// the happy path costs one ring lookup and no allocation.
	var order []int
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		wi := owner
		if attempt > 0 {
			if order == nil {
				order = wr.failoverOrder(flow, owner)
			}
			wi = order[attempt-1]
		}
		worker := wr.workers[wi]
		load := g.inflightFor(worker.String())
		start := time.Now()
		load.Add(1)
		// The upstream deadline rides the call's own retransmit timer;
		// running it out is an ErrTimeout like running out of retries.
		resp, err := g.ep.CallWithin(context.Background(), worker, req.Header.WorkloadID, req.Payload, g.timeout, tr)
		load.Add(-1)
		if ins != nil && ins.latency != nil {
			ins.latency.ObserveDuration(time.Since(start))
		}
		if err == nil {
			g.forwarded.Add(1)
			if ins != nil && ins.forwarded != nil {
				ins.forwarded.Inc()
			}
			tr.Finish(tr.Now(), nil)
			return resp, nil
		}
		if ins != nil && ins.errors != nil {
			ins.errors.Inc()
		}
		if errors.Is(err, transport.ErrTimeout) {
			g.timeouts.Add(1)
			if ins != nil && ins.timeouts != nil {
				ins.timeouts.Inc()
			}
		}
		lastErr = fmt.Errorf("gateway: upstream %v: %w", worker, err)
		// Unreachability (timeout after retransmits) and eviction drains
		// (AbortTo) trigger failover; an application error from a live
		// worker is deterministic and is returned as-is.
		if !errors.Is(err, transport.ErrTimeout) && !errors.Is(err, transport.ErrAborted) {
			tr.Finish(tr.Now(), lastErr)
			return nil, lastErr
		}
		if attempt+1 < attempts {
			g.countFailover(req.Header.WorkloadID)
			if ins != nil && ins.failovers != nil {
				ins.failovers.Inc()
			}
		}
	}
	tr.Finish(tr.Now(), lastErr)
	return nil, lastErr
}
