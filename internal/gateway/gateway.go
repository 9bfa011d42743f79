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
// The gateway waits on nothing. A request is admitted, routed and sent
// upstream on the transport reader that received it; the upstream call
// ends by callback, and the reply is relayed on the goroutine that ended
// it — the reader of the worker's response, or the attempt timer or
// abort that failed it over. No goroutine is parked per request, so
// what bounds the gateway is maxOpen, the requests open at once.
//
// The forward path is lock-free: the route table is a copy-on-write
// snapshot behind an atomic pointer (ring and pins are immutable per
// snapshot; the flow-rate sketch is a lock-free lossy table), so handle
// never takes a lock, and a concurrent SetRoute/EvictWorker can never
// change the worker set between a request's attempt-count snapshot and
// its worker selection.
package gateway

import (
	"errors"
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
)

// Gateway proxies requests to workers by workload ID.
type Gateway struct {
	ep      *transport.Endpoint
	timeout time.Duration

	// routes is the copy-on-write routing snapshot; mu serializes
	// writers only (SetRoute, EvictWorker, rebalancer pin installs).
	routes atomic.Pointer[routeTable]
	mu     sync.Mutex

	// The gateway's instruments exist from construction and are counted
	// once per event; EnableMetrics only registers views over them.
	// Per-worker in-flight counts live in the route snapshot
	// (routing.go).
	forwarded    atomic.Uint64
	unrouted     atomic.Uint64
	upstreamErrs atomic.Uint64
	failovers    atomic.Uint64
	timeouts     atomic.Uint64
	throttled    atomic.Uint64
	migrations   atomic.Uint64
	latency      *monitor.Histogram // every upstream attempt

	// reb is the running rebalancer, if any (guarded by mu).
	reb *rebalancer

	// admission and tracer are the two optional stages of the forward
	// path, each one atomic load when off.
	admission atomic.Pointer[admission]
	tracer    atomic.Pointer[obs.Tracer]
}

// Option configures a Gateway.
type Option func(*Gateway)

// WithUpstreamTimeout bounds each proxied call: all of its attempts at
// one worker together, after which the request fails over.
func WithUpstreamTimeout(d time.Duration) Option {
	return func(g *Gateway) { g.timeout = d }
}

// ErrNoRoute is returned for workload IDs with no registered workers.
var ErrNoRoute = errors.New("gateway: no route for workload")

// DefaultRingSeed seeds every workload's consistent-hash ring — an
// arbitrary fixed value, so independent gateways fronting the same fleet
// agree on flow placement.
const DefaultRingSeed = 0x1a4bda9c0ffee

// maxOpen bounds the requests the gateway holds open — admitted and
// not yet replied to — at once; past it, requests are shed and counted
// as pool drops. It is what a pool of 256 goroutines with a 4×256 queue
// used to admit.
const maxOpen = 1280

// New starts a gateway on conn. The gateway owns the connection.
func New(conn net.PacketConn, opts ...Option) *Gateway {
	g := &Gateway{
		timeout: 2 * time.Second,
		latency: monitor.NewHistogram(),
	}
	g.routes.Store(newRouteTable(map[uint32]*workloadRoute{}))
	for _, o := range opts {
		o(g)
	}
	g.ep = transport.NewInlineEndpoint(conn, func(req *transport.Request) { g.handle(&req.Message, req.Peer(), req) }, maxOpen)
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
// failovers.
func (g *Gateway) Failovers() uint64 { return g.failovers.Load() }

// UpstreamTimeouts returns the number of upstream calls that timed out
// after retransmits.
func (g *Gateway) UpstreamTimeouts() uint64 { return g.timeouts.Load() }

// Retransmits returns the number of upstream request retransmissions.
func (g *Gateway) Retransmits() uint64 { return g.ep.Retransmits() }

// LiveWorkers counts the distinct worker addresses across all routes —
// the fleet the gateway can currently reach.
func (g *Gateway) LiveWorkers() int { return len(g.routes.Load().inflight) }

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
		if !slices.Contains(wr.names, key) {
			next[id] = wr // untouched entry: ring, pins, and window survive
			continue
		}
		removed++
		// remap[i] is worker i's index among the survivors, -1 if evicted.
		remap := make([]int, len(wr.workers))
		kept := make([]net.Addr, 0, len(wr.workers))
		for i, name := range wr.names {
			remap[i] = -1
			if name != key {
				remap[i] = len(kept)
				kept = append(kept, wr.workers[i])
			}
		}
		if len(kept) == 0 {
			continue
		}
		// Rebuild the ring over the survivors. Pins to surviving workers
		// keep their worker; pins to the evicted worker are dropped, so
		// those flows revert to their ring owner deterministically.
		pins := make(map[uint64]int, len(wr.pins))
		for f, wi := range wr.pins {
			if wi >= 0 && wi < len(remap) && remap[wi] >= 0 {
				pins[f] = remap[wi]
			}
		}
		next[id] = old.newRoute(kept, pins, wr)
	}
	g.routes.Store(newRouteTable(next))
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
	next := maps.Clone(old.m)
	delete(next, id)
	if len(workers) > 0 {
		next[id] = old.newRoute(slices.Clone(workers), nil, old.m[id])
	}
	g.routes.Store(newRouteTable(next))
}

// Routes returns a snapshot of the routing table.
func (g *Gateway) Routes() map[uint32][]net.Addr {
	rt := g.routes.Load()
	out := make(map[uint32][]net.Addr, len(rt.m))
	for id, wr := range rt.m {
		out[id] = slices.Clone(wr.workers)
	}
	return out
}

// EnableMetrics registers views over the gateway's counters and its
// upstream latency histogram in the monitoring engine's registry. The
// instruments count from construction whether or not anything reads
// them; this only makes them visible.
func (g *Gateway) EnableMetrics(reg *monitor.Registry) error {
	for _, c := range []struct {
		name, help string
		read       func() uint64
	}{
		{"lnic_gateway_forwarded_total", "requests proxied to workers", g.Forwarded},
		{"lnic_gateway_unrouted_total", "requests with no registered route", g.Unrouted},
		{"lnic_gateway_upstream_errors_total", "upstream call failures", g.upstreamErrs.Load},
		{"lnic_gateway_failovers_total", "requests failed over to another worker", g.Failovers},
		{"lnic_gateway_upstream_timeouts_total", "upstream calls that timed out after retransmits", g.UpstreamTimeouts},
		{"lnic_gateway_retransmits_total", "upstream request retransmissions", g.Retransmits},
		{"lnic_gateway_tenant_throttled_total", "requests shed by tenant admission control", g.Throttled},
		// The gateway sheds past maxOpen open requests as a worker's pool
		// sheds; exposing it separates "gateway saturated" from "tenant
		// over quota".
		{"lnic_gateway_pool_drops_total", "requests shed by the gateway worker pool", g.ep.Drops},
		{"lnic_gateway_reassembly_evictions_total", "partially received messages pushed out by newer ones", g.ep.Evictions},
		{"lnic_gateway_migrations_total", "elephant-flow migrations applied by the rebalancer", g.Migrations},
	} {
		if err := reg.CounterFunc(c.name, c.help, nil, c.read); err != nil {
			return err
		}
	}
	// Per-tenant shed series, read straight from the admission
	// controller at scrape time. Call EnableAdmission before
	// EnableMetrics so the tenant set is known here.
	if a := g.admission.Load(); a != nil {
		for id, name := range a.adm.Quotas() {
			if err := reg.CounterFunc("lnic_gateway_tenant_shed_total",
				"requests shed by tenant admission control, per tenant",
				map[string]string{"tenant": name},
				func() uint64 { return a.adm.Shed(id) }); err != nil {
				return err
			}
		}
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
	return g.latency.Expose(reg, "lnic_gateway_upstream_latency_seconds",
		"upstream call latency", nil)
}

// EnableTracing records each proxied request's lifecycle — upstream
// RPC attempts, retransmits, and failovers — in the tracer; nil turns
// it off.
func (g *Gateway) EnableTracing(t obs.Tracer) {
	if t == nil {
		g.tracer.Store(nil)
		return
	}
	g.tracer.Store(&t)
}

// replier takes a request's response: *transport.Request, or a test's
// channel.
type replier interface {
	Reply(resp []byte, err error)
}

// handle proxies one client request, from the client whose address is
// src, to a worker and relays the response through reply. It reads
// exactly one route snapshot — workers, their names, in-flight counters
// and the workload's failover counter all come from it — so the worker
// set it iterates cannot change mid-request. The first attempt goes to the flow's pinned owner
// (standing migration if one exists, ring owner otherwise); when an
// upstream call fails (a crashed or unreachable worker), the gateway
// fails over along the flow's ring successors — the same deterministic
// order on every gateway — before giving up, keeping a lambda available
// while any replica lives.
//
// handle runs on a transport reader and returns once the first upstream
// call is sent; the proxy carries the request on from there. req.Payload
// is the transport's pooled buffer for the request (for a multi-fragment
// request, the one buffer it was reassembled into) and every upstream
// attempt streams straight out of it; it is recycled by reply, so
// nothing may keep it past that.
func (g *Gateway) handle(req *transport.Message, src string, reply replier) {
	id := req.Header.WorkloadID
	// Tenant admission runs before any routing work: an over-quota
	// request costs the gateway one bucket probe, nothing upstream.
	if err := g.admit(id); err != nil {
		reply.Reply(nil, err)
		return
	}
	var tr *obs.Req
	if t := g.tracer.Load(); t != nil {
		tr = (*t).Begin(id, "")
	}
	wr := g.routes.Load().m[id]
	if wr == nil || len(wr.workers) == 0 {
		g.unrouted.Add(1)
		err := fmt.Errorf("%w: %d", ErrNoRoute, id)
		tr.Finish(tr.Now(), err)
		reply.Reply(nil, err)
		return
	}
	p := proxyPool.Get().(*proxy)
	if p.done == nil {
		p.done = p.upstream
	}
	p.g, p.req, p.reply, p.tr, p.wr = g, req, reply, tr, wr
	p.flow = dispatch.FlowKey(src, id)
	wr.stats.observe(p.flow)
	p.wi = wr.ownerIndex(p.flow)
	p.send()
}

// proxy is one request between its forward and its reply: which worker
// of the snapshot it is at, and how many it has tried. Proxies are
// pooled with their callback bound once.
type proxy struct {
	g     *Gateway
	req   *transport.Message
	reply replier
	tr    *obs.Req
	wr    *workloadRoute
	flow  uint64
	wi    int
	tries int
	// order is the flow's successor order, only materialized on the
	// first failover: the happy path costs one ring lookup and no
	// allocation.
	order []int
	start time.Time
	done  func([]byte, error) // p.upstream
}

var proxyPool = sync.Pool{New: func() any { return new(proxy) }}

// send calls the current worker. The upstream deadline rides the call's
// own attempt timer; running it out is an ErrTimeout like running out of
// retries.
func (p *proxy) send() {
	p.start = time.Now()
	p.wr.inflight[p.wi].Add(1)
	p.g.ep.CallAsync(p.wr.workers[p.wi], p.req.Header.WorkloadID, p.req.Payload, p.g.timeout, p.tr, p.done)
}

// upstream ends one upstream call: it relays the response, fails over to
// the next worker, or relays the error.
func (p *proxy) upstream(resp []byte, err error) {
	g, wr := p.g, p.wr
	wr.inflight[p.wi].Add(-1)
	g.latency.ObserveDuration(time.Since(p.start))
	if err == nil {
		g.forwarded.Add(1)
		p.finish(resp, nil)
		return
	}
	g.upstreamErrs.Add(1)
	timedOut := errors.Is(err, transport.ErrTimeout)
	if timedOut {
		g.timeouts.Add(1)
	}
	// Unreachability (timeout after retransmits) and eviction drains
	// (AbortTo) trigger failover while a successor is left; an
	// application error from a live worker is deterministic and is
	// returned as-is.
	if !timedOut && !errors.Is(err, transport.ErrAborted) || p.tries+1 == len(wr.workers) {
		p.finish(nil, fmt.Errorf("gateway: upstream %s: %w", wr.names[p.wi], err))
		return
	}
	g.failovers.Add(1)
	if p.order == nil {
		p.order = wr.failoverOrder(p.flow, p.wi)
	}
	p.wi = p.order[p.tries]
	p.tries++
	p.send()
}

// finish closes the trace, recycles the proxy and replies.
func (p *proxy) finish(resp []byte, err error) {
	p.tr.Finish(p.tr.Now(), err)
	reply := p.reply
	*p = proxy{done: p.done}
	proxyPool.Put(p)
	reply.Reply(resp, err)
}
