package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lambdanic/internal/matchlambda"
	"lambdanic/internal/workloads"
)

// The traced run measures every layer from outside the program: each
// net.PacketConn the cluster hands to a component goes through a tap
// that timestamps every packet and decodes its λ-NIC wire header, and
// each Workload.Handle/Bypass func field is wrapped. One caller drives
// the traced run, so exactly one request is in flight and every packet
// between the caller's send and its reply belongs to that request; the
// request IDs the taps see (the client's, then the gateway's upstream
// one) confirm it, and a packet that matches neither is counted as
// stray and ignored.
//
// A message's instant at a boundary is its last fragment's: written
// (stamped before the write) or read (stamped after the read). The nine
// intervals between consecutive boundaries tile the caller's latency by
// construction — they share their end points.

type role uint8

const (
	roleClient role = iota
	roleGateway
	roleWorker
)

// stamp is a message's crossing of one boundary: when its last fragment
// crossed and how many fragments did.
type stamp struct {
	last int64
	n    int32
}

func (s *stamp) hit(ts int64) {
	if ts > s.last {
		s.last = ts
	}
	s.n++
}

// reqTrace is everything the taps saw of one request. Times are ns
// since the tracer's epoch.
type reqTrace struct {
	idx        int
	kind       uint8
	ok         bool
	measured   bool // sent after the warm-up
	t0, tEnd   int64
	clientID   uint64 // request ID the client endpoint chose
	upstreamID uint64 // request ID the gateway's upstream call chose
	reqFrags   uint16
	respFrags  uint16

	cTx, cRx                         stamp // client: request out, reply in
	gRxReq, gTxReq, gRxResp, gTxResp stamp // gateway
	wRxReq, wTxResp                  stamp // whichever worker served it

	hStart, hEnd int64 // Handle/Bypass
	bypass       bool
	kvTx, kvRx   int64 // the worker's memcached round trip (SETs)
}

// tracer collects reqTraces. A nil *tracer is the untraced run: tap and
// wrap return their argument unchanged.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	cur   *reqTrace
	recs  []*reqTrace
	stray int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens request idx and returns its start instant; the caller
// uses the same instant for its own latency, so spans and latency share
// their end points.
func (t *tracer) begin(idx int, kind uint8) int64 {
	r := &reqTrace{idx: idx, kind: kind}
	t.mu.Lock()
	t.cur = r
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	r.t0 = t.now()
	return r.t0
}

// end closes the open request and returns its end instant.
func (t *tracer) end(ok, measured bool) int64 {
	ts := t.now()
	t.mu.Lock()
	if t.cur != nil {
		t.cur.tEnd = ts
		t.cur.ok, t.cur.measured = ok, measured
		t.cur = nil
	}
	t.mu.Unlock()
	return ts
}

// abandon drops the open request: the caller opened it and then found
// the run was over.
func (t *tracer) abandon() {
	t.mu.Lock()
	if t.cur != nil {
		t.recs = t.recs[:len(t.recs)-1]
		t.cur = nil
	}
	t.mu.Unlock()
}

// packet files one tapped packet under the open request.
func (t *tracer) packet(r role, tx bool, ts int64, pkt []byte) {
	h, _, err := matchlambda.DecodeWireHeader(pkt)
	if err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cur
	if c == nil {
		t.stray++
		return
	}
	resp := h.IsResponse()
	var s *stamp
	switch {
	case r == roleClient && tx && !resp:
		if c.clientID == 0 {
			c.clientID, c.reqFrags = h.RequestID, h.Total
		}
		if h.RequestID == c.clientID {
			s = &c.cTx
		}
	case r == roleClient && !tx && resp:
		if h.RequestID == c.clientID {
			s, c.respFrags = &c.cRx, h.Total
		}
	case r == roleGateway && !tx && !resp:
		if h.RequestID == c.clientID {
			s = &c.gRxReq
		}
	case r == roleGateway && tx && !resp:
		if c.upstreamID == 0 {
			c.upstreamID = h.RequestID
		}
		if h.RequestID == c.upstreamID {
			s = &c.gTxReq
		}
	case r == roleGateway && !tx && resp:
		if h.RequestID == c.upstreamID {
			s = &c.gRxResp
		}
	case r == roleGateway && tx && resp:
		if h.RequestID == c.clientID {
			s = &c.gTxResp
		}
	case r == roleWorker && !tx && !resp:
		if h.RequestID == c.upstreamID {
			s = &c.wRxReq
		}
	case r == roleWorker && tx && resp:
		if h.RequestID == c.upstreamID {
			s = &c.wTxResp
		}
	}
	if s == nil {
		t.stray++
		return
	}
	s.hit(ts)
}

// tapConn timestamps every packet through a PacketConn.
type tapConn struct {
	net.PacketConn
	t *tracer
	r role
}

func (c tapConn) ReadFrom(p []byte) (int, net.Addr, error) {
	n, from, err := c.PacketConn.ReadFrom(p)
	if err == nil {
		c.t.packet(c.r, false, c.t.now(), p[:n])
	}
	return n, from, err
}

func (c tapConn) WriteTo(p []byte, to net.Addr) (int, error) {
	c.t.packet(c.r, true, c.t.now(), p)
	return c.PacketConn.WriteTo(p, to)
}

func (t *tracer) tap(conn net.PacketConn, r role) net.PacketConn {
	if t == nil {
		return conn
	}
	return tapConn{conn, t, r}
}

// kvTap times a worker's memcached round trip (its packets are
// memcached text, not λ-NIC frames).
type kvTap struct {
	net.PacketConn
	t *tracer
}

func (c kvTap) WriteTo(p []byte, to net.Addr) (int, error) {
	ts := c.t.now()
	c.t.mu.Lock()
	if c.t.cur != nil && c.t.cur.kvTx == 0 {
		c.t.cur.kvTx = ts
	}
	c.t.mu.Unlock()
	return c.PacketConn.WriteTo(p, to)
}

func (c kvTap) ReadFrom(p []byte) (int, net.Addr, error) {
	n, from, err := c.PacketConn.ReadFrom(p)
	ts := c.t.now()
	c.t.mu.Lock()
	if err == nil && c.t.cur != nil {
		c.t.cur.kvRx = ts
	}
	c.t.mu.Unlock()
	return n, from, err
}

func (t *tracer) tapKV(conn net.PacketConn) net.PacketConn {
	if t == nil {
		return conn
	}
	return kvTap{conn, t}
}

// wrap times a workload's Handle and Bypass. A bypass miss falls
// through to Handle inside the worker; the handler interval then runs
// from the bypass probe's start to Handle's return.
func (t *tracer) wrap(w *workloads.Workload) *workloads.Workload {
	if t == nil {
		return w
	}
	start := func() {
		ts := t.now()
		t.mu.Lock()
		if t.cur != nil && t.cur.hStart == 0 {
			t.cur.hStart = ts
		}
		t.mu.Unlock()
	}
	end := func(bypass bool) {
		ts := t.now()
		t.mu.Lock()
		if t.cur != nil {
			t.cur.hEnd, t.cur.bypass = ts, bypass
		}
		t.mu.Unlock()
	}
	handle := w.Handle
	w.Handle = func(p []byte, d *workloads.Deps) ([]byte, error) {
		start()
		resp, err := handle(p, d)
		end(false)
		return resp, err
	}
	if probe := w.Bypass; probe != nil {
		w.Bypass = func(p []byte, d *workloads.Deps) ([]byte, bool) {
			start()
			resp, served := probe(p, d)
			if served {
				end(true)
			}
			return resp, served
		}
	}
	return w
}

// span is one interval of one request, in the span file's form.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: the request itself
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names, in the order they tile a request.
var tileNames = [9]string{
	"transport.client_send", "transport.hop.client_gateway", "gateway.forward",
	"transport.hop.gateway_worker", "core.worker", "transport.hop.worker_gateway",
	"gateway.relay", "transport.hop.gateway_client", "transport.client_recv",
}

// bounds returns the ten boundaries of a request's nine tiling spans
// and whether the request is regular: it succeeded, every boundary saw
// it was sent after the warm-up, every boundary saw
// exactly the message's fragment count (no retransmit, duplicate or
// loss), and the boundaries are in order.
func (r *reqTrace) bounds() (b [10]int64, regular bool) {
	b = [10]int64{r.t0, r.cTx.last, r.gRxReq.last, r.gTxReq.last, r.wRxReq.last,
		r.wTxResp.last, r.gRxResp.last, r.gTxResp.last, r.cRx.last, r.tEnd}
	if !r.ok || !r.measured || r.reqFrags == 0 || r.respFrags == 0 {
		return b, false
	}
	for _, s := range []stamp{r.cTx, r.gRxReq, r.gTxReq, r.wRxReq} {
		if s.n != int32(r.reqFrags) {
			return b, false
		}
	}
	for _, s := range []stamp{r.wTxResp, r.gRxResp, r.gTxResp, r.cRx} {
		if s.n != int32(r.respFrags) {
			return b, false
		}
	}
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			return b, false
		}
	}
	if r.hStart < b[4] || r.hEnd > b[5] || r.hEnd < r.hStart {
		return b, false
	}
	return b, true
}

// spans lists a regular request's spans: the request, its nine tiles,
// the handler inside core.worker, the memcached round trip inside the
// handler.
func (r *reqTrace) spans() []span {
	b, regular := r.bounds()
	if !regular {
		return nil
	}
	out := []span{{Req: r.idx, ID: 0, Parent: -1, Name: "request." + kindNames[r.kind], Start: r.t0, End: r.tEnd}}
	for i, name := range tileNames {
		out = append(out, span{Req: r.idx, ID: i + 1, Parent: 0, Name: name, Start: b[i], End: b[i+1]})
	}
	name := "workloads.handle"
	if r.bypass {
		name = "workloads.bypass"
	}
	out = append(out, span{Req: r.idx, ID: 10, Parent: 5, Name: name, Start: r.hStart, End: r.hEnd})
	if r.kvTx != 0 && r.kvRx >= r.kvTx {
		out = append(out, span{Req: r.idx, ID: 11, Parent: 10, Name: "kvstore.roundtrip", Start: r.kvTx, End: r.kvRx})
	}
	return out
}

// spanFileRequests caps the span file: it holds the first so many
// regular requests of the traced run, every span of each.
const spanFileRequests = 2000

// writeSpans writes the span file.
func (t *tracer) writeSpans(path string) error {
	var all []span
	n := 0
	for _, r := range t.recs {
		if s := r.spans(); s != nil {
			all = append(all, s...)
			if n++; n == spanFileRequests {
				break
			}
		}
	}
	data, err := json.Marshal(struct {
		Note  string `json:"note"`
		Spans []span `json:"spans"`
	}{"times are ns since the traced run's epoch; parent -1 is the request; spans with parent 0 tile it", all})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
