package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lambdanic/internal/matchlambda"
	"lambdanic/internal/obs"
)

// Handler serves one reassembled request on the endpoint's worker pool
// and returns the response payload. A non-nil error is conveyed to the
// caller with the error flag set.
//
// The request's Payload may alias a pooled buffer — the packet buffer
// of a single-fragment request, the message buffer a multi-fragment one
// was reassembled into — that is recycled after the handler's response
// has been cached and sent; handlers that retain the payload past their
// return must copy it.
type Handler func(req *Message) ([]byte, error)

// InlineHandler serves one request on the reader goroutine that
// received it, and must not wait there: it starts what the response
// needs — an upstream CallAsync, say — and returns. Whichever goroutine
// finishes the work calls req.Reply, exactly once. The request and its
// payload stay valid until then and are recycled by Reply.
type InlineHandler func(req *Request)

// Request is one reassembled request on its way to a response: the
// message, and what the endpoint needs to cache, send and recycle once
// the response is known. The payload aliases a pooled buffer — buf, the
// read buffer of a single-fragment request, or msgBuf, the reassembler's
// message buffer of a multi-fragment one (nil past wholeMsgLimit) —
// which travels with the request until Reply.
type Request struct {
	Message
	e      *Endpoint
	key    dedupKey
	shard  *shard
	buf    *[]byte
	msgBuf *[]byte
}

// Peer is the request's source address formatted as a string, as
// Source.String() would format it, without formatting it again.
func (r *Request) Peer() string { return r.key.src }

// Reply completes the request with the handler's response: a non-nil
// err is sent with the error flag set. It caches the response for
// duplicate suppression, sends it, and recycles the request.
func (r *Request) Reply(resp []byte, err error) { r.e.complete(r, resp, err) }

// Endpoint is a weakly-consistent RPC endpoint over a packet network
// (§4.2.1 D3): at-least-once delivery with sender-side retransmission,
// receiver-side reordering and duplicate suppression, and no connection
// state — each RPC is independent, as serverless request-response pairs
// are (§3.1b).
//
// The data plane mirrors the NIC's parallelism (§4: many NPU cores, no
// per-request setup): endpoint state is lock-striped across shards
// keyed by request ID / peer hash, several reader goroutines drain the
// socket concurrently, and packet buffers, requests and call records are
// pooled so the steady state allocates (almost) nothing. Requests run on
// a bounded worker pool (NewEndpoint) or, for handlers that never wait,
// on the reader that received them (NewInlineEndpoint).
type Endpoint struct {
	conn       net.PacketConn
	udp        *net.UDPConn // conn, when it is a UDP socket: reads and writes without garbage
	mtu        int
	timeout    time.Duration
	retries    int
	sendWindow int

	handler Handler
	jobs    chan *Request

	// inline serves requests on the readers; open counts the requests
	// it has taken and not yet replied to, at most maxOpen.
	inline  InlineHandler
	open    atomic.Int64
	maxOpen int64

	shards [numShards]shard
	nextID atomic.Uint64

	// Shutdown. Nothing on the request path waits on an endpoint-wide
	// channel: Close sets closing, then ends every pending call with
	// ErrClosed; a call that registers later sees the flag. readerWG and
	// workerWG order the teardown (the readers are the only senders on
	// jobs).
	closing   atomic.Bool
	closeOnce sync.Once
	closeErr  error
	readerWG  sync.WaitGroup
	workerWG  sync.WaitGroup

	// Stats.
	retransmits atomic.Uint64
	duplicates  atomic.Uint64
	drops       atomic.Uint64
}

// numShards stripes endpoint state; a power of two so shard selection
// is a mask.
const numShards = 16

const shardMask = numShards - 1

// shard is one lock stripe of endpoint state. Responses are sharded by
// request ID (the pending-call table); requests by a hash of (peer,
// request ID), so all fragments and duplicates of one request meet in
// the same stripe under one lock acquisition.
type shard struct {
	mu      sync.Mutex
	pending map[uint64]*call
	reasm   *Reassembler

	// Duplicate-suppression cache: a fixed ring of response entries
	// whose backing arrays are reused on eviction, indexed by a binary
	// (peer, request ID) key. Bounded by construction in entries (the
	// ring) and in bytes (ringBytes, the arrays' total capacity, is
	// held to seenBytesPerShard) — no FIFO slice to leak. The live
	// entries are the ringLen slots before ringHead.
	seen      map[dedupKey]int
	ring      []seenEntry
	ringHead  int
	ringLen   int
	ringBytes int

	// inflight marks requests currently executing so duplicates that
	// arrive before completion are dropped (the client retransmits if
	// the eventual response is lost).
	inflight map[dedupKey]struct{}
}

// dedupKey identifies one request for duplicate suppression. The peer
// is part of the key because independent clients number their requests
// independently.
type dedupKey struct {
	src string
	id  uint64
}

// seenEntry is one cached response in a shard's ring. resp's backing
// array survives eviction and is overwritten in place by the next
// occupant, so a warm cache allocates nothing.
type seenEntry struct {
	key   dedupKey
	resp  []byte
	isErr bool
}

// call is one RPC from its first send to its one completion. The
// pending table of its shard holds it while it can still end, and
// whoever takes it out of the table — the reader with its response, its
// attempt timer, AbortTo, Close, a cancelled context — completes it,
// after unlocking. Every send happens under the shard lock while the
// call is in the table, so no attempt reads the payload once the call
// has completed. Records are pooled with their timer and channel.
type call struct {
	e       *Endpoint
	id      uint64
	to      net.Addr
	h       matchlambda.WireHeader
	payload []byte  // streamed again on each attempt of a multi-fragment call
	pkt     []byte  // the encoded single-fragment request, in pb
	pb      *[]byte // nil for a multi-fragment call
	attempt int
	sent    time.Duration // tr's clock when this attempt was sent
	tr      *obs.Req

	// budget bounds all attempts' waits together (CallWithin); left is
	// what it still allows. Zero means the retry schedule alone.
	budget, left time.Duration

	// timer runs expire when an attempt's wait is over. stale marks a
	// record whose timer Stop came too late: expire may still be
	// reading it, so it is never pooled again.
	timer *time.Timer
	stale bool

	// done is CallAsync's callback; a blocking call has none, and its
	// result goes to ch, where the caller waits.
	done func(resp []byte, err error)
	ch   chan callResult
}

// callResult ends a blocking call: the response payload (owned by the
// receiver) or the error that ended it.
type callResult struct {
	payload []byte
	err     error
}

// pktBufSize fits the largest datagram a read can return.
const pktBufSize = 64 * 1024

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, pktBufSize)
	return &b
}}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { bufPool.Put(b) }

var (
	callPool = sync.Pool{New: func() any { return &call{ch: make(chan callResult, 1)} }}
	reqPool  = sync.Pool{New: func() any { return new(Request) }}
)

// poolWorkers is a NewEndpoint's request-execution pool: compute-bound
// lambdas and the KV lambdas, which wait on memcached.
const poolWorkers = 64

// EndpointOption configures an Endpoint.
type EndpointOption func(*Endpoint)

// WithMTU sets the fragment payload size.
func WithMTU(mtu int) EndpointOption { return func(e *Endpoint) { e.mtu = mtu } }

// WithTimeout sets the per-attempt response timeout.
func WithTimeout(d time.Duration) EndpointOption { return func(e *Endpoint) { e.timeout = d } }

// WithRetries sets how many times a request is retransmitted before the
// call fails.
func WithRetries(n int) EndpointOption { return func(e *Endpoint) { e.retries = n } }

// WithSendWindow bounds how many fragments of a multi-fragment message
// are put on the wire back-to-back before the sender yields — the
// transport's credit window. A small window paces bulk transfers so
// receivers (and, on real sockets, kernel buffers) drain between
// bursts; it bounds sender-side buffering regardless of message size.
func WithSendWindow(n int) EndpointOption {
	return func(e *Endpoint) {
		if n > 0 {
			e.sendWindow = n
		}
	}
}

// Endpoint errors.
var (
	ErrTimeout = errors.New("transport: request timed out after retries")
	ErrClosed  = errors.New("transport: endpoint closed")
	// ErrAborted reports a call cancelled by AbortTo — its destination
	// was evicted while the RPC was in flight.
	ErrAborted = errors.New("transport: call aborted (destination evicted)")
)

// seenCap bounds the duplicate-suppression cache across all shards in
// entries, seenBytesPerShard each shard's share of it in bytes: with
// responses of up to 4 KiB every entry stays live, past that the oldest
// give way (16 KiB responses keep 64 per shard).
const (
	seenCap           = 4096
	seenBytesPerShard = 1 << 20
)

// maxPartialsPerShard bounds the messages one shard holds mid-
// reassembly. Abandoned ones (the sender gave up, the caller timed out)
// are only ever pushed out by newer ones, so this is also how many a
// shard retains at rest.
const maxPartialsPerShard = 64

// NewEndpoint wraps a packet connection. handler, run on a pool of
// poolWorkers goroutines, may be nil for a client-only endpoint. The
// endpoint owns the connection and closes it on Close.
func NewEndpoint(conn net.PacketConn, handler Handler, opts ...EndpointOption) *Endpoint {
	return newEndpoint(conn, handler, nil, 0, opts)
}

// NewInlineEndpoint wraps a packet connection whose requests are served
// on the reader goroutines: no pool, and no goroutine per request. At
// most maxOpen requests are open — taken and not yet replied to — at
// once; past that, requests are shed like a full pool's and counted in
// Drops. The endpoint owns the connection and closes it on Close.
func NewInlineEndpoint(conn net.PacketConn, handler InlineHandler, maxOpen int, opts ...EndpointOption) *Endpoint {
	return newEndpoint(conn, nil, handler, maxOpen, opts)
}

func newEndpoint(conn net.PacketConn, handler Handler, inline InlineHandler, maxOpen int, opts []EndpointOption) *Endpoint {
	e := &Endpoint{
		conn:       conn,
		mtu:        DefaultMTU,
		timeout:    200 * time.Millisecond,
		retries:    4,
		sendWindow: defaultSendWindow,
		handler:    handler,
		inline:     inline,
		maxOpen:    int64(maxOpen),
	}
	e.udp, _ = conn.(*net.UDPConn)
	for _, o := range opts {
		o(e)
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.pending = make(map[uint64]*call)
		sh.reasm = NewReassembler()
		sh.reasm.MaxPending = maxPartialsPerShard
		if handler != nil || inline != nil {
			sh.seen = make(map[dedupKey]int)
			sh.ring = make([]seenEntry, seenCap/numShards)
			sh.inflight = make(map[dedupKey]struct{})
		}
	}
	if handler != nil {
		e.jobs = make(chan *Request, 4*poolWorkers)
		e.workerWG.Add(poolWorkers)
		for i := 0; i < poolWorkers; i++ {
			go e.workLoop()
		}
	}
	// One socket reader per processor, up to four.
	readers := min(runtime.GOMAXPROCS(0), 4)
	e.readerWG.Add(readers)
	for i := 0; i < readers; i++ {
		go e.readLoop()
	}
	return e
}

// shardByID picks the stripe for a response by its request ID.
func (e *Endpoint) shardByID(id uint64) *shard { return &e.shards[id&shardMask] }

// shardByKey picks the stripe for a request by (peer, request ID),
// mixing the peer with FNV-1a so distinct clients spread across
// stripes.
func (e *Endpoint) shardByKey(src string, id uint64) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(src); i++ {
		h ^= uint64(src[i])
		h *= 1099511628211
	}
	return &e.shards[(h^id)&shardMask]
}

// Addr returns the endpoint's local address.
func (e *Endpoint) Addr() net.Addr { return e.conn.LocalAddr() }

// Retransmits returns the number of request retransmissions performed.
func (e *Endpoint) Retransmits() uint64 { return e.retransmits.Load() }

// Duplicates returns the number of duplicate requests suppressed.
func (e *Endpoint) Duplicates() uint64 { return e.duplicates.Load() }

// Drops returns the number of requests shed because the worker pool's
// queue was full, or an inline endpoint had maxOpen requests open (the
// client retransmits under at-least-once delivery).
func (e *Endpoint) Drops() uint64 { return e.drops.Load() }

// Evictions returns the number of partially received messages pushed
// out by newer ones (maxPartialsPerShard); a sender that is still there
// retransmits.
func (e *Endpoint) Evictions() uint64 {
	var n uint64
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		n += sh.reasm.Evictions()
		sh.mu.Unlock()
	}
	return n
}

// AbortTo cancels every in-flight call addressed to the given
// destination, failing each with ErrAborted — the gateway's drain path
// when a worker is evicted, so callers fail over immediately instead of
// waiting out the retransmit schedule. A call whose response has already
// arrived keeps it. Returns the number of calls aborted.
func (e *Endpoint) AbortTo(to net.Addr) int {
	return e.endCalls(ErrAborted, to.String())
}

// endCalls ends every pending call addressed to the given destination
// ("" for all of them) with err, and returns how many it ended. The
// calls are taken out of their tables under each shard's lock and
// completed once no lock is held.
func (e *Endpoint) endCalls(err error, to string) int {
	var ended []*call
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, c := range sh.pending {
			if to == "" || c.to.String() == to {
				sh.unlink(c)
				ended = append(ended, c)
			}
		}
		sh.mu.Unlock()
	}
	for _, c := range ended {
		c.span("-aborted")
		c.finish(nil, fmt.Errorf("%w: request %d", err, c.id))
	}
	return len(ended)
}

// Close shuts the endpoint down and waits for its goroutines: pending
// calls fail with ErrClosed, then the socket closes, which ends the
// readers; only once they — the senders on jobs — are gone is jobs
// closed, and the workers finish what was queued and exit. Concurrent
// and repeated calls wait for the one shutdown and return its error.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		e.closing.Store(true)
		e.endCalls(ErrClosed, "")
		e.closeErr = e.conn.Close()
		e.readerWG.Wait()
		if e.jobs != nil {
			close(e.jobs)
		}
		e.workerWG.Wait()
	})
	return e.closeErr
}

// Call performs one RPC: it stamps a fresh request ID, fragments the
// payload, and retransmits until a response arrives or retries are
// exhausted (the sender-tracked delivery of D3).
func (e *Endpoint) Call(ctx context.Context, to net.Addr, workloadID uint32, payload []byte) ([]byte, error) {
	return e.CallTraced(ctx, to, workloadID, payload, nil)
}

// CallTraced is Call with request-lifecycle tracing: every wire
// attempt (first transmission and each retransmit) is recorded as a
// transport span in tr, so timeout-driven tail latency is visible in
// the exported trace. A nil tr is the untraced fast path.
func (e *Endpoint) CallTraced(ctx context.Context, to net.Addr, workloadID uint32, payload []byte, tr *obs.Req) ([]byte, error) {
	return e.call(ctx, to, workloadID, payload, 0, tr)
}

// CallWithin is CallTraced with a bound on the whole call: the waits of
// all attempts together add up to at most budget, the last one cut
// short to fit, and running out fails the call with ErrTimeout like
// running out of retries. The bound rides the call's own attempt
// timer — no context, no second timer.
func (e *Endpoint) CallWithin(ctx context.Context, to net.Addr, workloadID uint32, payload []byte, budget time.Duration, tr *obs.Req) ([]byte, error) {
	return e.call(ctx, to, workloadID, payload, budget, tr)
}

// CallAsync is CallWithin without the wait: it sends the request and
// returns, and done receives the response, or the error that ended the
// call, exactly once — on the goroutine that ended it (the reader of the
// response, the attempt timer, AbortTo, Close, or this one if the call
// cannot start), never under an endpoint lock. The response is done's
// to keep; payload must stay unchanged until done runs. A budget of zero
// means the retry schedule alone.
func (e *Endpoint) CallAsync(to net.Addr, workloadID uint32, payload []byte, budget time.Duration, tr *obs.Req, done func(resp []byte, err error)) {
	e.start(to, workloadID, payload, budget, tr, done)
}

// call is a blocking call: a wait on the record's own channel, and on
// the context when it can be cancelled at all — never on anything the
// endpoint's other goroutines share.
func (e *Endpoint) call(ctx context.Context, to net.Addr, workloadID uint32, payload []byte, budget time.Duration, tr *obs.Req) ([]byte, error) {
	c := e.start(to, workloadID, payload, budget, tr, nil)
	var res callResult
	if cancelled := ctx.Done(); cancelled == nil {
		res = <-c.ch
	} else {
		select {
		case res = <-c.ch:
		case <-cancelled:
			if e.cancel(c) {
				c.span("-cancelled")
				res.err = ctx.Err()
			} else {
				res = <-c.ch // ended meanwhile: its result is on the way
			}
		}
	}
	c.release()
	return res.payload, res.err
}

// start registers one call and sends its first attempt. A call that
// cannot start — oversized, the endpoint closed, the send failed — is
// completed here.
func (e *Endpoint) start(to net.Addr, workloadID uint32, payload []byte, budget time.Duration, tr *obs.Req, done func([]byte, error)) *call {
	c := callPool.Get().(*call)
	c.e, c.to, c.payload, c.tr, c.done = e, to, payload, tr, done
	c.budget, c.left = budget, budget
	c.id = e.nextID.Add(1)
	c.h = matchlambda.WireHeader{
		Version:    matchlambda.Version1,
		WorkloadID: workloadID,
		RequestID:  c.id,
	}
	// Single-fragment requests (the common case for interactive
	// lambdas) are encoded once into a pooled buffer; larger payloads
	// stream fragment-by-fragment through a pooled buffer under the
	// send window on every attempt.
	if len(payload) <= e.mtu && matchlambda.WireHeaderSize+len(payload) <= pktBufSize {
		c.h.Total = 1
		c.h.PayloadLen = uint32(len(payload))
		c.pb = getBuf()
		c.pkt = append(c.h.Encode((*c.pb)[:0]), payload...)
	} else if err := checkFragments(len(payload), e.mtu); err != nil {
		c.finish(nil, err)
		return c
	}
	sh := e.shardByID(c.id)
	sh.mu.Lock()
	// Close sets closing before it sweeps the pending tables, so a call
	// is either in its shard's table when the sweep takes the shard's
	// lock or sees the flag here.
	err := ErrClosed
	if !e.closing.Load() {
		sh.pending[c.id] = c
		if err = c.send(); err == nil {
			c.arm()
			sh.mu.Unlock()
			return c
		}
		delete(sh.pending, c.id)
	}
	sh.mu.Unlock()
	c.finish(nil, err)
	return c
}

// send puts the current attempt on the wire; the shard lock is held.
func (c *call) send() error {
	c.sent = c.tr.Now()
	var err error
	if c.pkt != nil {
		if err = c.e.writeTo(c.pkt, c.to); err != nil {
			err = fmt.Errorf("transport: send: %w", err)
		}
	} else {
		err = c.e.streamFragments(c.h, c.payload, c.to)
	}
	if err != nil && c.e.closing.Load() {
		err = ErrClosed // the socket went away under a call racing Close
	}
	return err
}

// arm starts the attempt's wait: the retransmit timeout, cut to what the
// budget has left. The shard lock is held.
func (c *call) arm() {
	wait := c.e.timeout
	if c.budget > 0 {
		wait = min(wait, c.left)
		c.left -= wait
	}
	if c.timer == nil {
		c.timer = time.AfterFunc(wait, c.expire)
	} else {
		c.timer.Reset(wait)
	}
}

// expire ends an attempt's wait: it retransmits, or ends the call with
// ErrTimeout once the retries or the budget are spent. A call that ended
// meanwhile is no longer in the table, and its ender retired the record.
func (c *call) expire() {
	e := c.e
	sh := e.shardByID(c.id)
	sh.mu.Lock()
	if sh.pending[c.id] != c {
		sh.mu.Unlock()
		return
	}
	c.span("-timeout")
	var err error
	switch {
	case c.budget > 0 && c.left == 0:
		err = fmt.Errorf("%w: request %d: %v budget spent", ErrTimeout, c.id, c.budget)
	case c.attempt == e.retries:
		err = fmt.Errorf("%w: request %d", ErrTimeout, c.id)
	default:
		c.attempt++
		e.retransmits.Add(1)
		if err = c.send(); err == nil {
			c.arm()
			sh.mu.Unlock()
			return
		}
	}
	delete(sh.pending, c.id)
	sh.mu.Unlock()
	c.finish(nil, err)
}

// cancel takes a blocking call out of its table for a cancelled
// context; false means something else ended it first.
func (e *Endpoint) cancel(c *call) bool {
	sh := e.shardByID(c.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.pending[c.id] != c {
		return false
	}
	sh.unlink(c)
	return true
}

// unlink takes a pending call out of the table and stops its timer;
// sh.mu must be held. A timer that already fired finds the call gone,
// but may still be reading the record, which is therefore retired
// instead of pooled.
func (sh *shard) unlink(c *call) {
	delete(sh.pending, c.id)
	if !c.timer.Stop() {
		c.stale = true
	}
}

// span records the current attempt's outcome in the call's trace.
func (c *call) span(outcome string) {
	if c.tr == nil {
		return
	}
	detail := "attempt"
	if c.attempt > 0 {
		detail = "retransmit"
	}
	c.tr.AddSpan(obs.StageTransport, "rpc", detail+outcome, c.sent, c.tr.Now())
}

// finish completes a call that is out of the pending table (or never got
// in); no lock may be held. A blocking call's waiter takes the result
// and releases the record; an async one is released before done runs,
// so done may start the next call on it.
func (c *call) finish(resp []byte, err error) {
	if c.done == nil {
		c.ch <- callResult{payload: resp, err: err}
		return
	}
	done := c.done
	c.release()
	done(resp, err)
}

// release recycles a completed call's packet buffer and, unless its
// timer may still run, the record itself.
func (c *call) release() {
	if c.pb != nil {
		putBuf(c.pb)
	}
	if c.stale {
		return
	}
	*c = call{timer: c.timer, ch: c.ch}
	callPool.Put(c)
}

// peerName formats the senders of the packets a reader goroutine sees,
// remembering the last few: a reader hears from a handful of peers —
// clients, workers — the fragments of a bulk message arrive in a run
// from one of them, and formatting a UDP address allocates.
type peerName struct {
	peers [peerCacheLen]peer
	next  int // the entry the next new peer replaces
}

const peerCacheLen = 8

type peer struct {
	addr netip.AddrPort
	name string
	udp  *net.UDPAddr // the same peer as a net.Addr
}

func (p *peerName) lookup(addr netip.AddrPort) *peer {
	for i := range p.peers {
		if pe := &p.peers[i]; pe.udp != nil && pe.addr == addr {
			return pe
		}
	}
	pe := &p.peers[p.next]
	p.next = (p.next + 1) % peerCacheLen
	*pe = peer{addr: addr}
	return pe
}

func (p *peerName) of(from net.Addr) string {
	ua, ok := from.(*net.UDPAddr)
	if !ok {
		return from.String() // MemAddr: the string itself
	}
	pe := p.lookup(ua.AddrPort())
	if pe.udp == nil {
		pe.udp, pe.name = ua, ua.String()
	}
	return pe.name
}

// ofAddrPort names a peer read off a UDP socket, and returns it as a
// net.Addr, built once while the peer stays in the cache.
func (p *peerName) ofAddrPort(addr netip.AddrPort) (net.Addr, string) {
	pe := p.lookup(addr)
	if pe.udp == nil {
		pe.udp = net.UDPAddrFromAddrPort(addr)
		pe.name = pe.udp.String()
	}
	return pe.udp, pe.name
}

// readLoop drains the socket. Several run concurrently; each owns a
// pooled read buffer that is handed off with a single-fragment request
// whose payload aliases it.
func (e *Endpoint) readLoop() {
	defer e.readerWG.Done()
	pb := getBuf()
	defer func() { putBuf(pb) }()
	var peer peerName
	for {
		var (
			n    int
			from net.Addr
			src  string
			err  error
		)
		if e.udp != nil {
			var addr netip.AddrPort
			if n, addr, err = e.udp.ReadFromUDPAddrPort(*pb); err == nil {
				from, src = peer.ofAddrPort(addr)
			}
		} else if n, from, err = e.conn.ReadFrom(*pb); err == nil {
			src = peer.of(from)
		}
		if err != nil {
			// Transient decode/socket errors on a datagram socket are
			// survivable; a closed socket is not.
			if errors.Is(err, net.ErrClosed) || e.closing.Load() {
				return
			}
			continue
		}
		if e.handlePacket((*pb)[:n], from, src, pb) {
			pb = getBuf()
		}
	}
}

// handlePacket processes one wire packet from the peer at from, whose
// formatted address is src. It reports whether ownership of the read
// buffer pb was transferred (to the request it carried).
func (e *Endpoint) handlePacket(pkt []byte, from net.Addr, src string, pb *[]byte) bool {
	h, payload, err := matchlambda.DecodeWireHeader(pkt)
	if err != nil {
		return false
	}
	if h.IsResponse() {
		e.handleResponse(h, payload, src)
		return false
	}
	if e.handler == nil && e.inline == nil {
		return false
	}
	return e.handleRequest(h, payload, from, src, pb)
}

// handleResponse completes the pending call the response answers. The
// payload escapes to the caller, so it is a fresh copy (one fragment) or
// the reassembler's unpooled message buffer (several). A response nobody
// is waiting for — the caller timed out, or was already answered — is
// dropped before it can start a partial message.
func (e *Endpoint) handleResponse(h matchlambda.WireHeader, payload []byte, src string) {
	sh := e.shardByID(h.RequestID)
	sh.mu.Lock()
	c, ok := sh.pending[h.RequestID]
	if !ok {
		sh.mu.Unlock()
		return
	}
	var out []byte
	if h.Total > 1 {
		msg, _, done, _ := sh.reasm.addFragment(h, payload, src, false)
		if !done {
			sh.mu.Unlock()
			return
		}
		h, out = msg.Header, msg.Payload
	} else {
		out = make([]byte, len(payload))
		copy(out, payload)
	}
	sh.unlink(c)
	sh.mu.Unlock()
	c.span("")
	if h.IsError() {
		c.finish(nil, fmt.Errorf("transport: remote error: %s", out))
		return
	}
	c.finish(out, nil)
}

// handleRequest runs duplicate suppression and hands the request to the
// inline handler or the worker pool. It reports whether the read buffer
// went with it.
func (e *Endpoint) handleRequest(h matchlambda.WireHeader, payload []byte, from net.Addr, src string, pb *[]byte) bool {
	key := dedupKey{src: src, id: h.RequestID}
	sh := e.shardByKey(src, h.RequestID)

	var msg Message
	var msgBuf *[]byte
	handoff := false
	sh.mu.Lock()
	if h.Total > 1 {
		var done bool
		msg, msgBuf, done, _ = sh.reasm.addFragment(h, payload, src, true)
		if !done {
			sh.mu.Unlock()
			return false
		}
	} else {
		msg = Message{Header: h, Payload: payload}
		handoff = true
	}
	msg.Source = from
	// Duplicate request: replay the cached response without re-running
	// the lambda (at-least-once delivery made idempotent at the edge).
	if slot, ok := sh.seen[key]; ok {
		entry := &sh.ring[slot]
		rb := getBuf()
		resp := append((*rb)[:0], entry.resp...)
		isErr := entry.isErr
		sh.mu.Unlock()
		e.duplicates.Add(1)
		e.sendResponse(msg.Header, resp, isErr, from)
		putBuf(rb)
		putMsgBuf(msgBuf)
		return false
	}
	if _, busy := sh.inflight[key]; busy {
		sh.mu.Unlock()
		e.duplicates.Add(1)
		putMsgBuf(msgBuf)
		return false
	}
	sh.inflight[key] = struct{}{}
	sh.mu.Unlock()

	req := reqPool.Get().(*Request)
	req.Message, req.e, req.key, req.shard, req.msgBuf = msg, e, key, sh, msgBuf
	if handoff {
		req.buf = pb
	}
	if e.inline != nil {
		if e.open.Add(1) > e.maxOpen {
			e.open.Add(-1)
			e.shed(req)
			return false
		}
		e.inline(req) // req may be recycled by the time this returns
		return handoff
	}
	select {
	case e.jobs <- req:
		return handoff
	default:
		e.shed(req)
		return false
	}
}

// shed drops a request the endpoint has no room for; the client
// retransmits. The inflight mark must be cleared or the retransmit would
// be treated as a duplicate of a request that never ran. The read
// buffer stays with the reader.
func (e *Endpoint) shed(req *Request) {
	sh := req.shard
	sh.mu.Lock()
	delete(sh.inflight, req.key)
	sh.mu.Unlock()
	req.buf = nil
	e.recycle(req)
	e.drops.Add(1)
}

// workLoop executes requests from the bounded pool until Close, once
// the readers are gone, closes jobs.
func (e *Endpoint) workLoop() {
	defer e.workerWG.Done()
	for req := range e.jobs {
		resp, err := e.handler(&req.Message)
		e.complete(req, resp, err)
	}
}

// complete is every request's last step, on the pool or after an inline
// handler: it caches the response for duplicate suppression, sends it,
// and recycles the request with its buffers.
func (e *Endpoint) complete(req *Request, resp []byte, herr error) {
	isErr := herr != nil
	if isErr {
		resp = []byte(herr.Error())
	}
	sh := req.shard
	sh.mu.Lock()
	delete(sh.inflight, req.key)
	sh.remember(req.key, resp, isErr)
	sh.mu.Unlock()
	e.sendResponse(req.Header, resp, isErr, req.Source)
	if e.inline != nil {
		e.open.Add(-1)
	}
	e.recycle(req)
}

// recycle returns a request and its buffers to their pools.
func (e *Endpoint) recycle(req *Request) {
	if req.buf != nil {
		putBuf(req.buf)
	}
	putMsgBuf(req.msgBuf)
	*req = Request{}
	reqPool.Put(req)
}

// remember caches a response in the shard's ring for duplicate
// suppression; sh.mu must be held. When the ring is full the oldest
// entry is evicted and its backing array reused, so the cache is
// bounded by construction and a warm steady state allocates nothing.
// When storing the response would take the ring's arrays past
// seenBytesPerShard, the oldest entries are evicted and give up their
// arrays until it fits (the largest goes to the new entry, so equal-
// sized bulk responses also settle at zero allocation); the ring then
// holds at most the budget plus the one response just stored.
func (sh *shard) remember(key dedupKey, resp []byte, isErr bool) {
	n := len(sh.ring)
	if n == 0 {
		return
	}
	slot := sh.ringHead
	entry := &sh.ring[slot]
	if sh.ringLen == n {
		delete(sh.seen, entry.key)
		sh.ringLen--
	}
	for sh.ringLen > 0 && sh.ringBytes+max(0, len(resp)-cap(entry.resp)) > seenBytesPerShard {
		oldest := &sh.ring[(slot-sh.ringLen+n)%n]
		delete(sh.seen, oldest.key)
		sh.ringLen--
		if cap(oldest.resp) > cap(entry.resp) {
			oldest.resp, entry.resp = entry.resp, oldest.resp
		}
		sh.ringBytes -= cap(oldest.resp)
		*oldest = seenEntry{}
	}
	sh.ringBytes -= cap(entry.resp)
	entry.key = key
	entry.resp = append(entry.resp[:0], resp...)
	entry.isErr = isErr
	sh.ringBytes += cap(entry.resp)
	sh.seen[key] = slot
	sh.ringLen++
	sh.ringHead = (sh.ringHead + 1) % n
}

func (e *Endpoint) sendResponse(reqHeader matchlambda.WireHeader, payload []byte, isErr bool, to net.Addr) {
	h := matchlambda.WireHeader{
		Version:    matchlambda.Version1,
		Flags:      matchlambda.FlagResponse,
		WorkloadID: reqHeader.WorkloadID,
		RequestID:  reqHeader.RequestID,
	}
	if isErr {
		h.Flags |= matchlambda.FlagError
	}
	if len(payload) <= e.mtu && matchlambda.WireHeaderSize+len(payload) <= pktBufSize {
		h.Total = 1
		h.PayloadLen = uint32(len(payload))
		pb := getBuf()
		pkt := h.Encode((*pb)[:0])
		pkt = append(pkt, payload...)
		e.writeTo(pkt, to)
		putBuf(pb)
		return
	}
	e.streamFragments(h, payload, to)
}

// writeTo sends one packet, without garbage when the socket and the
// destination are both UDP; wrapped connections take the generic path.
// An IPv4 address in 16-byte form (as net.ResolveUDPAddr returns it) is
// unmapped: an IPv4 socket takes only the 4-byte form, and an IPv6 one
// maps it back.
func (e *Endpoint) writeTo(pkt []byte, to net.Addr) error {
	if ua, ok := to.(*net.UDPAddr); ok && e.udp != nil {
		ap := ua.AddrPort()
		_, err := e.udp.WriteToUDPAddrPort(pkt, netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()))
		return err
	}
	_, err := e.conn.WriteTo(pkt, to)
	return err
}

// defaultSendWindow is the fragments-per-burst credit window for
// multi-fragment messages.
const defaultSendWindow = 32

// checkFragments validates that a payload fits the fragment count the
// wire header can express under the given MTU.
func checkFragments(payloadLen, mtu int) error {
	if mtu <= 0 {
		return ErrInvalidMTU
	}
	if n := (payloadLen + mtu - 1) / mtu; n > MaxFragments {
		return fmt.Errorf("%w: %d", ErrTooManyFragments, n)
	}
	return nil
}

// streamFragments sends a multi-fragment message by encoding each
// fragment into one pooled buffer reused across the whole message.
// WriteTo copies the packet (UDP's sendto does, and so does the
// in-memory network), so a single buffer streams arbitrarily large
// payloads with zero per-fragment allocation. Fragments go out in bursts
// of at most the send window, with a scheduler yield between bursts so
// receivers drain in pipeline with the sender (the transport-level
// analogue of the RDMA engine's bounded outstanding-request window).
func (e *Endpoint) streamFragments(h matchlambda.WireHeader, payload []byte, to net.Addr) error {
	if err := checkFragments(len(payload), e.mtu); err != nil {
		return err
	}
	n := (len(payload) + e.mtu - 1) / e.mtu
	if n == 0 {
		n = 1
	}
	h.Total = uint16(n)
	h.PayloadLen = uint32(len(payload))
	pb := getBuf()
	defer putBuf(pb)
	window := e.sendWindow
	if window <= 0 {
		window = defaultSendWindow
	}
	for i := 0; i < n; i++ {
		h.Seq = uint16(i)
		lo := i * e.mtu
		hi := lo + e.mtu
		if hi > len(payload) {
			hi = len(payload)
		}
		pkt := h.Encode((*pb)[:0])
		pkt = append(pkt, payload[lo:hi]...)
		if err := e.writeTo(pkt, to); err != nil {
			return fmt.Errorf("transport: send: %w", err)
		}
		if (i+1)%window == 0 && i+1 < n {
			runtime.Gosched()
		}
	}
	return nil
}
