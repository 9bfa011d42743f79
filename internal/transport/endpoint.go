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

// Handler serves one reassembled request and returns the response
// payload. A non-nil error is conveyed to the caller with the error
// flag set.
//
// The request's Payload may alias a pooled buffer — the packet buffer
// of a single-fragment request, the message buffer a multi-fragment one
// was reassembled into — that is recycled after the handler's response
// has been cached and sent; handlers that retain the payload past their
// return must copy it.
type Handler func(req *Message) ([]byte, error)

// Endpoint is a weakly-consistent RPC endpoint over a packet network
// (§4.2.1 D3): at-least-once delivery with sender-side retransmission,
// receiver-side reordering and duplicate suppression, and no connection
// state — each RPC is independent, as serverless request-response pairs
// are (§3.1b).
//
// The data plane mirrors the NIC's parallelism (§4: many NPU cores, no
// per-request setup): endpoint state is lock-striped across shards
// keyed by request ID / peer hash, several reader goroutines drain the
// socket concurrently, requests execute on a bounded worker pool rather
// than a goroutine per request, and packet buffers, timers, and call
// records are pooled so the steady state allocates (almost) nothing.
type Endpoint struct {
	conn       net.PacketConn
	mtu        int
	timeout    time.Duration
	retries    int
	workers    int
	sendWindow int

	handler Handler
	shards  [numShards]shard
	jobs    chan *execJob

	nextID atomic.Uint64

	// Shutdown. Nothing on the request path waits on an endpoint-wide
	// channel: Close sets closing, then hands ErrClosed to every pending
	// call through the call's own result channel; a call that registers
	// later sees the flag. readerWG and workerWG order the teardown (the
	// readers are the only senders on jobs).
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
	pending map[uint64]*pendingCall
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

// pendingCall tracks one in-flight RPC: its result channel (capacity
// one) and its destination (so AbortTo can drain calls to an evicted
// worker). The channel is the only thing besides its own timer that the
// caller waits on: a response, ErrAborted and ErrClosed all arrive there,
// and the first one wins. Calls are pooled; every send happens under the
// owning shard's lock so a recycled call can never receive a stale one.
type pendingCall struct {
	ch chan callResult
	to string
}

// callResult ends a call: a delivered response — the payload (owned by
// the receiver) and whether the remote flagged an error — or, with err
// set, the local reason it was given up (ErrAborted, ErrClosed).
type callResult struct {
	payload []byte
	isErr   bool
	err     error
}

// deliver hands res to the call unless a result is already waiting; the
// owning shard's lock must be held.
func (pc *pendingCall) deliver(res callResult) bool {
	select {
	case pc.ch <- res:
		return true
	default:
		return false
	}
}

// execJob carries one reassembled request to the worker pool. The
// message payload aliases a pooled buffer — buf, the read buffer of a
// single-fragment request, or msgBuf, the reassembler's message buffer
// of a multi-fragment one (nil past wholeMsgLimit) — which the worker
// recycles after the response is cached and sent.
type execJob struct {
	msg    Message
	from   net.Addr
	key    dedupKey
	shard  *shard
	buf    *[]byte
	msgBuf *[]byte
}

// pktBufSize fits the largest datagram a read can return.
const pktBufSize = 64 * 1024

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, pktBufSize)
	return &b
}}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { bufPool.Put(b) }

var timerPool sync.Pool

// acquireTimer returns a timer set to fire after d. Timers are pooled;
// the Go 1.23+ timer semantics (unbuffered channel, Stop/Reset remove
// pending sends) make reuse without draining safe.
func acquireTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func releaseTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}

var callPool = sync.Pool{New: func() any {
	return &pendingCall{ch: make(chan callResult, 1)}
}}

var jobPool = sync.Pool{New: func() any { return new(execJob) }}

// EndpointOption configures an Endpoint.
type EndpointOption func(*Endpoint)

// WithMTU sets the fragment payload size.
func WithMTU(mtu int) EndpointOption { return func(e *Endpoint) { e.mtu = mtu } }

// WithTimeout sets the per-attempt response timeout.
func WithTimeout(d time.Duration) EndpointOption { return func(e *Endpoint) { e.timeout = d } }

// WithRetries sets how many times a request is retransmitted before the
// call fails.
func WithRetries(n int) EndpointOption { return func(e *Endpoint) { e.retries = n } }

// WithWorkers bounds the request-execution pool. Raise it for handlers
// that block (the gateway's proxied upstream calls); the default suits
// compute-bound lambdas.
func WithWorkers(n int) EndpointOption {
	return func(e *Endpoint) {
		if n > 0 {
			e.workers = n
		}
	}
}

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

// NewEndpoint wraps a packet connection. handler may be nil for a
// client-only endpoint. The endpoint owns the connection and closes it
// on Close.
func NewEndpoint(conn net.PacketConn, handler Handler, opts ...EndpointOption) *Endpoint {
	e := &Endpoint{
		conn:       conn,
		mtu:        DefaultMTU,
		timeout:    200 * time.Millisecond,
		retries:    4,
		workers:    64,
		sendWindow: defaultSendWindow,
		handler:    handler,
	}
	for _, o := range opts {
		o(e)
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.pending = make(map[uint64]*pendingCall)
		sh.reasm = NewReassembler()
		sh.reasm.MaxPending = maxPartialsPerShard
		if handler != nil {
			sh.seen = make(map[dedupKey]int)
			sh.ring = make([]seenEntry, seenCap/numShards)
			sh.inflight = make(map[dedupKey]struct{})
		}
	}
	if handler != nil {
		e.jobs = make(chan *execJob, 4*e.workers)
		e.workerWG.Add(e.workers)
		for i := 0; i < e.workers; i++ {
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
// queue was full (the client retransmits under at-least-once delivery).
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

// endCalls delivers err as the result of every pending call addressed
// to the given destination ("" for all of them) and returns how many
// took it.
func (e *Endpoint) endCalls(err error, to string) int {
	ended := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, pc := range sh.pending {
			if (to == "" || pc.to == to) && pc.deliver(callResult{err: err}) {
				ended++
			}
		}
		sh.mu.Unlock()
	}
	return ended
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
// running out of retries. The bound rides the call's own retransmit
// timer — no context, no second timer.
func (e *Endpoint) CallWithin(ctx context.Context, to net.Addr, workloadID uint32, payload []byte, budget time.Duration, tr *obs.Req) ([]byte, error) {
	return e.call(ctx, to, workloadID, payload, budget, tr)
}

// call registers one RPC, runs it, and recycles its record. A budget of
// zero means no bound beyond the retry schedule.
func (e *Endpoint) call(ctx context.Context, to net.Addr, workloadID uint32, payload []byte, budget time.Duration, tr *obs.Req) ([]byte, error) {
	id := e.nextID.Add(1)
	h := matchlambda.WireHeader{
		Version:    matchlambda.Version1,
		WorkloadID: workloadID,
		RequestID:  id,
	}
	// Single-fragment requests (the common case for interactive
	// lambdas) are encoded once into a pooled buffer; larger payloads
	// stream fragment-by-fragment through a pooled buffer under the
	// send window on every attempt.
	var pkt []byte
	var pb *[]byte
	if len(payload) <= e.mtu && matchlambda.WireHeaderSize+len(payload) <= pktBufSize {
		h.Total = 1
		h.PayloadLen = uint32(len(payload))
		pb = getBuf()
		pkt = h.Encode((*pb)[:0])
		pkt = append(pkt, payload...)
	} else if err := checkFragments(len(payload), e.mtu); err != nil {
		return nil, err
	}

	pc := callPool.Get().(*pendingCall)
	pc.to = to.String()
	sh := e.shardByID(id)
	// Close sets closing before it sweeps the pending tables, so a call
	// is either in its shard's table when the sweep takes the shard's
	// lock or sees the flag here.
	sh.mu.Lock()
	sh.pending[id] = pc
	sh.mu.Unlock()

	var payloadOut []byte
	err := ErrClosed
	if !e.closing.Load() {
		payloadOut, err = e.runCall(ctx, to, pc, h, payload, pkt, budget, tr)
	}

	// Tear down under the shard lock: once the entry is deleted and the
	// result channel drained, no sender can reach pc, so pooling it is
	// safe.
	sh.mu.Lock()
	delete(sh.pending, id)
	select {
	case <-pc.ch:
	default:
	}
	sh.mu.Unlock()
	pc.to = ""
	callPool.Put(pc)
	if pb != nil {
		putBuf(pb)
	}
	return payloadOut, err
}

// runCall drives the attempt/retransmit loop for one pending call. A
// non-nil pkt is the pre-encoded single-fragment request; otherwise
// each attempt streams the payload as windowed fragments. Each attempt
// waits on the call's own channel and its own timer, and on the context
// when it can be cancelled at all (a nil Done channel never joins the
// select): never on anything the endpoint's other goroutines share.
func (e *Endpoint) runCall(ctx context.Context, to net.Addr, pc *pendingCall, h matchlambda.WireHeader, payload, pkt []byte, budget time.Duration, tr *obs.Req) ([]byte, error) {
	id := h.RequestID
	done := ctx.Done()
	left := budget // what CallWithin's bound still allows; unused when budget is 0
	var tm *time.Timer
	defer func() {
		if tm != nil {
			releaseTimer(tm)
		}
	}()
	for attempt := 0; attempt <= e.retries; attempt++ {
		detail := "attempt"
		if attempt > 0 {
			e.retransmits.Add(1)
			detail = "retransmit"
		}
		attemptStart := tr.Now()
		var err error
		if pkt != nil {
			if _, err = e.conn.WriteTo(pkt, to); err != nil {
				err = fmt.Errorf("transport: send: %w", err)
			}
		} else {
			err = e.streamFragments(h, payload, to)
		}
		if err != nil {
			if e.closing.Load() {
				err = ErrClosed // the socket went away under a call racing Close
			}
			return nil, err
		}
		wait := e.timeout
		if budget > 0 {
			wait = min(wait, left)
			left -= wait
		}
		if tm == nil {
			tm = acquireTimer(wait)
		} else {
			tm.Reset(wait)
		}
		select {
		case res := <-pc.ch:
			if res.err != nil { // ended here, by AbortTo or Close
				tr.AddSpan(obs.StageTransport, "rpc", detail+"-aborted", attemptStart, tr.Now())
				return nil, fmt.Errorf("%w: request %d", res.err, id)
			}
			tr.AddSpan(obs.StageTransport, "rpc", detail, attemptStart, tr.Now())
			if res.isErr {
				return nil, fmt.Errorf("transport: remote error: %s", res.payload)
			}
			return res.payload, nil
		case <-tm.C:
			tr.AddSpan(obs.StageTransport, "rpc", detail+"-timeout", attemptStart, tr.Now())
			if budget > 0 && left == 0 {
				return nil, fmt.Errorf("%w: request %d: %v budget spent", ErrTimeout, id, budget)
			}
			// fall through to retransmit
		case <-done:
			tr.AddSpan(obs.StageTransport, "rpc", detail+"-cancelled", attemptStart, tr.Now())
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("%w: request %d", ErrTimeout, id)
}

// peerName formats the sender of each packet a reader goroutine sees,
// remembering the last one: the fragments of a bulk message arrive in a
// run from one peer, and formatting a *net.UDPAddr allocates.
type peerName struct {
	addr netip.AddrPort
	name string
}

func (p *peerName) of(from net.Addr) string {
	ua, ok := from.(*net.UDPAddr)
	if !ok {
		return from.String() // MemAddr: the string itself
	}
	if addr := ua.AddrPort(); addr != p.addr || p.name == "" {
		p.addr, p.name = addr, ua.String()
	}
	return p.name
}

// readLoop drains the socket. Several run concurrently; each owns a
// pooled read buffer that is handed off to the worker pool when a
// single-fragment request's payload aliases it.
func (e *Endpoint) readLoop() {
	defer e.readerWG.Done()
	pb := getBuf()
	defer func() { putBuf(pb) }()
	var peer peerName
	for {
		n, from, err := e.conn.ReadFrom(*pb)
		if err != nil {
			// Transient decode/socket errors on a datagram socket are
			// survivable; a closed socket is not.
			if errors.Is(err, net.ErrClosed) || e.closing.Load() {
				return
			}
			continue
		}
		if e.handlePacket((*pb)[:n], from, peer.of(from), pb) {
			pb = getBuf()
		}
	}
}

// handlePacket processes one wire packet from the peer at from, whose
// formatted address is src. It reports whether ownership of the read
// buffer pb was transferred (to the worker pool).
func (e *Endpoint) handlePacket(pkt []byte, from net.Addr, src string, pb *[]byte) bool {
	h, payload, err := matchlambda.DecodeWireHeader(pkt)
	if err != nil {
		return false
	}
	if h.IsResponse() {
		e.handleResponse(h, payload, src)
		return false
	}
	if e.handler == nil {
		return false
	}
	return e.handleRequest(h, payload, from, src, pb)
}

// handleResponse completes the pending call the response answers. The
// payload escapes to the caller, so it is a fresh copy (one fragment) or
// the reassembler's unpooled message buffer (several); the send happens
// under the shard lock so it can never land on a recycled call. A
// response nobody is waiting for — the caller timed out, or was already
// answered — is dropped before it can start a partial message.
func (e *Endpoint) handleResponse(h matchlambda.WireHeader, payload []byte, src string) {
	sh := e.shardByID(h.RequestID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pc, ok := sh.pending[h.RequestID]
	if !ok || len(pc.ch) > 0 {
		return
	}
	var out []byte
	if h.Total > 1 {
		msg, _, done, _ := sh.reasm.addFragment(h, payload, src, false)
		if !done {
			return
		}
		h, out = msg.Header, msg.Payload
	} else {
		out = make([]byte, len(payload))
		copy(out, payload)
	}
	pc.deliver(callResult{payload: out, isErr: h.IsError()})
}

// handleRequest runs duplicate suppression and dispatches the request
// to the worker pool. It reports whether the read buffer was handed
// off.
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

	job := jobPool.Get().(*execJob)
	job.msg = msg
	job.from = from
	job.key = key
	job.shard = sh
	job.msgBuf = msgBuf
	if handoff {
		job.buf = pb
	} else {
		job.buf = nil
	}
	select {
	case e.jobs <- job:
		return handoff
	default:
		// Queue full: shed the request; the client retransmits. The
		// inflight mark must be cleared or the retransmit would be
		// treated as a duplicate of a request that never ran.
		sh.mu.Lock()
		delete(sh.inflight, key)
		sh.mu.Unlock()
		putMsgBuf(msgBuf)
		job.buf = nil
		job.msgBuf = nil
		job.from = nil
		job.msg = Message{}
		jobPool.Put(job)
		e.drops.Add(1)
		return false
	}
}

// workLoop executes requests from the bounded pool until Close, once
// the readers are gone, closes jobs.
func (e *Endpoint) workLoop() {
	defer e.workerWG.Done()
	for job := range e.jobs {
		e.execute(job)
	}
}

// execute runs the handler for one request, caches the response for
// duplicate suppression, sends it, and recycles the job's buffers.
func (e *Endpoint) execute(job *execJob) {
	resp, herr := e.handler(&job.msg)
	isErr := herr != nil
	if isErr {
		resp = []byte(herr.Error())
	}
	sh := job.shard
	sh.mu.Lock()
	delete(sh.inflight, job.key)
	sh.remember(job.key, resp, isErr)
	sh.mu.Unlock()
	e.sendResponse(job.msg.Header, resp, isErr, job.from)
	if job.buf != nil {
		putBuf(job.buf)
	}
	putMsgBuf(job.msgBuf)
	job.buf = nil
	job.msgBuf = nil
	job.from = nil
	job.msg = Message{}
	jobPool.Put(job)
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

// seenLen reports the shard's cached-response count; test hook.
func (sh *shard) seenLen() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.seen)
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
		e.conn.WriteTo(pkt, to)
		putBuf(pb)
		return
	}
	e.streamFragments(h, payload, to)
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
// payloads with zero per-fragment allocation — replacing the old path
// that materialized every packet up front. Fragments go out in bursts
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
		if _, err := e.conn.WriteTo(pkt, to); err != nil {
			return fmt.Errorf("transport: send: %w", err)
		}
		if (i+1)%window == 0 && i+1 < n {
			runtime.Gosched()
		}
	}
	return nil
}
