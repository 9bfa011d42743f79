package transport

import (
	"errors"
	"maps"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// This file provides an in-memory packet network implementing
// net.PacketConn, used by tests and examples to run the full λ-NIC
// control plane without real sockets. The network injects configurable
// packet loss, duplication, and reordering so the weakly-consistent
// delivery path (§4.2.1 D3) can be exercised deterministically.

// MemNetwork is a hub connecting named in-memory packet endpoints.
type MemNetwork struct {
	// nodes is the routing table, copy-on-write: deliver reads it with
	// one atomic load, so packets of a fault-free network share no lock;
	// mu serializes the writers (Listen, Close) and guards rng.
	nodes atomic.Pointer[map[string]*MemConn]
	mu    sync.Mutex
	rng   *rand.Rand

	// The fault rates are set before traffic starts. While all three
	// are zero the hub draws no random numbers.

	// LossRate is the probability a packet is dropped in transit.
	LossRate float64
	// DupRate is the probability a packet is delivered twice.
	DupRate float64
	// ReorderRate is the probability a packet is delayed behind the
	// next one.
	ReorderRate float64
}

// NewMemNetwork returns a hub with deterministic fault injection.
func NewMemNetwork(seed int64) *MemNetwork {
	n := &MemNetwork{rng: rand.New(rand.NewSource(seed))}
	n.nodes.Store(&map[string]*MemConn{})
	return n
}

// setNode installs (c non-nil) or removes name in a fresh copy of the
// routing table; n.mu must be held.
func (n *MemNetwork) setNode(name string, c *MemConn) {
	next := maps.Clone(*n.nodes.Load())
	if c != nil {
		next[name] = c
	} else {
		delete(next, name)
	}
	n.nodes.Store(&next)
}

// MemAddr is a node name on a MemNetwork.
type MemAddr string

// Network returns "mem".
func (a MemAddr) Network() string { return "mem" }

// String returns the node name.
func (a MemAddr) String() string { return string(a) }

type memPacket struct {
	data []byte
	pb   *[]byte // pooled backing buffer; nil if not pooled
	// from is the sender's address, boxed once at Listen time so the
	// read path never re-boxes the MemAddr string into an interface.
	from net.Addr
}

// recycle returns the packet's backing buffer to the pool.
func (p *memPacket) recycle() {
	if p.pb != nil {
		memBufPool.Put(p.pb)
		p.pb = nil
	}
}

// clone copies the packet into a fresh pooled buffer.
func (p memPacket) clone() memPacket {
	pb := memBufPool.Get().(*[]byte)
	*pb = append((*pb)[:0], p.data...)
	return memPacket{data: *pb, pb: pb, from: p.from}
}

// memBufPool recycles in-flight packet buffers: WriteTo copies into a
// pooled buffer and ReadFrom returns it once the payload is copied out,
// so a steady-state round trip allocates nothing in the network itself.
var memBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// MemConn is one endpoint on a MemNetwork. It implements
// net.PacketConn.
type MemConn struct {
	net   *MemNetwork
	addr  MemAddr
	boxed net.Addr // addr pre-boxed as an interface (see memPacket.from)
	// inbox is the receive queue, deep enough to hold a burst of bulk
	// messages (a real NIC's RX ring); a full inbox drops.
	inbox chan memPacket

	// mu guards the reorder slot and every send on inbox, so that Close
	// can set closed and close inbox with no sender in flight. closed is
	// atomic only for WriteTo, which reads it without the lock.
	mu         sync.Mutex
	closed     atomic.Bool
	delayed    memPacket // one packet being reordered behind the next
	hasDelayed bool

	// rd is the read deadline; reads wait on it only once one has been
	// set (rdSet), so a conn that never sets one reads from inbox alone.
	rd    readDeadline
	rdSet atomic.Bool
}

// readDeadline is a settable read deadline: a channel closed once the
// deadline passes, and one timer that closes it. Moving the deadline
// later — each command of a request-response client does — only
// records it: the timer, due earlier, finds the deadline moved when it
// fires and re-arms itself for the rest.
type readDeadline struct {
	mu      sync.Mutex
	at      time.Time // zero: no deadline
	timer   *time.Timer
	due     time.Time // when the timer fires; zero while it is idle
	expired chan struct{}
}

func (d *readDeadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.at = t
	select {
	case <-d.expired:
		d.expired = nil // passed: the new deadline starts open
	default:
	}
	if d.expired == nil {
		d.expired = make(chan struct{})
	}
	switch now := time.Now(); {
	case t.IsZero():
	case !t.After(now):
		close(d.expired)
	case d.due.IsZero() || t.Before(d.due):
		d.due = t
		if d.timer == nil {
			d.timer = time.AfterFunc(t.Sub(now), d.expire)
		} else {
			d.timer.Reset(t.Sub(now))
		}
	}
}

// expire runs on the timer: it closes the channel if the deadline has
// passed, or re-arms for a deadline that moved later.
func (d *readDeadline) expire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.due = time.Time{}
	if d.at.IsZero() {
		return
	}
	if left := time.Until(d.at); left > 0 {
		d.due = d.at
		d.timer.Reset(left)
		return
	}
	select {
	case <-d.expired:
	default:
		close(d.expired)
	}
}

func (d *readDeadline) wait() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.expired
}

var _ net.PacketConn = (*MemConn)(nil)

// Listen attaches a new endpoint with the given name.
func (n *MemNetwork) Listen(name string) (*MemConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := (*n.nodes.Load())[name]; ok {
		return nil, errors.New("transport: memnet address in use: " + name)
	}
	c := &MemConn{
		net:   n,
		addr:  MemAddr(name),
		boxed: MemAddr(name),
		inbox: make(chan memPacket, 1024),
	}
	n.setNode(name, c)
	return c, nil
}

// deliver routes a packet to its destination applying fault injection.
// It takes ownership of pkt's pooled buffer.
func (n *MemNetwork) deliver(to string, pkt memPacket) {
	dst, ok := (*n.nodes.Load())[to]
	if !ok {
		pkt.recycle()
		return
	}
	if n.LossRate == 0 && n.DupRate == 0 && n.ReorderRate == 0 {
		dst.receive(pkt, false)
		return
	}
	// Three draws per routed packet, in this order, whatever the rates:
	// the sequence a seed produces is part of the tests' contract.
	n.mu.Lock()
	drop := n.rng.Float64() < n.LossRate
	dup := n.rng.Float64() < n.DupRate
	reorder := n.rng.Float64() < n.ReorderRate
	n.mu.Unlock()
	if drop {
		pkt.recycle()
		return
	}
	if dup {
		// The duplicate needs its own buffer: both copies are consumed
		// (and recycled) independently by the receiver.
		dst.receive(pkt.clone(), false)
	}
	dst.receive(pkt, reorder)
}

func (c *MemConn) receive(pkt memPacket, delay bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.closed.Load():
		pkt.recycle()
	case delay && !c.hasDelayed:
		c.delayed, c.hasDelayed = pkt, true
	default:
		c.push(pkt)
		if c.hasDelayed {
			c.push(c.delayed)
			c.delayed, c.hasDelayed = memPacket{}, false
		}
	}
}

// push queues a packet for ReadFrom; c.mu must be held.
func (c *MemConn) push(pkt memPacket) {
	select {
	case c.inbox <- pkt:
	default: // inbox full: drop, like a real NIC queue
		pkt.recycle()
	}
}

// ReadFrom blocks until a packet arrives, or the read deadline passes
// (os.ErrDeadlineExceeded). After Close it returns what was already
// queued, then net.ErrClosed.
func (c *MemConn) ReadFrom(p []byte) (int, net.Addr, error) {
	var pkt memPacket
	var ok bool
	if !c.rdSet.Load() {
		pkt, ok = <-c.inbox
	} else {
		select {
		case pkt, ok = <-c.inbox:
		case <-c.rd.wait():
			return 0, nil, os.ErrDeadlineExceeded
		}
	}
	if !ok {
		return 0, nil, net.ErrClosed
	}
	n := copy(p, pkt.data)
	pkt.recycle()
	return n, pkt.from, nil
}

// WriteTo sends a packet to the named endpoint.
func (c *MemConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	pb := memBufPool.Get().(*[]byte)
	*pb = append((*pb)[:0], p...)
	c.net.deliver(addr.String(), memPacket{data: *pb, pb: pb, from: c.boxed})
	return len(p), nil
}

// Close detaches the endpoint. Readers blocked in ReadFrom wake with
// net.ErrClosed once the inbox is drained.
func (c *MemConn) Close() error {
	c.mu.Lock()
	if c.closed.Swap(true) {
		c.mu.Unlock()
		return nil
	}
	close(c.inbox)
	c.delayed.recycle()
	c.delayed, c.hasDelayed = memPacket{}, false
	c.mu.Unlock()
	c.net.mu.Lock()
	c.net.setNode(string(c.addr), nil)
	c.net.mu.Unlock()
	return nil
}

// LocalAddr returns the endpoint's name.
func (c *MemConn) LocalAddr() net.Addr { return c.addr }

// SetDeadline sets the read deadline (writes never block).
func (c *MemConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline bounds reads as on a socket: past t, ReadFrom fails
// with os.ErrDeadlineExceeded, and a zero t clears the deadline. A read
// already waiting when the conn's first deadline is set is not bound.
func (c *MemConn) SetReadDeadline(t time.Time) error {
	c.rd.set(t)
	c.rdSet.Store(true)
	return nil
}

// SetWriteDeadline is a no-op: writes never block.
func (c *MemConn) SetWriteDeadline(time.Time) error { return nil }
