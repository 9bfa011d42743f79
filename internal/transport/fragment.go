// Package transport implements λ-NIC's network transport (paper §4.2.1
// D3): small request-response RPCs with a weakly-consistent delivery
// semantic instead of TCP. The sender (gateway or external service)
// tracks outgoing RPCs and retransmits on timeout or loss; the receiver
// reorders fragments of multi-packet RPCs. Packets carry the λ-NIC wire
// header from internal/matchlambda.
//
// The package provides both the packet-level mechanics (fragmentation,
// reordering reassembly, duplicate suppression) and a runnable RPC
// endpoint over any net.PacketConn — real UDP for the daemons in cmd/,
// or the in-memory pipe (with deterministic loss/reorder injection) for
// tests.
package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"lambdanic/internal/matchlambda"
)

// DefaultMTU is the maximum payload bytes carried per fragment,
// leaving room for the wire header inside a 1500-byte Ethernet MTU.
const DefaultMTU = 1400

// MaxFragments is the most fragments one message can carry — the wire
// header's Total/Seq fields are uint16.
const MaxFragments = 0xFFFF

// Message is one logical RPC (request or response) after reassembly.
// Source is the sender's network address when known (endpoints fill it
// in on the request path); handlers use it as the flow identity for
// flow-affine dispatch and warm-state accounting. It may be nil for
// messages assembled outside an endpoint (e.g. direct Reassembler use).
type Message struct {
	Header  matchlambda.WireHeader
	Payload []byte
	Source  net.Addr
}

// Fragmentation errors.
var (
	ErrTooManyFragments = errors.New("transport: payload needs too many fragments")
	ErrInvalidMTU       = errors.New("transport: mtu must be positive")
)

// Fragment splits a logical message into wire packets of at most mtu
// payload bytes each. Single-packet messages (the common case for
// interactive lambdas, §4.2.1) produce exactly one packet.
func Fragment(h matchlambda.WireHeader, payload []byte, mtu int) ([][]byte, error) {
	if mtu <= 0 {
		return nil, ErrInvalidMTU
	}
	n := (len(payload) + mtu - 1) / mtu
	if n == 0 {
		n = 1
	}
	if n > MaxFragments {
		return nil, fmt.Errorf("%w: %d", ErrTooManyFragments, n)
	}
	h.Total = uint16(n)
	h.PayloadLen = uint32(len(payload))
	pkts := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		h.Seq = uint16(i)
		lo := i * mtu
		hi := lo + mtu
		if hi > len(payload) {
			hi = len(payload)
		}
		pkt := h.Encode(make([]byte, 0, matchlambda.WireHeaderSize+hi-lo))
		pkt = append(pkt, payload[lo:hi]...)
		pkts = append(pkts, pkt)
	}
	return pkts, nil
}

// Reassembler reorders and reassembles fragments into messages, keyed
// by (source, request ID) — the NIC-side packet reordering of §4.2.1
// D3. Keying on the source prevents request-ID collisions across
// independent clients from corrupting each other's messages. It also
// suppresses duplicate fragments (retransmissions under at-least-once
// delivery).
//
// Every byte is placed once, as D3's RDMA writes place each packet at
// its final address: the first fragment to arrive fixes the message's
// geometry — every fragment but the last carries the same L bytes, the
// last carries PayloadLen − L·(Total−1) — so fragment seq is copied
// straight to offset seq·L of one message buffer, and completion hands
// that buffer out. Fragments that disagree with the geometry are
// rejected with ErrInconsistentFragment.
type Reassembler struct {
	partial map[messageKey]*partialMessage
	// oldest and newest end the age-ordered list of partial messages.
	oldest, newest *partialMessage
	// MaxPending bounds concurrent partial messages (DoS guard,
	// §3.1c): starting one more evicts the oldest, whose sender
	// retransmits if it is still there. Zero means unlimited.
	MaxPending int
	evictions  uint64
}

// messageKey identifies one in-flight message.
type messageKey struct {
	src string
	id  uint64
}

// wholeMsgLimit is the largest message whose whole buffer is committed
// when its first fragment arrives. A larger message's buffer grows
// geometrically with the bytes actually received, so a forged header
// claiming a huge PayloadLen commits no more than this.
const wholeMsgLimit = 128 << 10

// partialMessage is one message under reassembly. Fragment seq lives at
// buf[seq·fragLen:]; got is the received bitmap.
type partialMessage struct {
	key     messageKey
	header  matchlambda.WireHeader // of the first fragment to arrive
	fragLen int
	buf     []byte
	pb      *[]byte // buf's pooled backing array; nil when buf is plain heap memory
	got     []uint64
	have    int // fragments received
	// older and newer link the reassembler's age list.
	older, newer *partialMessage
}

// partialPool recycles partial-message state (and its bitmap) across
// messages; msgBufPool recycles request-side message buffers, each
// wholeMsgLimit long.
var (
	partialPool = sync.Pool{New: func() any { return new(partialMessage) }}
	msgBufPool  = sync.Pool{New: func() any {
		b := make([]byte, wholeMsgLimit)
		return &b
	}}
)

// putMsgBuf recycles a message buffer once nothing reads the payload
// any more; nil (a message without a pooled buffer) is a no-op.
func putMsgBuf(pb *[]byte) {
	if pb == nil {
		return
	}
	poison(*pb)
	msgBufPool.Put(pb)
}

// Reassembly errors.
var (
	ErrInconsistentFragment = errors.New("transport: fragment inconsistent with message")
	// ErrFragmentAhead reports a fragment of a message larger than
	// wholeMsgLimit that would land further ahead than the bytes
	// received so far pay for. It is treated as lost: a sender
	// streaming in order never sends one, and a retransmission fills
	// the message from the bottom.
	ErrFragmentAhead = errors.New("transport: fragment too far ahead of the bytes received")
)

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{partial: make(map[messageKey]*partialMessage)}
}

// Add processes one wire packet from an anonymous source; use AddFrom
// when packets from multiple senders can interleave.
func (r *Reassembler) Add(pkt []byte) (*Message, error) {
	return r.AddFrom(pkt, "")
}

// AddFrom processes one wire packet from the named source. When the
// packet completes a message it returns the assembled message, whose
// payload the caller owns; otherwise it returns nil. Duplicate
// fragments are ignored.
func (r *Reassembler) AddFrom(pkt []byte, src string) (*Message, error) {
	h, payload, err := matchlambda.DecodeWireHeader(pkt)
	if err != nil {
		return nil, err
	}
	if h.Total <= 1 {
		// Fast path: single-packet RPC needs no reassembly state.
		return &Message{Header: h, Payload: append([]byte(nil), payload...)}, nil
	}
	msg, _, done, err := r.addFragment(h, payload, src, false)
	if !done {
		return nil, err
	}
	return &msg, nil
}

// fragmentLen derives the message's fragment length L from one fragment
// of n payload bytes and reports whether the fragment fits the geometry
// its own header claims: L ≥ 1, and a last fragment of 1..L bytes, as
// Fragment and the endpoint's streaming sender produce.
func fragmentLen(h matchlambda.WireHeader, n int) (int, bool) {
	size, rest, l := int64(h.PayloadLen), int64(h.Total)-1, int64(n)
	switch {
	case rest < 1 || int64(h.Seq) > rest:
		return 0, false
	case int64(h.Seq) == rest:
		// The last fragment carries what the others left over.
		if l < 1 || (size-l)%rest != 0 {
			return 0, false
		}
		l = (size - l) / rest
	}
	last := size - l*rest
	return int(l), l >= 1 && last >= 1 && last <= l
}

// addFragment places one fragment of a multi-fragment message (Total >
// 1; the header is already decoded — the endpoint's sharded packet path
// decodes once to pick a lock stripe). When the fragment completes the
// message, done is true and msg.Payload is the message buffer: with
// pooled set and a message of at most wholeMsgLimit bytes it aliases
// pb, which the caller must hand to putMsgBuf when it is finished with
// the payload; otherwise pb is nil and the payload is the caller's.
func (r *Reassembler) addFragment(h matchlambda.WireHeader, payload []byte, src string, pooled bool) (msg Message, pb *[]byte, done bool, err error) {
	fragLen, ok := fragmentLen(h, len(payload))
	if !ok {
		return msg, nil, false, fmt.Errorf("%w: request %d seq %d of %d, %d of %d bytes",
			ErrInconsistentFragment, h.RequestID, h.Seq, h.Total, len(payload), h.PayloadLen)
	}
	key := messageKey{src: src, id: h.RequestID}
	pm, ok := r.partial[key]
	if !ok {
		if r.MaxPending > 0 && len(r.partial) >= r.MaxPending {
			r.evictions++
			r.discard(r.oldest)
		}
		pm = partialPool.Get().(*partialMessage) // zero but for got's capacity (discard)
		pm.key, pm.header, pm.fragLen = key, h, fragLen
		pm.got = append(pm.got, make([]uint64, (int(h.Total)+63)/64)...)
		r.partial[key] = pm
		pm.older = r.newest
		if r.newest != nil {
			r.newest.newer = pm
		} else {
			r.oldest = pm
		}
		r.newest = pm
	} else if h.Total != pm.header.Total || h.WorkloadID != pm.header.WorkloadID ||
		h.PayloadLen != pm.header.PayloadLen || fragLen != pm.fragLen {
		return msg, nil, false, fmt.Errorf("%w: request %d", ErrInconsistentFragment, h.RequestID)
	}
	word, bit := h.Seq/64, uint64(1)<<(h.Seq%64)
	if pm.got[word]&bit != 0 {
		return msg, nil, false, nil // duplicate
	}
	off := int(h.Seq) * fragLen
	if !pm.reserve(off+len(payload), pooled) {
		return msg, nil, false, fmt.Errorf("%w: request %d seq %d", ErrFragmentAhead, h.RequestID, h.Seq)
	}
	copy(pm.buf[off:], payload)
	pm.got[word] |= bit
	pm.have++
	if pm.have < int(pm.header.Total) {
		return msg, nil, false, nil
	}
	msg = Message{Header: pm.header, Payload: pm.buf}
	msg.Header.Seq = 0
	pb = pm.pb
	pm.pb = nil
	r.discard(pm)
	return msg, pb, true, nil
}

// received is the payload bytes placed so far, to within the short last
// fragment.
func (pm *partialMessage) received() int { return pm.have * pm.fragLen }

// reserve makes buf reach end, the end offset of a fragment about to be
// placed, and reports whether it may. A message of at most
// wholeMsgLimit bytes gets its whole buffer at once (pooled on request);
// a larger one starts there and at least doubles each time it grows, so
// the bytes committed stay under 2·wholeMsgLimit + 4·(bytes received).
func (pm *partialMessage) reserve(end int, pooled bool) bool {
	if end <= len(pm.buf) {
		return true
	}
	size := int(pm.header.PayloadLen)
	switch {
	case size <= wholeMsgLimit && pooled:
		pm.pb = msgBufPool.Get().(*[]byte)
		pm.buf = (*pm.pb)[:size]
	case size <= wholeMsgLimit:
		pm.buf = make([]byte, size)
	case end > wholeMsgLimit+2*pm.received():
		return false
	default:
		grown := make([]byte, min(size, max(end, 2*len(pm.buf), wholeMsgLimit)))
		copy(grown, pm.buf)
		pm.buf = grown
	}
	return true
}

// discard forgets a partial message and recycles its state; a pooled
// buffer it still holds goes back to the pool.
func (r *Reassembler) discard(pm *partialMessage) {
	delete(r.partial, pm.key)
	if pm.older != nil {
		pm.older.newer = pm.newer
	} else {
		r.oldest = pm.newer
	}
	if pm.newer != nil {
		pm.newer.older = pm.older
	} else {
		r.newest = pm.older
	}
	putMsgBuf(pm.pb)
	*pm = partialMessage{got: pm.got[:0]}
	partialPool.Put(pm)
}

// Pending returns the number of incomplete messages held.
func (r *Reassembler) Pending() int { return len(r.partial) }

// Evictions returns how many partial messages MaxPending has pushed out.
func (r *Reassembler) Evictions() uint64 { return r.evictions }
