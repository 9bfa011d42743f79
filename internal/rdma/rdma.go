// Package rdma simulates the RDMA (RoCEv2-style) path λ-NIC uses for
// multi-packet RPCs (paper §4.2.1 D3): the sender writes the message
// payload directly into a registered region of NIC memory; when the
// write completes, a trigger event tells the matching lambda to read
// the data from that location.
//
// The engine provides both the protection-domain semantics (registered
// memory regions with bounds- and key-checked access — the isolation
// the paper requires between lambdas' working sets, §3.1c) and the
// timing model (per-packet DMA cost plus link serialization) used by
// the λ-NIC backend for data-intensive workloads like the image
// transformer.
//
// Beyond the plain Write verb the engine models what makes one-sided
// RDMA actually scale (the SMART techniques):
//
//   - a Read verb, so remote state (the EMEM-resident KV table) can be
//     fetched without invoking a lambda at all;
//   - doorbell batching via queue pairs (QP): PostWrite/PostRead queue
//     work requests in a submission ring and a single RingDoorbell
//     flushes the batch, paying the MMIO doorbell cost once instead of
//     per operation;
//   - bounded outstanding-request windows: each QP caps in-flight
//     operations, deferring the rest until completions retire — the
//     knob behind the SMART-style throughput-vs-window curve.
package rdma

import (
	"errors"
	"fmt"
	"sync/atomic"

	"lambdanic/internal/cluster"
	"lambdanic/internal/sim"
)

// RKey authorizes remote access to one registered region.
type RKey uint32

// Region is a registered memory region (protection domain entry).
// Accesses are checked against size, the registered length; buf backs
// only the bytes something has touched — it grows to cover the highest
// byte written, and the rest of the region reads as zeros — so a large
// staging region costs the host what its traffic uses, not what it
// reserves.
type Region struct {
	key  RKey
	size int
	buf  []byte // len(buf) <= size
	name string
}

// Bytes exposes the region's backing store to its owner (the lambda
// reading RDMA-committed data), all size bytes of it: the owner may
// write anywhere, so the whole region is backed from here on.
func (r *Region) Bytes() []byte {
	r.back(r.size)
	return r.buf
}

// back makes the region's first n bytes real. Growth doubles, capped at
// the registered size, so a region filled front to back is copied a
// logarithmic number of times.
func (r *Region) back(n int) {
	if n <= len(r.buf) {
		return
	}
	if n > cap(r.buf) {
		grown := make([]byte, len(r.buf), max(n, min(2*cap(r.buf), r.size)))
		copy(grown, r.buf)
		r.buf = grown
	}
	// Capacity past len has never been written: it is still zero.
	r.buf = r.buf[:n]
}

// write commits data at offset, backing the bytes it covers.
func (r *Region) write(offset int, data []byte) {
	r.back(offset + len(data))
	copy(r.buf[offset:], data)
}

// read fills dst from the region at offset; bytes never backed are zero.
func (r *Region) read(dst []byte, offset int) {
	n := 0
	if offset < len(r.buf) {
		n = copy(dst, r.buf[offset:])
	}
	clear(dst[n:])
}

// Key returns the region's remote key.
func (r *Region) Key() RKey { return r.key }

// Engine errors.
var (
	ErrBadKey       = errors.New("rdma: unknown or revoked rkey")
	ErrAccessDenied = errors.New("rdma: access outside registered region")
)

// Config tunes the engine's timing model.
type Config struct {
	Link cluster.LinkConfig
	// PerPacketDMA is the NIC-side DMA engine cost per wire packet.
	PerPacketDMA sim.Time
	// MTU is the wire packet payload size.
	MTU int
	// DoorbellCost is the MMIO cost of ringing a doorbell. It is paid
	// once per doorbell (so a batched flush amortizes it across the
	// batch) before the first operation reaches the link. Zero (the
	// default) preserves the original cost model, where doorbells are
	// free and only serialization + DMA are charged.
	DoorbellCost sim.Time
}

// Counters is a snapshot of the engine's monotonic counters. Loads are
// atomic, so a snapshot may be taken from any goroutine (the monitor
// registry scrapes at render time) while the simulation runs.
type Counters struct {
	Writes       uint64 // completed-or-issued write verbs
	Reads        uint64 // completed-or-issued read verbs
	BytesWritten uint64
	BytesRead    uint64
	Violations   uint64 // bad-rkey or out-of-bounds accesses
	Doorbells    uint64 // doorbell rings (one per unbatched verb)
	BatchedOps   uint64 // operations flushed through QP doorbells
	WindowStalls uint64 // operations deferred by a full QP window
}

// Engine is a simulated RDMA NIC engine: registration, key-checked
// one-sided reads and writes, doorbell-batched queue pairs, and
// completion events on the simulation clock.
type Engine struct {
	sim     *sim.Sim
	cfg     Config
	regions map[RKey]*Region
	nextKey RKey

	// staging holds the submit-time payload copies not in flight. The
	// engine runs on the simulation goroutine, so the list needs no lock
	// and, unlike a sync.Pool, keeps its buffers across collections.
	staging [][]byte

	// linkFreeAt serializes transfers on the shared 10 G link:
	// concurrent operations queue behind each other's serialization
	// time, so bulk-transfer throughput is bandwidth-bound.
	linkFreeAt sim.Time

	// Stats. Atomics: written from the simulation goroutine, read by
	// monitor scrape-time CounterFuncs on the HTTP serving goroutine.
	writes       atomic.Uint64
	reads        atomic.Uint64
	bytesWritten atomic.Uint64
	bytesRead    atomic.Uint64
	violations   atomic.Uint64
	doorbells    atomic.Uint64
	batchedOps   atomic.Uint64
	windowStalls atomic.Uint64
}

// New constructs an engine bound to the simulation.
func New(s *sim.Sim, cfg Config) *Engine {
	if cfg.MTU <= 0 {
		cfg.MTU = 1400
	}
	return &Engine{sim: s, cfg: cfg, regions: make(map[RKey]*Region), nextKey: 1}
}

// Register registers a zero-filled region of the given size, returning
// it and its remote key. Host memory is spent on first touch (see
// Region), not here.
func (e *Engine) Register(name string, size int) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("rdma: invalid region size %d", size)
	}
	return e.register(name, size, nil), nil
}

// RegisterBuffer registers caller-owned memory as a region without
// copying — how the KV store exposes its EMEM-resident table for
// one-sided GETs. The caller keeps writing the buffer; remote reads
// observe whatever bytes are there at completion time.
func (e *Engine) RegisterBuffer(name string, buf []byte) (*Region, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("rdma: invalid region size %d", len(buf))
	}
	return e.register(name, len(buf), buf), nil
}

func (e *Engine) register(name string, size int, buf []byte) *Region {
	r := &Region{key: e.nextKey, size: size, buf: buf, name: name}
	e.nextKey++
	e.regions[r.key] = r
	return r
}

// getStaging returns an n-byte buffer for a submit-time payload copy,
// reusing the most recently returned one when it is large enough.
func (e *Engine) getStaging(n int) []byte {
	if last := len(e.staging) - 1; last >= 0 {
		b := e.staging[last]
		e.staging = e.staging[:last]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func (e *Engine) putStaging(b []byte) { e.staging = append(e.staging, b) }

// Write performs an RDMA write of data into the region identified by
// key at the given offset, invoking done (in virtual time) when the
// last packet has been committed — the event that triggers the lambda
// (D3). The transfer cost is link serialization plus per-packet DMA
// (plus the doorbell cost, when configured: a bare Write rings its own
// doorbell).
//
// The payload is copied when Write returns, so the caller may
// immediately reuse data — e.g. return it to a sync.Pool — without
// corrupting the committed bytes.
func (e *Engine) Write(key RKey, offset int, data []byte, done func(error)) {
	region := e.post(key, offset, len(data), done)
	if region == nil {
		return
	}
	// Copy at submit time: the completion fires later in virtual time
	// and the caller's buffer (often pooled) may be reused by then.
	staging := e.getStaging(len(data))
	copy(staging, data)
	e.issueWrite(region, offset, staging, e.sim.Now()+e.cfg.DoorbellCost, done)
}

// Commit is Write for a payload the NIC consumes where it lies: the same
// access check, counters, link time and completion, but no byte moves
// and the region is never backed. The caller keeps the n bytes valid
// until done has run.
func (e *Engine) Commit(key RKey, offset, n int, done func(error)) {
	if e.post(key, offset, n, done) == nil {
		return
	}
	e.issue(n, e.sim.Now()+e.cfg.DoorbellCost, func() {
		if done != nil {
			done(nil)
		}
	})
}

// post checks an n-byte write and rings its doorbell. A failed check
// completes done with the access error at once and returns nil.
func (e *Engine) post(key RKey, offset, n int, done func(error)) *Region {
	region, ok := e.check(key, offset, n)
	if !ok {
		if done != nil {
			done(e.accessErr(key, offset, n))
		}
		return nil
	}
	e.doorbells.Add(1)
	return region
}

// Read performs a one-sided RDMA read of length bytes from the region
// identified by key at the given offset. done receives the bytes as
// they stood at completion time; the slice is pooled and valid only
// for the duration of the callback. The cost is a request hop, link
// serialization of the response payload, the return hop, and per-packet
// DMA on the NIC fetching the bytes from EMEM — no lambda is invoked.
func (e *Engine) Read(key RKey, offset, length int, done func([]byte, error)) {
	region, ok := e.check(key, offset, length)
	if !ok {
		if done != nil {
			done(nil, e.accessErr(key, offset, length))
		}
		return
	}
	e.doorbells.Add(1)
	e.issueRead(region, offset, length, e.sim.Now()+e.cfg.DoorbellCost, done)
}

// check validates an access, charging a violation on failure.
func (e *Engine) check(key RKey, offset, length int) (*Region, bool) {
	region, ok := e.regions[key]
	if !ok || offset < 0 || offset+length > region.size {
		e.violations.Add(1)
		return nil, false
	}
	return region, true
}

func (e *Engine) accessErr(key RKey, offset, length int) error {
	region, ok := e.regions[key]
	if !ok {
		return fmt.Errorf("%w: %d", ErrBadKey, key)
	}
	return fmt.Errorf("%w: [%d:%d) of %d", ErrAccessDenied, offset, offset+length, region.size)
}

// issue puts a validated n-byte write on the link no earlier than `at`
// and runs complete when its last byte has been committed: the one
// timing path under Write, Commit and QP writes.
func (e *Engine) issue(n int, at sim.Time, complete func()) {
	e.writes.Add(1)
	e.bytesWritten.Add(uint64(n))
	e.sim.At(e.linkTime(n, at), complete)
}

// issueWrite is issue for a staged payload: the completion copies it
// into the region and recycles the staging buffer, which the engine
// owns.
func (e *Engine) issueWrite(region *Region, offset int, staging []byte, at sim.Time, done func(error)) {
	e.issue(len(staging), at, func() {
		region.write(offset, staging)
		e.putStaging(staging)
		if done != nil {
			done(nil)
		}
	})
}

// issueRead puts a validated read on the link no earlier than `at`.
// The extra WireLatency+SwitchLatency models the request hop of the
// round trip; the response payload pays serialization + DMA like a
// write in the opposite direction.
func (e *Engine) issueRead(region *Region, offset, length int, at sim.Time, done func([]byte, error)) sim.Time {
	doneAt := e.linkTime(length, at) + e.cfg.Link.WireLatency + e.cfg.Link.SwitchLatency
	e.reads.Add(1)
	e.bytesRead.Add(uint64(length))
	e.sim.At(doneAt, func() {
		if done == nil {
			return
		}
		staging := e.getStaging(length)
		region.read(staging, offset)
		done(staging, nil)
		e.putStaging(staging)
	})
	return doneAt
}

// linkTime claims the shared link for an n-byte payload starting no
// earlier than `at` and returns the time the last byte has been
// serialized, propagated through the switch, and DMA-committed.
func (e *Engine) linkTime(n int, at sim.Time) sim.Time {
	ser := e.cfg.Link.Serialization(n)
	start := at
	if now := e.sim.Now(); start < now {
		start = now
	}
	if e.linkFreeAt > start {
		start = e.linkFreeAt
	}
	e.linkFreeAt = start + ser
	return start + ser + e.cfg.Link.WireLatency + e.cfg.Link.SwitchLatency +
		sim.Time(e.Packets(n))*e.cfg.PerPacketDMA
}

// Packets returns the wire packet count for a payload under the
// engine's MTU — the value the NIC charges reordering for.
func (e *Engine) Packets(payloadBytes int) int {
	if payloadBytes <= 0 {
		return 1
	}
	return (payloadBytes + e.cfg.MTU - 1) / e.cfg.MTU
}

// Counters returns a snapshot of the engine's counters.
func (e *Engine) Counters() Counters {
	return Counters{
		Writes:       e.writes.Load(),
		Reads:        e.reads.Load(),
		BytesWritten: e.bytesWritten.Load(),
		BytesRead:    e.bytesRead.Load(),
		Violations:   e.violations.Load(),
		Doorbells:    e.doorbells.Load(),
		BatchedOps:   e.batchedOps.Load(),
		WindowStalls: e.windowStalls.Load(),
	}
}
