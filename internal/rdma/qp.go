package rdma

import "lambdanic/internal/sim"

// workReq is one posted-but-not-yet-completed operation on a QP.
type workReq struct {
	read    bool
	key     RKey
	offset  int
	length  int    // read length
	staging []byte // write payload, copied at post time
	doneW   func(error)
	doneR   func([]byte, error)
}

// QP is a queue pair: a submission ring that accumulates work requests
// until a doorbell flushes them, plus a bounded outstanding-request
// window. Posting is free in virtual time (the host writes a WQE into
// host memory); RingDoorbell pays the MMIO doorbell cost once for the
// whole batch — the SMART doorbell-batching optimization — and then
// issues operations subject to the window: at most `window` operations
// are in flight at once, the rest wait for completions to retire and
// are counted as window stalls.
//
// A window of 0 means unlimited (every flushed operation issues
// immediately, back-to-back on the shared link).
type QP struct {
	e      *Engine
	window int

	ring        []workReq // posted, awaiting a doorbell
	pending     []workReq // doorbelled, awaiting a window slot
	outstanding int
}

// NewQP creates a queue pair with the given outstanding-request
// window (0 = unlimited).
func (e *Engine) NewQP(window int) *QP {
	if window < 0 {
		window = 0
	}
	return &QP{e: e, window: window}
}

// Posted returns the number of work requests in the submission ring
// waiting for a doorbell.
func (q *QP) Posted() int { return len(q.ring) }

// Outstanding returns the number of in-flight operations.
func (q *QP) Outstanding() int { return q.outstanding }

// PostWrite queues a write work request. The payload is copied now, so
// the caller may reuse data immediately. Nothing is issued until
// RingDoorbell.
func (q *QP) PostWrite(key RKey, offset int, data []byte, done func(error)) {
	staging := q.e.getStaging(len(data))
	copy(staging, data)
	q.ring = append(q.ring, workReq{key: key, offset: offset, staging: staging, doneW: done})
}

// PostRead queues a read work request. done receives pooled bytes
// valid only during the callback. Nothing is issued until RingDoorbell.
func (q *QP) PostRead(key RKey, offset, length int, done func([]byte, error)) {
	q.ring = append(q.ring, workReq{read: true, key: key, offset: offset, length: length, doneR: done})
}

// RingDoorbell flushes the submission ring: one doorbell (one MMIO
// charge) covers every posted request. Requests beyond the window are
// deferred until earlier ones complete, each deferral counted as a
// window stall.
func (q *QP) RingDoorbell() {
	if len(q.ring) == 0 {
		return
	}
	q.e.doorbells.Add(1)
	q.e.batchedOps.Add(uint64(len(q.ring)))
	q.pending = append(q.pending, q.ring...)
	q.ring = q.ring[:0]
	q.drain(q.e.sim.Now() + q.e.cfg.DoorbellCost)
	if len(q.pending) > 0 {
		q.e.windowStalls.Add(uint64(len(q.pending)))
	}
}

// drain issues pending operations while the window has room. `at` is
// the earliest the first issued operation may touch the link.
func (q *QP) drain(at sim.Time) {
	for len(q.pending) > 0 && (q.window == 0 || q.outstanding < q.window) {
		wr := q.pending[0]
		// Shift rather than re-slice so retired entries don't pin
		// staging buffers via the backing array.
		copy(q.pending, q.pending[1:])
		q.pending = q.pending[:len(q.pending)-1]
		q.issue(wr, at)
	}
}

// issue validates and launches one work request. Faulted requests
// complete immediately and never occupy a window slot.
func (q *QP) issue(wr workReq, at sim.Time) {
	if wr.read {
		region, ok := q.e.check(wr.key, wr.offset, wr.length)
		if !ok {
			if wr.doneR != nil {
				wr.doneR(nil, q.e.accessErr(wr.key, wr.offset, wr.length))
			}
			return
		}
		q.outstanding++
		q.e.issueRead(region, wr.offset, wr.length, at, func(b []byte, err error) {
			if wr.doneR != nil {
				wr.doneR(b, err)
			}
			q.retire()
		})
		return
	}
	region, ok := q.e.check(wr.key, wr.offset, len(wr.staging))
	if !ok {
		err := q.e.accessErr(wr.key, wr.offset, len(wr.staging))
		q.e.putStaging(wr.staging)
		if wr.doneW != nil {
			wr.doneW(err)
		}
		return
	}
	q.outstanding++
	q.e.issueWrite(region, wr.offset, wr.staging, at, func(err error) {
		if wr.doneW != nil {
			wr.doneW(err)
		}
		q.retire()
	})
}

// retire frees a window slot at a completion and issues the next
// deferred request, if any, at the current virtual time (the doorbell
// for it was already rung).
func (q *QP) retire() {
	q.outstanding--
	q.drain(q.e.sim.Now())
}
