package sim

import (
	"math/bits"
	"time"
)

// Ladder-queue defaults: 8192 buckets of 128ns cover a sliding ~1.05ms
// near-future window — wide enough that NIC service times, WFQ rounds,
// and wire/RDMA delays (hundreds of ns to tens of µs) all land in the
// O(1) band, while slow control traffic (heartbeats, detector sweeps)
// overflows to the far-band heap.
const (
	defaultGranularity = 128 * time.Nanosecond
	defaultBuckets     = 8192
)

// ladder is the default event kernel: a two-band ladder queue.
//
// Near band: a timer wheel of nb buckets, each gran wide in virtual
// time. An entry at time t belongs to virtual bucket vb = t/gran; the
// wheel stores vb modulo nb. The invariant that makes the modulo safe
// is that the wheel only ever holds vbs in the half-open window
// [curVB, curVB+nb): exactly nb consecutive virtual buckets, so every
// wheel index maps to at most one live vb. Entries beyond the window
// go to the far band, a plain binary heap.
//
// Buckets are unsorted append-only slices — push is O(1). Order is
// recovered lazily: when the earliest non-empty bucket becomes current
// it is sorted once by (at, seq) and drained in place (cur/curIdx).
// Entries pushed into the currently-draining bucket are inserted into
// its undrained tail by binary search, and far-band entries that mature
// into the current bucket are merged at materialization time — so the
// (at, seq) total order is exactly the heap kernel's.
//
// The only rewind — a push below curVB, possible after a horizon stop
// advanced the window past still-pending far entries — is handled by
// the rare dump() path: everything moves to the far heap and the window
// restarts at the pushed entry's bucket.
//
// All storage is value-typed slices reused across buckets, so
// steady-state push/first/shift does not allocate.
type ladder struct {
	gran      Time
	granShift uint   // log2(gran): vb = at >> granShift
	nb        uint64 // bucket count, power of two
	mask      uint64 // nb - 1

	buckets [][]entry
	near    int // entries in the wheel, including cur's undrained tail

	// cur is the materialized current bucket (nil when none), sorted by
	// (at, seq) and drained via curIdx. curVB is the virtual bucket cur
	// holds while draining, or the window floor for the next scan.
	cur    []entry
	curIdx int
	curVB  uint64

	far heapKernel
}

func newLadder(gran Time, nb int) *ladder {
	if gran <= 0 || gran&(gran-1) != 0 {
		panic("sim: ladder granularity must be a power of two")
	}
	if nb <= 0 || nb&(nb-1) != 0 {
		panic("sim: ladder bucket count must be a power of two")
	}
	return &ladder{
		gran:      gran,
		granShift: uint(bits.TrailingZeros64(uint64(gran))),
		nb:        uint64(nb),
		mask:      uint64(nb) - 1,
		buckets:   make([][]entry, nb),
	}
}

func (l *ladder) vbOf(at Time) uint64 { return uint64(at) >> l.granShift }

func (l *ladder) push(e entry) {
	v := l.vbOf(e.at)
	if l.cur != nil && v == l.curVB {
		l.insertCur(e)
		l.near++
		return
	}
	if v < l.curVB {
		// Rewind: the window advanced past this time (horizon stop plus
		// a far-band materialization jump). Rare — reset via the heap.
		l.dump()
		l.curVB = v
	}
	if v < l.curVB+l.nb {
		idx := v & l.mask
		l.buckets[idx] = append(l.buckets[idx], e)
		l.near++
		return
	}
	l.far.push(e)
}

// insertCur places e into the undrained tail of the current bucket,
// keeping it sorted by (at, seq). e usually carries the highest seq
// issued so far; an AtEach run re-arming carries a reserved, lower one.
func (l *ladder) insertCur(e entry) {
	lo, hi := l.curIdx, len(l.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.before(l.cur[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	l.cur = append(l.cur, entry{})
	copy(l.cur[lo+1:], l.cur[lo:])
	l.cur[lo] = e
}

func (l *ladder) first() (entry, bool) {
	for {
		if l.cur != nil {
			if l.curIdx < len(l.cur) {
				return l.cur[l.curIdx], true
			}
			// Bucket drained: return the (possibly grown) backing array
			// to the wheel slot and move the window floor past it.
			l.buckets[l.curVB&l.mask] = l.cur[:0]
			l.cur = nil
			l.curVB++
			continue
		}
		if l.near == 0 && l.far.len() == 0 {
			return entry{}, false
		}

		// Find the earliest non-empty virtual bucket: scan the wheel
		// from the window floor, bounded by the far band's top (no
		// point scanning past a band that fires sooner).
		var candVB uint64
		haveFar := l.far.len() > 0
		var farVB uint64
		if haveFar {
			farVB = l.vbOf(l.far.h[0].at)
		}
		if l.near > 0 {
			bound := l.curVB + l.nb - 1
			if haveFar && farVB < bound {
				bound = farVB
			}
			found := false
			for v := l.curVB; v <= bound; v++ {
				if len(l.buckets[v&l.mask]) > 0 {
					candVB = v
					found = true
					break
				}
			}
			if !found {
				// The wheel's earliest bucket lies beyond farVB; the
				// far band fires first. (farVB is inside the window
				// here, and its wheel slot was scanned empty.)
				candVB = farVB
			}
		} else {
			candVB = farVB
		}

		// Materialize candVB: adopt its wheel slice, merge far-band
		// entries that mature inside it, sort once, drain in place.
		idx := candVB & l.mask
		b := l.buckets[idx]
		l.buckets[idx] = b[:0]
		l.cur = b
		l.curIdx = 0
		l.curVB = candVB
		lim := Time((candVB + 1) << l.granShift)
		for l.far.len() > 0 && l.far.h[0].at < lim {
			l.cur = append(l.cur, l.far.h[0])
			l.far.shift()
			l.near++
		}
		sortEntries(l.cur)
	}
}

// shift consumes the entry first() returned — always the head of the
// materialized current bucket.
func (l *ladder) shift() {
	l.cur[l.curIdx] = entry{} // release the *Event reference
	l.curIdx++
	l.near--
}

// dump moves every wheel entry (all buckets plus the undrained tail of
// cur) into the far heap, emptying the near band so the window can be
// re-anchored. Rare: only the rewind path in push uses it.
func (l *ladder) dump() {
	for i := range l.buckets {
		for _, e := range l.buckets[i] {
			l.far.push(e)
		}
		l.buckets[i] = l.buckets[i][:0]
	}
	if l.cur != nil {
		for _, e := range l.cur[l.curIdx:] {
			l.far.push(e)
		}
		l.buckets[l.curVB&l.mask] = l.cur[:0]
		l.cur = nil
	}
	l.near = 0
}

// sortEntries orders a bucket by (at, seq) in place without allocating:
// insertion sort for the typical small bucket, heapsort beyond that.
// (at, seq) pairs are unique, so any comparison sort yields the same
// deterministic order.
func sortEntries(s []entry) {
	n := len(s)
	if n < 2 {
		return
	}
	if n <= 24 {
		for i := 1; i < n; i++ {
			e := s[i]
			j := i - 1
			for j >= 0 && e.before(s[j]) {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = e
		}
		return
	}
	// Heapsort: build a max-heap (reverse order), then pop to the tail.
	for i := n/2 - 1; i >= 0; i-- {
		siftDownMax(s, i, n)
	}
	for end := n - 1; end > 0; end-- {
		s[0], s[end] = s[end], s[0]
		siftDownMax(s, 0, end)
	}
}

func siftDownMax(s []entry, i, n int) {
	e := s[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[c].before(s[r]) {
			c = r
		}
		if !e.before(s[c]) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = e
}
