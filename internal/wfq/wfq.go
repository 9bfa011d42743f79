// Package wfq implements weighted fair queuing, the policy λ-NIC uses
// to route requests between lambda threads (paper §4.2.1, D1).
//
// The implementation follows the classic virtual-finish-time WFQ
// formulation (Parekh & Gallager [84] in the paper's references): each
// flow f has a weight w_f; a packet of size L arriving on f is stamped
// with finish time F = max(V, F_prev(f)) + L/w_f where V is the current
// virtual time; packets are served in increasing finish-time order. With
// equal weights this degrades to fair round-robin; with unequal weights
// each backlogged flow receives service proportional to its weight.
//
// Each flow queues its packets in a FIFO, and a binary heap orders the
// backlogged flows by their head's (finish, arrival) stamp. Within a
// flow stamps never decrease and arrivals only increase, so the least
// head is the least packet: the order is that of one heap over every
// packet, at O(log flows) per packet instead of O(log packets).
package wfq

import "fmt"

// Item is a queued unit of work — in λ-NIC, one request destined for a
// lambda.
type Item struct {
	// Flow identifies the queue (lambda ID in λ-NIC).
	Flow uint32
	// Size is the service demand used for fairness accounting; any
	// consistent unit works (bytes, estimated cycles).
	Size uint64
	// Payload is the opaque work item.
	Payload any

	finish float64
	seq    uint64
}

// flow is one flow's weight, the finish stamp of its last enqueued
// item, and its FIFO of queued items: a ring of n items from ring[head],
// which grows only when full, so its backing array is reused.
type flow struct {
	w, last float64
	ring    []*Item
	head, n int
}

// Scheduler is a weighted fair queue. The zero value is not usable;
// construct with New. Scheduler is not safe for concurrent use.
type Scheduler struct {
	flows    map[uint32]*flow
	backlog  []*flow // heap of flows with queued items, by head item
	virtual  float64
	seq      uint64
	n        int
	defaultW float64
}

// New returns a scheduler whose flows default to the given weight.
// defaultWeight must be positive.
func New(defaultWeight float64) (*Scheduler, error) {
	if defaultWeight <= 0 {
		return nil, fmt.Errorf("wfq: default weight %v must be positive", defaultWeight)
	}
	return &Scheduler{flows: make(map[uint32]*flow), defaultW: defaultWeight}, nil
}

// SetWeight assigns a weight to a flow. Weights must be positive.
func (s *Scheduler) SetWeight(flow uint32, w float64) error {
	if w <= 0 {
		return fmt.Errorf("wfq: weight %v for flow %d must be positive", w, flow)
	}
	s.flowOf(flow).w = w
	return nil
}

func (s *Scheduler) flowOf(id uint32) *flow {
	f := s.flows[id]
	if f == nil {
		f = &flow{w: s.defaultW}
		s.flows[id] = f
	}
	return f
}

// Enqueue adds an item, stamping its virtual finish time.
func (s *Scheduler) Enqueue(it *Item) {
	f := s.flowOf(it.Flow)
	start := s.virtual
	if f.last > start {
		start = f.last
	}
	size := it.Size
	if size == 0 {
		size = 1 // zero-size items still need a strictly increasing stamp
	}
	it.finish = start + float64(size)/f.w
	it.seq = s.seq
	s.seq++
	f.last = it.finish
	s.n++
	if f.n == len(f.ring) {
		grown := make([]*Item, max(4, 2*f.n))
		k := copy(grown, f.ring[f.head:])
		copy(grown[k:], f.ring[:f.head])
		f.ring, f.head = grown, 0
	}
	f.ring[(f.head+f.n)%len(f.ring)] = it
	if f.n++; f.n == 1 {
		s.backlog = append(s.backlog, f)
		s.up(len(s.backlog) - 1)
	}
}

// Dequeue removes and returns the item with the smallest virtual finish
// time, or nil if the scheduler is empty. Virtual time advances to the
// served item's finish time.
func (s *Scheduler) Dequeue() *Item {
	if len(s.backlog) == 0 {
		return nil
	}
	f := s.backlog[0]
	it := f.ring[f.head]
	f.ring[f.head] = nil
	f.head = (f.head + 1) % len(f.ring)
	if f.n--; f.n == 0 {
		last := len(s.backlog) - 1
		s.backlog[0] = s.backlog[last]
		s.backlog[last] = nil
		s.backlog = s.backlog[:last]
	}
	s.down(0)
	s.n--
	if it.finish > s.virtual {
		s.virtual = it.finish
	}
	return it
}

// Len returns the number of queued items.
func (s *Scheduler) Len() int { return s.n }

// less orders backlogged flows by their head items' finish times, ties
// by arrival.
func (s *Scheduler) less(i, j int) bool {
	a, b := s.backlog[i], s.backlog[j]
	x, y := a.ring[a.head], b.ring[b.head]
	if x.finish != y.finish {
		return x.finish < y.finish
	}
	return x.seq < y.seq
}

func (s *Scheduler) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			return
		}
		s.backlog[i], s.backlog[p] = s.backlog[p], s.backlog[i]
		i = p
	}
}

func (s *Scheduler) down(i int) {
	n := len(s.backlog)
	for {
		m := i
		if l := 2*i + 1; l < n && s.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < n && s.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		s.backlog[i], s.backlog[m] = s.backlog[m], s.backlog[i]
		i = m
	}
}
