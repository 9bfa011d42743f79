package wfq

import "fmt"

// Hierarchical is two-level weighted fair queuing for multi-tenant
// NICs: an outer WFQ across tenants (weighted by tenant class) picks
// which tenant is served next, then that tenant's inner WFQ across its
// lambda flows picks the request. Inter-tenant fairness is therefore
// governed only by tenant weights — a tenant flooding many lambda
// flows gains no extra share, which is the isolation property flat
// per-lambda WFQ lacks.
//
// The outer queue holds one token per queued item, stamped with the
// same size, so outer virtual time advances with the tenant's actual
// service demand; its heap holds one entry per backlogged tenant, the
// inner one per backlogged lambda. Not safe for concurrent use.
type Hierarchical struct {
	outer  *Scheduler            // flows = tenant IDs, items = tokens
	inner  map[uint32]*Scheduler // tenant ID -> per-lambda queue
	flowW  float64               // default weight for inner lambda flows
	tokens []*Item               // free list of outer token items
}

// NewHierarchical builds a hierarchical scheduler. defaultTenantWeight
// applies to tenants without an explicit SetTenantWeight; flowWeight
// is the default weight for lambda flows inside each tenant.
func NewHierarchical(defaultTenantWeight, flowWeight float64) (*Hierarchical, error) {
	outer, err := New(defaultTenantWeight)
	if err != nil {
		return nil, err
	}
	if flowWeight <= 0 {
		return nil, fmt.Errorf("wfq: flow weight %v must be positive", flowWeight)
	}
	return &Hierarchical{
		outer: outer,
		inner: make(map[uint32]*Scheduler),
		flowW: flowWeight,
	}, nil
}

// SetTenantWeight assigns a tenant's outer-queue weight.
func (h *Hierarchical) SetTenantWeight(tenant uint32, w float64) error {
	return h.outer.SetWeight(tenant, w)
}

// Enqueue queues an item (Flow = lambda ID) under the given tenant.
func (h *Hierarchical) Enqueue(tenant uint32, it *Item) {
	q, ok := h.inner[tenant]
	if !ok {
		q, _ = New(h.flowW)
		h.inner[tenant] = q
	}
	q.Enqueue(it)
	// Mirror the demand into the outer queue as a token so tenant
	// virtual time advances by served bytes, not served packets.
	var tok *Item
	if n := len(h.tokens); n > 0 {
		tok = h.tokens[n-1]
		h.tokens = h.tokens[:n-1]
	} else {
		tok = &Item{}
	}
	tok.Flow = tenant
	tok.Size = it.Size
	tok.Payload = nil
	h.outer.Enqueue(tok)
}

// Dequeue serves the next item: the outer queue picks the tenant, the
// tenant's inner queue picks the lambda request. Returns nil when
// empty.
func (h *Hierarchical) Dequeue() *Item {
	tok := h.outer.Dequeue()
	if tok == nil {
		return nil
	}
	tenant := tok.Flow
	h.tokens = append(h.tokens, tok)
	q := h.inner[tenant]
	if q == nil {
		// Invariant violated: a token always has a backing item.
		panic(fmt.Sprintf("wfq: outer token for tenant %d with no inner queue", tenant))
	}
	it := q.Dequeue()
	if it == nil {
		panic(fmt.Sprintf("wfq: outer token for tenant %d with empty inner queue", tenant))
	}
	return it
}

// Len returns the total number of queued items.
func (h *Hierarchical) Len() int { return h.outer.Len() }
