package wfq

import "testing"

func BenchmarkEnqueueDequeue(b *testing.B) {
	s, err := New(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Enqueue(&Item{Flow: uint32(i % 8), Size: 100})
		if s.Len() > 1024 {
			for s.Dequeue() != nil {
			}
		}
	}
}

func BenchmarkSaturated8Flows(b *testing.B) {
	s, err := New(1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		s.Enqueue(&Item{Flow: uint32(i % 8), Size: 100})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := s.Dequeue()
		if it == nil {
			b.Fatal("empty")
		}
		s.Enqueue(&Item{Flow: it.Flow, Size: 100})
	}
}

// BenchmarkHierarchicalTwoTenants is the tenants experiment's shape on
// one NIC: two tenants weighted 8 and 1 with one lambda each and 512
// requests queued; each op serves one and queues it again.
func BenchmarkHierarchicalTwoTenants(b *testing.B) {
	h, err := NewHierarchical(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := h.SetTenantWeight(1, 8); err != nil {
		b.Fatal(err)
	}
	tenantOf := func(flow uint32) uint32 { return flow - 10 }
	for i := 0; i < 512; i++ {
		flow := uint32(10 + i%2)
		h.Enqueue(tenantOf(flow), &Item{Flow: flow, Size: 100})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := h.Dequeue()
		h.Enqueue(tenantOf(it.Flow), it)
	}
}
