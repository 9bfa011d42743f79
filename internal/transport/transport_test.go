package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"lambdanic/internal/matchlambda"
)

func reqHeader(id uint64, wid uint32) matchlambda.WireHeader {
	return matchlambda.WireHeader{Version: matchlambda.Version1, WorkloadID: wid, RequestID: id}
}

func TestFragmentSinglePacket(t *testing.T) {
	pkts, err := Fragment(reqHeader(1, 7), []byte("hello"), DefaultMTU)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 1 {
		t.Fatalf("packets = %d, want 1", len(pkts))
	}
	h, payload, err := matchlambda.DecodeWireHeader(pkts[0])
	if err != nil {
		t.Fatal(err)
	}
	if h.Total != 1 || h.Seq != 0 || h.PayloadLen != 5 || string(payload) != "hello" {
		t.Errorf("header %+v payload %q", h, payload)
	}
}

func TestFragmentEmptyPayload(t *testing.T) {
	pkts, err := Fragment(reqHeader(1, 7), nil, DefaultMTU)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 1 {
		t.Fatalf("packets = %d, want 1 (empty message still needs a packet)", len(pkts))
	}
}

func TestFragmentInvalidMTU(t *testing.T) {
	if _, err := Fragment(reqHeader(1, 1), []byte("x"), 0); !errors.Is(err, ErrInvalidMTU) {
		t.Errorf("err = %v", err)
	}
}

func TestFragmentTooMany(t *testing.T) {
	if _, err := Fragment(reqHeader(1, 1), make([]byte, 70000), 1); !errors.Is(err, ErrTooManyFragments) {
		t.Errorf("err = %v", err)
	}
}

func TestReassembleInOrder(t *testing.T) {
	payload := bytes.Repeat([]byte("abcdefgh"), 100) // 800 bytes
	pkts, err := Fragment(reqHeader(42, 9), payload, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 7 {
		t.Fatalf("packets = %d, want 7", len(pkts))
	}
	r := NewReassembler()
	var got *Message
	for _, pkt := range pkts {
		m, err := r.Add(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if m != nil {
			got = m
		}
	}
	if got == nil || !bytes.Equal(got.Payload, payload) {
		t.Fatal("reassembly failed")
	}
	if r.Pending() != 0 {
		t.Errorf("Pending = %d after completion", r.Pending())
	}
}

func TestReassembleOutOfOrderAndDuplicates(t *testing.T) {
	payload := []byte(strings.Repeat("0123456789", 50))
	pkts, err := Fragment(reqHeader(7, 1), payload, 64)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler()
	// Deliver in reverse with every packet duplicated.
	var got *Message
	for i := len(pkts) - 1; i >= 0; i-- {
		for rep := 0; rep < 2; rep++ {
			m, err := r.Add(pkts[i])
			if err != nil {
				t.Fatal(err)
			}
			if m != nil {
				got = m
			}
		}
	}
	if got == nil || !bytes.Equal(got.Payload, payload) {
		t.Fatal("out-of-order reassembly failed")
	}
}

func TestReassemblerPendingLimit(t *testing.T) {
	// One policy at the limit: starting one more partial message evicts
	// the oldest, it does not refuse the newest.
	r := NewReassembler()
	r.MaxPending = 2
	payload := bytes.Repeat([]byte("pending!"), 40) // 320 bytes, 3 fragments
	pkts := make(map[uint64][][]byte)
	for id := uint64(1); id <= 3; id++ {
		var err error
		if pkts[id], err = Fragment(reqHeader(id, 1), payload, 128); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Add(pkts[id][0]); err != nil {
			t.Fatalf("id %d: %v", id, err)
		}
	}
	if r.Pending() != 2 || r.Evictions() != 1 {
		t.Fatalf("Pending = %d, Evictions = %d after 3 first fragments, want 2 and 1", r.Pending(), r.Evictions())
	}
	// Message 1 was the oldest: its first fragment is gone, so the rest
	// of it starts over (pushing out 2) and stays incomplete.
	for _, pkt := range pkts[1][1:] {
		if m, err := r.Add(pkt); err != nil || m != nil {
			t.Fatalf("evicted message 1: msg %v, err %v", m, err)
		}
	}
	// Message 3 was never evicted and completes.
	var got *Message
	for _, pkt := range pkts[3][1:] {
		m, err := r.Add(pkt)
		if err != nil {
			t.Fatal(err)
		}
		got = m
	}
	if got == nil || !bytes.Equal(got.Payload, payload) {
		t.Fatal("message 3 did not survive the evictions around it")
	}
	if r.Pending() != 1 || r.Evictions() != 2 {
		t.Errorf("Pending = %d, Evictions = %d, want 1 and 2", r.Pending(), r.Evictions())
	}
}

func TestReassembleFragmentRoundTripProperty(t *testing.T) {
	f := func(raw []byte, mtuSeed uint8) bool {
		mtu := int(mtuSeed)%512 + 16
		pkts, err := Fragment(reqHeader(99, 5), raw, mtu)
		if err != nil {
			return false
		}
		r := NewReassembler()
		var got *Message
		for _, p := range pkts {
			m, err := r.Add(p)
			if err != nil {
				return false
			}
			if m != nil {
				got = m
			}
		}
		return got != nil && bytes.Equal(got.Payload, raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// newPair builds a served endpoint and a client endpoint over a memory
// network.
func newPair(t *testing.T, net *MemNetwork, handler Handler, opts ...EndpointOption) (server, client *Endpoint) {
	t.Helper()
	sc, err := net.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	cc, err := net.Listen("client")
	if err != nil {
		t.Fatal(err)
	}
	server = NewEndpoint(sc, handler, opts...)
	client = NewEndpoint(cc, nil, opts...)
	t.Cleanup(func() {
		if err := client.Close(); err != nil {
			t.Errorf("client close: %v", err)
		}
		if err := server.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return server, client
}

func TestEndpointRoundTrip(t *testing.T) {
	n := NewMemNetwork(1)
	_, client := newPair(t, n, func(req *Message) ([]byte, error) {
		return append([]byte("echo:"), req.Payload...), nil
	})
	resp, err := client.Call(context.Background(), MemAddr("server"), 3, []byte("ping"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != "echo:ping" {
		t.Errorf("resp = %q", resp)
	}
}

func TestEndpointHandlerError(t *testing.T) {
	n := NewMemNetwork(1)
	_, client := newPair(t, n, func(req *Message) ([]byte, error) {
		return nil, errors.New("boom")
	})
	_, err := client.Call(context.Background(), MemAddr("server"), 3, []byte("x"))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want remote boom", err)
	}
}

func TestEndpointLargePayloadFragments(t *testing.T) {
	n := NewMemNetwork(1)
	payload := bytes.Repeat([]byte{0xAB}, 100_000)
	_, client := newPair(t, n, func(req *Message) ([]byte, error) {
		sum := 0
		for _, b := range req.Payload {
			sum += int(b)
		}
		return []byte(fmt.Sprintf("%d:%d", len(req.Payload), sum%251)), nil
	})
	resp, err := client.Call(context.Background(), MemAddr("server"), 1, payload)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != fmt.Sprintf("%d:%d", 100_000, (100_000*0xAB)%251) {
		t.Errorf("resp = %q", resp)
	}
}

func TestEndpointRetransmitsThroughLoss(t *testing.T) {
	n := NewMemNetwork(7)
	n.LossRate = 0.4
	var calls atomic.Int32
	_, client := newPair(t, n, func(req *Message) ([]byte, error) {
		calls.Add(1)
		return []byte("ok"), nil
	}, WithTimeout(20*time.Millisecond), WithRetries(30))
	for i := 0; i < 10; i++ {
		resp, err := client.Call(context.Background(), MemAddr("server"), 1, []byte("q"))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if string(resp) != "ok" {
			t.Errorf("resp = %q", resp)
		}
	}
	if client.Retransmits() == 0 {
		t.Error("expected retransmissions under 40% loss")
	}
}

func TestEndpointDuplicateSuppression(t *testing.T) {
	n := NewMemNetwork(3)
	n.DupRate = 1.0 // every packet delivered twice
	var execs atomic.Int32
	server, client := newPair(t, n, func(req *Message) ([]byte, error) {
		execs.Add(1)
		return []byte("once"), nil
	}, WithTimeout(50*time.Millisecond), WithRetries(4))
	if _, err := client.Call(context.Background(), MemAddr("server"), 1, []byte("q")); err != nil {
		t.Fatal(err)
	}
	// Give the duplicate a moment to be processed.
	time.Sleep(20 * time.Millisecond)
	if got := execs.Load(); got != 1 {
		t.Errorf("handler executed %d times, want 1 (duplicates suppressed)", got)
	}
	if server.Duplicates() == 0 {
		t.Error("duplicate counter not incremented")
	}
}

func TestEndpointReordering(t *testing.T) {
	n := NewMemNetwork(11)
	n.ReorderRate = 0.5
	payload := bytes.Repeat([]byte("z"), 50_000)
	_, client := newPair(t, n, func(req *Message) ([]byte, error) {
		if !bytes.Equal(req.Payload, payload) {
			return nil, errors.New("corrupted")
		}
		return []byte("ok"), nil
	}, WithTimeout(100*time.Millisecond), WithRetries(10))
	resp, err := client.Call(context.Background(), MemAddr("server"), 1, payload)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != "ok" {
		t.Errorf("resp = %q", resp)
	}
}

func TestEndpointTimeout(t *testing.T) {
	n := NewMemNetwork(1)
	n.LossRate = 1.0 // black hole
	_, client := newPair(t, n, nil, WithTimeout(5*time.Millisecond), WithRetries(2))
	_, err := client.Call(context.Background(), MemAddr("server"), 1, []byte("q"))
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestEndpointContextCancel(t *testing.T) {
	n := NewMemNetwork(1)
	n.LossRate = 1.0
	_, client := newPair(t, n, nil, WithTimeout(time.Second), WithRetries(5))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := client.Call(ctx, MemAddr("server"), 1, []byte("q"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

func TestEndpointConcurrentCalls(t *testing.T) {
	n := NewMemNetwork(5)
	_, client := newPair(t, n, func(req *Message) ([]byte, error) {
		return req.Payload, nil
	})
	const workers = 20
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			want := fmt.Sprintf("req-%d", i)
			resp, err := client.Call(context.Background(), MemAddr("server"), 1, []byte(want))
			if err == nil && string(resp) != want {
				err = fmt.Errorf("mismatch: %q != %q", resp, want)
			}
			errs <- err
		}(i)
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestMemNetworkAddressInUse(t *testing.T) {
	n := NewMemNetwork(1)
	c, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := n.Listen("a"); err == nil {
		t.Error("duplicate Listen succeeded")
	}
}

func TestMemConnClosedWrites(t *testing.T) {
	n := NewMemNetwork(1)
	c, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteTo([]byte("x"), MemAddr("a")); err == nil {
		t.Error("WriteTo after Close succeeded")
	}
	if _, _, err := c.ReadFrom(make([]byte, 10)); err == nil {
		t.Error("ReadFrom after Close succeeded")
	}
}

func TestIndependentClientsWithCollidingRequestIDs(t *testing.T) {
	// Two separate client endpoints both number their first request 1.
	// The server must not serve client B a response cached for client A
	// (regression: the daemons' first requests collided).
	n := NewMemNetwork(23)
	sc, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	server := NewEndpoint(sc, func(req *Message) ([]byte, error) {
		return append([]byte("echo:"), req.Payload...), nil
	})
	defer server.Close()

	mk := func(name string) *Endpoint {
		conn, err := n.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		ep := NewEndpoint(conn, nil)
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	a, b := mk("clientA"), mk("clientB")
	ctx := context.Background()

	respA, err := a.Call(ctx, MemAddr("server"), 1, []byte("from-A"))
	if err != nil {
		t.Fatal(err)
	}
	respB, err := b.Call(ctx, MemAddr("server"), 1, []byte("from-B"))
	if err != nil {
		t.Fatal(err)
	}
	if string(respA) != "echo:from-A" {
		t.Errorf("client A got %q", respA)
	}
	if string(respB) != "echo:from-B" {
		t.Errorf("client B got %q (cross-client cache hit)", respB)
	}
}

func TestReassemblerSourceIsolation(t *testing.T) {
	// Interleaved multi-packet messages from two sources with the same
	// request ID must reassemble independently.
	payloadA := bytes.Repeat([]byte("A"), 300)
	payloadB := bytes.Repeat([]byte("B"), 300)
	pktsA, err := Fragment(reqHeader(1, 7), payloadA, 128)
	if err != nil {
		t.Fatal(err)
	}
	pktsB, err := Fragment(reqHeader(1, 7), payloadB, 128)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler()
	var gotA, gotB *Message
	for i := range pktsA {
		if m, err := r.AddFrom(pktsA[i], "srcA"); err != nil {
			t.Fatal(err)
		} else if m != nil {
			gotA = m
		}
		if m, err := r.AddFrom(pktsB[i], "srcB"); err != nil {
			t.Fatal(err)
		} else if m != nil {
			gotB = m
		}
	}
	if gotA == nil || !bytes.Equal(gotA.Payload, payloadA) {
		t.Error("source A corrupted")
	}
	if gotB == nil || !bytes.Equal(gotB.Payload, payloadB) {
		t.Error("source B corrupted")
	}
}

func TestSeenCacheStaysBounded(t *testing.T) {
	// Regression for the pre-shard seenFIFO, which trimmed its slice
	// with seenFIFO[1:] and kept the evicted keys' backing array (and
	// map entries) alive: after far more distinct requests than
	// seenCap, the dedup cache must hold at most seenCap responses.
	n := NewMemNetwork(1)
	server, client := newPair(t, n, func(req *Message) ([]byte, error) {
		return req.Payload, nil
	})
	ctx := context.Background()
	total := 2*seenCap + 100
	payload := []byte("x")
	for i := 0; i < total; i++ {
		if _, err := client.Call(ctx, MemAddr("server"), 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	cached := 0
	for i := range server.shards {
		sh := &server.shards[i]
		if got := sh.seenLen(); got > len(sh.ring) {
			t.Errorf("shard %d caches %d responses, ring holds %d", i, got, len(sh.ring))
		} else {
			cached += got
		}
	}
	if cached > seenCap {
		t.Errorf("seen cache holds %d entries after %d requests, cap is %d", cached, total, seenCap)
	}
	if cached == 0 {
		t.Error("seen cache empty; requests were not remembered")
	}
}

// TestUDPCallToResolvedAddress: over real UDP sockets, a destination
// resolved from text — its IPv4 address in the 16-byte form, as the
// daemons' -route and -gateway flags produce it — is reached like the
// 4-byte form LocalAddr returns, and the reply finds its way back.
func TestUDPCallToResolvedAddress(t *testing.T) {
	listen := func() net.PacketConn {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	sc := listen()
	srv := NewEndpoint(sc, func(req *Message) ([]byte, error) { return req.Payload, nil })
	defer srv.Close()
	cli := NewEndpoint(listen(), nil, WithTimeout(time.Second), WithRetries(0))
	defer cli.Close()
	to, err := net.ResolveUDPAddr("udp", sc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := cli.Call(context.Background(), to, 1, []byte("q")); err != nil || string(resp) != "q" {
		t.Errorf("call to %v (%d-byte IP): %q, %v", to, len(to.IP), resp, err)
	}
}
