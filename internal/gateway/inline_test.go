package gateway

import (
	"net"
	"runtime"
	"testing"
	"time"

	"lambdanic/internal/matchlambda"
	"lambdanic/internal/transport"
)

// eventually polls cond until it holds, failing the test after 5 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// silentRoute attaches workers that never read and routes workload 1
// to them, so every request the gateway forwards stays open.
func silentRoute(t *testing.T, n *transport.MemNetwork, gw *Gateway, names ...string) {
	t.Helper()
	addrs := make([]net.Addr, len(names))
	for i, name := range names {
		hole, err := n.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { hole.Close() })
		addrs[i] = transport.MemAddr(name)
	}
	gw.SetRoute(1, addrs)
}

// openUpstream counts the upstream calls the gateway has in flight.
func openUpstream(gw *Gateway) int64 {
	var n int64
	for _, c := range gw.routes.Load().inflight {
		n += c.Load()
	}
	return n
}

// sendRaw writes count requests for workload 1 from one client conn,
// each with its own request ID and nobody waiting for the reply, in
// batches the gateway has taken — forwarded or shed — before the next,
// so its inbox never overflows.
func sendRaw(t *testing.T, n *transport.MemNetwork, gw *Gateway, count int) {
	t.Helper()
	conn, err := n.Listen("raw-client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	taken := func() int { return int(openUpstream(gw)) + int(gw.ep.Drops()) }
	base := taken()
	for id := 1; id <= count; id++ {
		h := matchlambda.WireHeader{Version: matchlambda.Version1, WorkloadID: 1, RequestID: uint64(id), Total: 1, PayloadLen: 1}
		if _, err := conn.WriteTo(append(h.Encode(nil), 'x'), transport.MemAddr("gw")); err != nil {
			t.Fatal(err)
		}
		if id%200 == 0 || id == count {
			eventually(t, "the gateway to take the batch", func() bool { return taken()-base == id })
		}
	}
}

// TestGatewayParksNoGoroutine: requests held at a silent worker cost the
// gateway no goroutine each — 200 of them raise the goroutine count,
// counted from before the gateway existed, by its readers alone.
func TestGatewayParksNoGoroutine(t *testing.T) {
	n := transport.NewMemNetwork(1)
	before := runtime.NumGoroutine()
	gw := newGateway(t, n, WithUpstreamTimeout(time.Minute))
	silentRoute(t, n, gw, "s1", "s2")
	const held = 200
	sendRaw(t, n, gw, held)
	if got := openUpstream(gw); got != held {
		t.Fatalf("%d requests held upstream, want %d", got, held)
	}
	if grew := runtime.NumGoroutine() - before; grew >= 20 {
		t.Errorf("%d requests held upstream cost %d goroutines, want < 20", held, grew)
	}
}

// TestGatewaySheddingBound: the gateway holds at most maxOpen requests
// open; each one past that is shed and counted as a pool drop.
func TestGatewaySheddingBound(t *testing.T) {
	n := transport.NewMemNetwork(1)
	gw := newGateway(t, n, WithUpstreamTimeout(time.Minute))
	silentRoute(t, n, gw, "s1", "s2")
	const extra = 20
	sendRaw(t, n, gw, maxOpen+extra)
	if got := openUpstream(gw); got != maxOpen {
		t.Errorf("%d requests open, want the bound %d", got, maxOpen)
	}
	if got := gw.ep.Drops(); got != extra {
		t.Errorf("%d requests shed, want %d", got, extra)
	}
}
