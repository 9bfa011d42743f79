package gateway

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lambdanic/internal/dispatch"
	"lambdanic/internal/faults"
	"lambdanic/internal/monitor"
	"lambdanic/internal/transport"
)

// echoWorker starts a worker endpoint that tags responses with its
// name.
func echoWorker(t *testing.T, n *transport.MemNetwork, name string) *transport.Endpoint {
	t.Helper()
	conn, err := n.Listen(name)
	if err != nil {
		t.Fatal(err)
	}
	ep := transport.NewEndpoint(conn, func(req *transport.Message) ([]byte, error) {
		return []byte(name + ":" + string(req.Payload)), nil
	})
	t.Cleanup(func() {
		if err := ep.Close(); err != nil {
			t.Errorf("close %s: %v", name, err)
		}
	})
	return ep
}

// testClient starts a client endpoint.
func testClient(t *testing.T, n *transport.MemNetwork, opts ...transport.EndpointOption) *transport.Endpoint {
	t.Helper()
	return namedClient(t, n, "client", opts...)
}

// namedClient starts a client endpoint on a specific address — under
// flow-affine dispatch the client address is the flow identity, so
// tests spread load by using many named clients.
func namedClient(t *testing.T, n *transport.MemNetwork, name string, opts ...transport.EndpointOption) *transport.Endpoint {
	t.Helper()
	conn, err := n.Listen(name)
	if err != nil {
		t.Fatal(err)
	}
	ep := transport.NewEndpoint(conn, nil, opts...)
	t.Cleanup(func() { ep.Close() })
	return ep
}

func newGateway(t *testing.T, n *transport.MemNetwork, opts ...Option) *Gateway {
	t.Helper()
	conn, err := n.Listen("gw")
	if err != nil {
		t.Fatal(err)
	}
	gw := New(conn, opts...)
	t.Cleanup(func() {
		if err := gw.Close(); err != nil {
			t.Errorf("gateway close: %v", err)
		}
	})
	return gw
}

func TestGatewayForwardsByWorkloadID(t *testing.T) {
	n := transport.NewMemNetwork(1)
	echoWorker(t, n, "w1")
	echoWorker(t, n, "w2")
	gw := newGateway(t, n)
	gw.SetRoute(7, []net.Addr{transport.MemAddr("w1")})
	gw.SetRoute(8, []net.Addr{transport.MemAddr("w2")})

	cli := testClient(t, n)
	ctx := context.Background()
	resp, err := cli.Call(ctx, transport.MemAddr("gw"), 7, []byte("a"))
	if err != nil || string(resp) != "w1:a" {
		t.Fatalf("workload 7 -> %q, %v", resp, err)
	}
	resp, err = cli.Call(ctx, transport.MemAddr("gw"), 8, []byte("b"))
	if err != nil || string(resp) != "w2:b" {
		t.Fatalf("workload 8 -> %q, %v", resp, err)
	}
	if gw.Forwarded() != 2 {
		t.Errorf("Forwarded = %d", gw.Forwarded())
	}
}

// TestGatewayFlowAffinity: all requests from one client flow land on
// one worker (warm state is reused), while distinct clients spread
// across the fleet via the consistent-hash ring.
func TestGatewayFlowAffinity(t *testing.T) {
	n := transport.NewMemNetwork(1)
	names := []string{"w1", "w2", "w3", "w4"}
	workers := make([]net.Addr, len(names))
	for i, name := range names {
		echoWorker(t, n, name)
		workers[i] = transport.MemAddr(name)
	}
	gw := newGateway(t, n)
	gw.SetRoute(1, workers)

	// One client: every request sticks to the same worker.
	cli := testClient(t, n)
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		resp, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		name, _, _ := strings.Cut(string(resp), ":")
		counts[name]++
	}
	if len(counts) != 1 {
		t.Fatalf("one flow scattered across %d workers: %v", len(counts), counts)
	}

	// Many clients: flows spread over multiple workers.
	spread := map[string]int{}
	for c := 0; c < 32; c++ {
		cc := namedClient(t, n, fmt.Sprintf("c%02d", c))
		resp, err := cc.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		name, _, _ := strings.Cut(string(resp), ":")
		spread[name]++
	}
	if len(spread) < 3 {
		t.Fatalf("32 flows landed on only %d of 4 workers: %v", len(spread), spread)
	}
}

// TestGatewayFlowAffinityStableAcrossGateways: two gateways with the
// same seed place the same flow on the same worker.
func TestGatewayFlowAffinityStableAcrossGateways(t *testing.T) {
	n := transport.NewMemNetwork(1)
	names := []string{"w1", "w2", "w3"}
	workers := make([]net.Addr, len(names))
	for i, name := range names {
		echoWorker(t, n, name)
		workers[i] = transport.MemAddr(name)
	}
	conn1, err := n.Listen("gw1")
	if err != nil {
		t.Fatal(err)
	}
	gw1 := New(conn1)
	t.Cleanup(func() { gw1.Close() })
	conn2, err := n.Listen("gw2")
	if err != nil {
		t.Fatal(err)
	}
	gw2 := New(conn2)
	t.Cleanup(func() { gw2.Close() })
	gw1.SetRoute(1, workers)
	gw2.SetRoute(1, workers)

	cli := testClient(t, n)
	r1, err := cli.Call(context.Background(), transport.MemAddr("gw1"), 1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cli.Call(context.Background(), transport.MemAddr("gw2"), 1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	w1, _, _ := strings.Cut(string(r1), ":")
	w2, _, _ := strings.Cut(string(r2), ":")
	if w1 != w2 {
		t.Fatalf("gateways disagree on placement: %s vs %s", w1, w2)
	}
}

func TestGatewayUnrouted(t *testing.T) {
	n := transport.NewMemNetwork(1)
	gw := newGateway(t, n)
	cli := testClient(t, n, transport.WithTimeout(100*time.Millisecond), transport.WithRetries(1))
	_, err := cli.Call(context.Background(), transport.MemAddr("gw"), 99, []byte("x"))
	if err == nil || !strings.Contains(err.Error(), "no route") {
		t.Errorf("err = %v, want no-route", err)
	}
	if gw.Unrouted() == 0 {
		t.Error("Unrouted not counted")
	}
}

func TestGatewayRouteUpdateAndRemoval(t *testing.T) {
	n := transport.NewMemNetwork(1)
	echoWorker(t, n, "w1")
	echoWorker(t, n, "w2")
	gw := newGateway(t, n)
	gw.SetRoute(1, []net.Addr{transport.MemAddr("w1")})
	cli := testClient(t, n, transport.WithTimeout(100*time.Millisecond), transport.WithRetries(1))

	if resp, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("x")); err != nil || string(resp) != "w1:x" {
		t.Fatalf("before update: %q, %v", resp, err)
	}
	// Repoint to w2 (a placement change).
	gw.SetRoute(1, []net.Addr{transport.MemAddr("w2")})
	if resp, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("y")); err != nil || string(resp) != "w2:y" {
		t.Fatalf("after update: %q, %v", resp, err)
	}
	// Remove the route entirely.
	gw.SetRoute(1, nil)
	if _, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("z")); err == nil {
		t.Error("call after route removal succeeded")
	}
	if routes := gw.Routes(); len(routes) != 0 {
		t.Errorf("Routes = %v after removal", routes)
	}
}

func TestGatewayUpstreamTimeout(t *testing.T) {
	n := transport.NewMemNetwork(1)
	gw := newGateway(t, n, WithUpstreamTimeout(50*time.Millisecond))
	// Route to a worker that does not exist: upstream calls time out.
	gw.SetRoute(1, []net.Addr{transport.MemAddr("ghost")})
	cli := testClient(t, n, transport.WithTimeout(300*time.Millisecond), transport.WithRetries(1))
	_, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("x"))
	if err == nil {
		t.Error("call to dead worker succeeded")
	}
}

// TestGatewayRetransmitsThroughLoss drops packets on a fixed schedule —
// windows of per-link packet indexes, which no goroutine interleaving
// can move — on all four directions of client ↔ gateway ↔ worker, and
// never more in a row than the retry budgets cover (the gateway's
// upstream endpoint gives up after 5 attempts). Every call must still
// succeed, by retransmission at the hop that lost the packet.
func TestGatewayRetransmitsThroughLoss(t *testing.T) {
	n := transport.NewMemNetwork(5)
	lose := func(from, to string, first, last uint64) faults.Rule {
		return faults.Rule{From: from, To: to, FirstPacket: first, LastPacket: last, Partition: true}
	}
	inj := faults.NewInjector(5,
		lose("client", "gw", 0, 1), // the first request: the client retransmits
		lose("gw", "w1", 0, 2),     // then two upstream attempts in a row: the gateway retransmits
		lose("w1", "gw", 0, 1),     // then the worker's reply: it is replayed from the dedup cache
		lose("gw", "client", 0, 1), // then the gateway's reply: likewise
		lose("gw", "w1", 6, 7),     // and once more on later calls, one hop at a time
		lose("w1", "gw", 4, 5),
		lose("gw", "client", 5, 6),
	)
	listen := func(name string) net.PacketConn {
		conn, err := n.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		return inj.WrapConn(conn, name)
	}
	worker := transport.NewEndpoint(listen("w1"), func(req *transport.Message) ([]byte, error) {
		return []byte("w1:" + string(req.Payload)), nil
	})
	defer worker.Close()
	gw := New(listen("gw"))
	defer gw.Close()
	gw.SetRoute(1, []net.Addr{transport.MemAddr("w1")})
	cli := transport.NewEndpoint(listen("client"), nil,
		transport.WithTimeout(50*time.Millisecond), transport.WithRetries(40))
	defer cli.Close()
	for i := 0; i < 10; i++ {
		resp, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("q"))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if string(resp) != "w1:q" {
			t.Errorf("resp = %q", resp)
		}
	}
	if cli.Retransmits() == 0 || gw.Retransmits() < 3 || worker.Duplicates() == 0 {
		t.Errorf("client retransmits %d, gateway retransmits %d (want ≥ 3), worker replays %d: the schedule was not exercised",
			cli.Retransmits(), gw.Retransmits(), worker.Duplicates())
	}
}

func TestGatewayConcurrentClients(t *testing.T) {
	n := transport.NewMemNetwork(9)
	echoWorker(t, n, "w1")
	echoWorker(t, n, "w2")
	gw := newGateway(t, n)
	gw.SetRoute(1, []net.Addr{transport.MemAddr("w1"), transport.MemAddr("w2")})
	cli := testClient(t, n)

	const calls = 30
	var failures atomic.Int32
	done := make(chan struct{}, calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			payload := []byte(fmt.Sprintf("m%d", i))
			resp, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, payload)
			if err != nil || !strings.HasSuffix(string(resp), string(payload)) {
				failures.Add(1)
			}
		}(i)
	}
	for i := 0; i < calls; i++ {
		<-done
	}
	if failures.Load() != 0 {
		t.Errorf("%d concurrent calls failed", failures.Load())
	}
}

func TestGatewayFailoverToLiveWorker(t *testing.T) {
	n := transport.NewMemNetwork(13)
	echoWorker(t, n, "alive")
	gw := newGateway(t, n, WithUpstreamTimeout(60*time.Millisecond))
	// First route slot points at a dead worker; the gateway must fail
	// over to the live one.
	gw.SetRoute(1, []net.Addr{transport.MemAddr("dead"), transport.MemAddr("alive")})
	cli := testClient(t, n, transport.WithTimeout(400*time.Millisecond), transport.WithRetries(1))
	resp, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("x"))
	if err != nil {
		t.Fatalf("failover call: %v", err)
	}
	if string(resp) != "alive:x" {
		t.Errorf("resp = %q, want from live worker", resp)
	}
}

func TestGatewayNoFailoverOnApplicationError(t *testing.T) {
	n := transport.NewMemNetwork(17)
	// Both workers return application errors; the gateway must not
	// retry the second after the first answers deterministically.
	var calls atomic.Int32
	for _, name := range []string{"e1", "e2"} {
		conn, err := n.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		ep := transport.NewEndpoint(conn, func(req *transport.Message) ([]byte, error) {
			calls.Add(1)
			return nil, fmt.Errorf("handler rejected")
		})
		t.Cleanup(func() { ep.Close() })
	}
	gw := newGateway(t, n, WithUpstreamTimeout(100*time.Millisecond))
	gw.SetRoute(1, []net.Addr{transport.MemAddr("e1"), transport.MemAddr("e2")})
	cli := testClient(t, n, transport.WithTimeout(300*time.Millisecond), transport.WithRetries(1))
	_, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("x"))
	if err == nil || !strings.Contains(err.Error(), "handler rejected") {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("handler invoked %d times, want 1 (no failover on app error)", got)
	}
}

func TestGatewayAllWorkersDead(t *testing.T) {
	n := transport.NewMemNetwork(19)
	gw := newGateway(t, n, WithUpstreamTimeout(30*time.Millisecond))
	gw.SetRoute(1, []net.Addr{transport.MemAddr("d1"), transport.MemAddr("d2")})
	cli := testClient(t, n, transport.WithTimeout(500*time.Millisecond), transport.WithRetries(0))
	_, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("x"))
	if err == nil {
		t.Error("call with all workers dead succeeded")
	}
}

// TestGatewayFailoverDeterministicSuccessor: when a flow's ring owner
// is dead, every request re-pins to the flow's first live ring
// successor — the same worker each time, not a scatter.
func TestGatewayFailoverDeterministicSuccessor(t *testing.T) {
	n := transport.NewMemNetwork(29)
	names := []string{"w1", "w2", "w3"}
	workers := make([]net.Addr, len(names))
	for i, name := range names {
		workers[i] = transport.MemAddr(name)
	}
	gw := newGateway(t, n, WithUpstreamTimeout(60*time.Millisecond))
	gw.SetRoute(1, workers)

	// White-box: find the flow's ring order for client "client", then
	// start every worker except the owner.
	wr := gw.routes.Load().m[1]
	flow := dispatch.FlowKey("client", 1)
	owner := wr.ownerIndex(flow)
	succ := wr.failoverOrder(flow, owner)
	for i, name := range names {
		if i != owner {
			echoWorker(t, n, name)
		}
	}
	want := names[succ[0]]

	cli := testClient(t, n, transport.WithTimeout(400*time.Millisecond), transport.WithRetries(1))
	for i := 0; i < 5; i++ {
		resp, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("x"))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		got, _, _ := strings.Cut(string(resp), ":")
		if got != want {
			t.Fatalf("call %d served by %s, want deterministic successor %s", i, got, want)
		}
	}
	if gw.Failovers() == 0 {
		t.Error("failovers not counted")
	}
}

// TestGatewayPerWorkloadFailoverCounters: a workload whose route has
// only live workers adds no failover; one whose flows reach a dead
// worker adds to Failovers() and to lnic_gateway_failovers_total.
func TestGatewayPerWorkloadFailoverCounters(t *testing.T) {
	n := transport.NewMemNetwork(31)
	echoWorker(t, n, "alive")
	gw := newGateway(t, n, WithUpstreamTimeout(60*time.Millisecond))
	reg := monitor.NewRegistry()
	if err := gw.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}
	gw.SetRoute(1, []net.Addr{transport.MemAddr("dead"), transport.MemAddr("alive")})
	gw.SetRoute(2, []net.Addr{transport.MemAddr("alive")})
	cli := testClient(t, n, transport.WithTimeout(400*time.Millisecond), transport.WithRetries(1))

	// Workload 2 has no dead worker: it never fails over.
	if _, err := cli.Call(context.Background(), transport.MemAddr("gw"), 2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := gw.Failovers(); got != 0 {
		t.Fatalf("failovers = %d after a call to a live worker", got)
	}
	// Drive workload 1 until a flow hits the dead worker's failover
	// path at least once (the client's flow may already own "alive", so
	// use several distinct client flows).
	for c := 0; c < 8 && gw.Failovers() == 0; c++ {
		cc := namedClient(t, n, fmt.Sprintf("fc%d", c), transport.WithTimeout(400*time.Millisecond), transport.WithRetries(1))
		if _, err := cc.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got := gw.Failovers()
	if got == 0 {
		t.Fatal("no failover counted for workload 1")
	}
	if want := fmt.Sprintf("lnic_gateway_failovers_total %d\n", got); !strings.Contains(reg.Render(), want) {
		t.Errorf("metrics page lacks %q:\n%s", want, reg.Render())
	}
}
