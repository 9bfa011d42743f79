package gateway

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"lambdanic/internal/dispatch"
	"lambdanic/internal/matchlambda"
	"lambdanic/internal/transport"
)

// replyChan takes the reply handle sends, for tests that call it
// directly.
type replyChan chan result

type result struct {
	resp []byte
	err  error
}

func (c replyChan) Reply(resp []byte, err error) { c <- result{resp, err} }

// handleSync runs handle on req and waits for its reply.
func handleSync(g *Gateway, req *transport.Message) ([]byte, error) {
	c := make(replyChan, 1)
	src := ""
	if req.Source != nil {
		src = req.Source.String()
	}
	g.handle(req, src, c)
	r := <-c
	return r.resp, r.err
}

// TestGatewayUpstreamDeadlineFailover: the upstream timeout bounds all
// attempts at one worker together. In front of a black-holed owner and a
// live successor the gateway gives the owner one timeout — not
// timeout × retries — counts one upstream timeout and one failover, and
// the successor serves the request.
func TestGatewayUpstreamDeadlineFailover(t *testing.T) {
	const timeout = 50 * time.Millisecond
	n := transport.NewMemNetwork(37)
	gw := newGateway(t, n, WithUpstreamTimeout(timeout))
	names := []string{"w1", "w2"}
	gw.SetRoute(1, []net.Addr{transport.MemAddr(names[0]), transport.MemAddr(names[1])})
	owner := gw.routes.Load().m[1].ownerIndex(dispatch.FlowKey("client", 1))
	// The owner is attached but never reads: requests to it vanish.
	hole, err := n.Listen(names[owner])
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	echoWorker(t, n, names[1-owner])

	cli := testClient(t, n, transport.WithTimeout(5*time.Second), transport.WithRetries(0))
	start := time.Now()
	resp, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("x"))
	took := time.Since(start)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if want := names[1-owner] + ":x"; string(resp) != want {
		t.Errorf("resp = %q, want %q", resp, want)
	}
	// The gateway's endpoint would retransmit for 5 × 200 ms on its own.
	if took < timeout || took > 10*timeout {
		t.Errorf("failover took %v, want about one upstream timeout (%v)", took, timeout)
	}
	if got := gw.UpstreamTimeouts(); got != 1 {
		t.Errorf("UpstreamTimeouts = %d, want 1", got)
	}
	if got := gw.Failovers(); got != 1 {
		t.Errorf("Failovers = %d, want 1", got)
	}
}

// TestGatewayAllDeadErrorKind: when every worker of a route runs out
// its upstream deadline, what handle returns is still a
// transport.ErrTimeout — the kind handle itself matches to count
// timeouts and to decide on failover.
func TestGatewayAllDeadErrorKind(t *testing.T) {
	n := transport.NewMemNetwork(41)
	gw := newGateway(t, n, WithUpstreamTimeout(20*time.Millisecond))
	gw.SetRoute(1, []net.Addr{transport.MemAddr("d1"), transport.MemAddr("d2")})
	req := &transport.Message{
		Header:  matchlambda.WireHeader{Version: matchlambda.Version1, WorkloadID: 1, RequestID: 1, Total: 1},
		Payload: []byte("x"),
		Source:  transport.MemAddr("client"),
	}
	_, err := handleSync(gw, req)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("err = %v, want a transport.ErrTimeout", err)
	}
	if errors.Is(err, transport.ErrAborted) || errors.Is(err, transport.ErrClosed) {
		t.Errorf("err = %v matches an unrelated kind", err)
	}
	if got := gw.UpstreamTimeouts(); got != 2 {
		t.Errorf("UpstreamTimeouts = %d, want 2 (one per dead worker)", got)
	}
	if got := gw.Failovers(); got != 1 {
		t.Errorf("Failovers = %d, want 1", got)
	}
}

// TestGatewayCloseFailsProxiedCalls: closing the gateway while requests
// wait on a silent worker ends their upstream calls with ErrClosed at
// once — no failover, no waiting out the upstream timeout — and Close
// returns. The clients see their own retry schedule run out.
func TestGatewayCloseFailsProxiedCalls(t *testing.T) {
	n := transport.NewMemNetwork(43)
	conn, err := n.Listen("gw")
	if err != nil {
		t.Fatal(err)
	}
	gw := New(conn, WithUpstreamTimeout(time.Minute))
	hole, err := n.Listen("silent")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	gw.SetRoute(1, []net.Addr{transport.MemAddr("silent"), transport.MemAddr("also-silent")})
	cli := testClient(t, n, transport.WithTimeout(30*time.Millisecond), transport.WithRetries(1))
	errs := make(chan error, 4)
	for i := 0; i < cap(errs); i++ {
		go func() {
			_, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("x"))
			errs <- err
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); gw.routes.Load().inflight["silent"].Load() < int64(cap(errs)); {
		if time.Now().After(deadline) {
			t.Fatal("requests never reached the upstream wait")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- gw.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close is waiting out the one-minute upstream timeout")
	}
	if got := gw.Failovers(); got != 0 {
		t.Errorf("shutdown triggered %d failovers", got)
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err == nil {
			t.Error("a call through the closed gateway succeeded")
		}
	}
}
