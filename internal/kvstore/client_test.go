package kvstore

import (
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"lambdanic/internal/transport"
)

// framedPair serves a fresh store on n and returns a client of it with
// the given attempt timeout. wrap, if set, wraps the server's conn.
func framedPair(t *testing.T, n *transport.MemNetwork, timeout time.Duration, wrap func(net.PacketConn) net.PacketConn) *Client {
	t.Helper()
	sc, err := n.Listen("memcached")
	if err != nil {
		t.Fatal(err)
	}
	var conn net.PacketConn = sc
	if wrap != nil {
		conn = wrap(sc)
	}
	srv := NewServer(NewStore(), conn)
	t.Cleanup(func() { srv.Close() })
	cc, err := n.Listen("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	c := NewClient(cc, transport.MemAddr("memcached"))
	c.timeout = timeout
	return c
}

// TestClientLostReplyFailsInDeadline: with every datagram lost, a
// command fails after its two attempts' deadlines instead of waiting
// forever, and once the network delivers again the next command gets
// its own reply.
func TestClientLostReplyFailsInDeadline(t *testing.T) {
	const timeout = 20 * time.Millisecond
	n := transport.NewMemNetwork(1)
	c := framedPair(t, n, timeout, nil)
	n.LossRate = 1
	start := time.Now()
	_, _, err := c.Get("k")
	took := time.Since(start)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("Get over a dead network: %v, want a deadline error", err)
	}
	if took < 2*timeout || took > 2*timeout+time.Second {
		t.Errorf("Get gave up after %v, want about 2 × %v", took, timeout)
	}
	n.LossRate = 0 // nothing is in flight: the server saw nothing
	if err := c.Set("k", 0, []byte("v")); err != nil {
		t.Fatalf("Set after the loss: %v", err)
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || string(v) != "v" {
		t.Errorf("Get after the loss = %q/%v/%v", v, ok, err)
	}
}

// lateConn holds the server's first reply back and sends it just before
// the second, as a reply delayed past the client's deadline arrives.
type lateConn struct {
	net.PacketConn
	mu   sync.Mutex
	held []byte
	done bool
}

func (l *lateConn) WriteTo(p []byte, to net.Addr) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.done {
		if l.held == nil {
			l.held = append([]byte(nil), p...)
			return len(p), nil
		}
		l.done = true
		if _, err := l.PacketConn.WriteTo(l.held, to); err != nil {
			return 0, err
		}
	}
	return l.PacketConn.WriteTo(p, to)
}

// TestClientDiscardsStaleReply: a SET whose reply comes late is retried
// and succeeds; the retry's reply, queued behind the late one, is the
// previous command's by its request ID, and the GET that follows skips
// it for its own.
func TestClientDiscardsStaleReply(t *testing.T) {
	n := transport.NewMemNetwork(1)
	c := framedPair(t, n, 20*time.Millisecond, func(conn net.PacketConn) net.PacketConn {
		return &lateConn{PacketConn: conn}
	})
	if err := c.Set("k", 0, []byte("v")); err != nil {
		t.Fatalf("Set with a late reply: %v", err)
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || string(v) != "v" {
		t.Errorf("Get after a stale reply = %q/%v/%v, want its own reply", v, ok, err)
	}
}

// TestServerDropsUnframedCommand: a datagram too short for the frame
// header gets no reply; the next framed command is served.
func TestServerDropsUnframedCommand(t *testing.T) {
	n := transport.NewMemNetwork(1)
	c := framedPair(t, n, time.Second, nil)
	if _, err := c.conn.WriteTo([]byte("get"), c.server); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get("k"); err != nil || ok {
		t.Errorf("Get = %v/%v, want a miss", ok, err)
	}
}
