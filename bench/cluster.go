package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"lambdanic/internal/core"
	"lambdanic/internal/gateway"
	"lambdanic/internal/kvstore"
	"lambdanic/internal/monitor"
	"lambdanic/internal/transport"
	"lambdanic/internal/workloads"
)

// cluster is the bench's data plane, wired step for step like
// lambdanic.NewDeployment (deployment.go): a Raft-backed core.Manager
// whose placement watch feeds the gateway's routes, the memcached
// substitute with its kvstore.Table write-through mirror, two workers
// with a kvstore.Client each, the gateway, and a client endpoint with
// the deployment's timeout and retry settings. Metrics are enabled on
// the same three components. It is rebuilt here, not imported, for two
// reasons only: every net.PacketConn can be handed through a tap, and
// the same wiring can stand on loopback UDP sockets.
type cluster struct {
	manager *core.Manager
	gw      *gateway.Gateway
	gwAddr  net.Addr
	workers []*core.Worker
	wAddrs  []net.Addr
	client  *transport.Endpoint
	store   *kvstore.Store
	table   *kvstore.Table
	metrics *monitor.Registry
	closers []func() error

	// addrs resolves the worker names the control store carries back to
	// addresses (NewDeployment can cast: on memnet the name is the
	// address).
	mu    sync.Mutex
	addrs map[string]net.Addr
}

// network abstracts where the cluster's sockets come from.
type network interface {
	// listen opens the named node's socket.
	listen(name string) (net.PacketConn, error)
	// kind is "memnet" or "loopback".
	kind() string
}

type memNetwork struct{ n *transport.MemNetwork }

func newMemNetwork(seed int64) memNetwork { return memNetwork{transport.NewMemNetwork(seed)} }

func (m memNetwork) listen(name string) (net.PacketConn, error) { return m.n.Listen(name) }
func (m memNetwork) kind() string                               { return "memnet" }

type udpNetwork struct{}

func (udpNetwork) listen(string) (net.PacketConn, error) {
	return net.ListenPacket("udp", "127.0.0.1:0")
}
func (udpNetwork) kind() string { return "loopback" }

// deadlineConn gives every read a deadline. kvstore.Client.roundTrip
// waits for its reply without one, so a datagram lost on loopback would
// hang a worker goroutine (and the run) for good; with the deadline the
// request fails and is counted.
type deadlineConn struct {
	net.PacketConn
	d time.Duration
}

func (c deadlineConn) ReadFrom(p []byte) (int, net.Addr, error) {
	_ = c.PacketConn.SetReadDeadline(time.Now().Add(c.d)) // memnet: a no-op, and memnet loses nothing
	return c.PacketConn.ReadFrom(p)
}

const (
	clusterWorkers = 2
	controlNodes   = 3
	kvReadDeadline = time.Second
)

// newCluster builds the data plane. tr may be nil (the untraced run:
// every conn is used as it is).
func newCluster(nw network, seed int64, tr *tracer) (*cluster, error) {
	c := &cluster{metrics: monitor.NewRegistry(), addrs: map[string]net.Addr{}}
	fail := func(err error) (*cluster, error) {
		_ = c.Close()
		return nil, err
	}
	manager, err := core.NewManager(controlNodes, seed)
	if err != nil {
		return fail(err)
	}
	c.manager = manager

	mcConn, err := nw.listen("m1:memcached")
	if err != nil {
		return fail(err)
	}
	mcAddr := mcConn.LocalAddr()
	c.store = kvstore.NewStore()
	c.table = kvstore.NewTable(kvstore.DefaultSlots)
	c.store.SetMirror(c.table)
	mem := kvstore.NewServer(c.store, mcConn)
	c.closers = append(c.closers, mem.Close)

	for i := 0; i < clusterWorkers; i++ {
		name := fmt.Sprintf("m%d", i+2)
		kvConn, err := nw.listen(name + ":kv")
		if err != nil {
			return fail(err)
		}
		wConn, err := nw.listen(name)
		if err != nil {
			return fail(err)
		}
		wAddr := wConn.LocalAddr()
		deps := &workloads.Deps{
			KV:      kvstore.NewClient(tr.tapKV(deadlineConn{kvConn, kvReadDeadline}), mcAddr),
			KVTable: c.table,
		}
		w := core.NewWorker(tr.tap(wConn, roleWorker), deps)
		if i == 0 {
			if err := w.EnableMetrics(c.metrics); err != nil {
				return fail(err)
			}
		}
		c.workers = append(c.workers, w)
		c.wAddrs = append(c.wAddrs, wAddr)
		c.addrs[wAddr.String()] = wAddr
		c.closers = append(c.closers, w.Close, kvConn.Close)
	}

	gwConn, err := nw.listen("m1:gateway")
	if err != nil {
		return fail(err)
	}
	c.gwAddr = gwConn.LocalAddr()
	c.gw = gateway.New(tr.tap(gwConn, roleGateway))
	c.closers = append(c.closers, c.gw.Close)
	if err := c.gw.EnableMetrics(c.metrics); err != nil {
		return fail(err)
	}
	if err := manager.EnableMetrics(c.metrics); err != nil {
		return fail(err)
	}
	manager.WatchPlacements(func(p core.Placement) {
		addrs := make([]net.Addr, 0, len(p.Workers))
		c.mu.Lock()
		for _, w := range p.Workers {
			addrs = append(addrs, c.addrs[w])
		}
		c.mu.Unlock()
		c.gw.SetRoute(p.ID, addrs)
	})

	cliConn, err := nw.listen("client")
	if err != nil {
		return fail(err)
	}
	c.client = transport.NewEndpoint(tr.tap(cliConn, roleClient), nil,
		transport.WithTimeout(250*time.Millisecond), transport.WithRetries(8))
	c.closers = append(c.closers, c.client.Close)
	return c, nil
}

// deploy is Deployment.Deploy: register, install on every worker,
// record the placement. It returns how long the route took to become
// visible at the gateway, from the first manager call.
func (c *cluster) deploy(w *workloads.Workload) (time.Duration, error) {
	start := time.Now()
	if _, err := c.manager.Register(w); err != nil {
		return 0, err
	}
	names := make([]string, 0, len(c.workers))
	for i, worker := range c.workers {
		if err := worker.Install(w); err != nil {
			return 0, err
		}
		names = append(names, c.wAddrs[i].String())
	}
	if err := c.manager.RecordPlacement(w.Name, names); err != nil {
		return 0, err
	}
	// The watch runs inside the control store's apply, so the route is
	// normally there already; poll in case a follower applies late.
	deadline := time.Now().Add(2 * time.Second)
	for len(c.gw.Routes()[w.ID]) == 0 {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("route for %s never reached the gateway", w.Name)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return time.Since(start), nil
}

func (c *cluster) invoke(ctx context.Context, id uint32, payload []byte) ([]byte, error) {
	return c.client.Call(ctx, c.gwAddr, id, payload)
}

func (c *cluster) Close() error {
	var first error
	for i := len(c.closers) - 1; i >= 0; i-- {
		if err := c.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	return first
}
