package lambdanic

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"lambdanic/internal/core"
	"lambdanic/internal/dispatch"
	"lambdanic/internal/faults"
	"lambdanic/internal/gateway"
	"lambdanic/internal/healthd"
	"lambdanic/internal/kvstore"
	"lambdanic/internal/monitor"
	"lambdanic/internal/transport"
	"lambdanic/internal/workloads"
)

// Deployment is the runnable λ-NIC control plane (paper Fig. 2): a
// workload manager with a Raft-backed control store, a gateway that
// stamps workload IDs and proxies requests with weakly-consistent
// delivery, worker nodes serving installed lambdas, and a memcached
// substitute for the key-value workloads. It runs either on an
// in-memory packet network (examples, tests) or on real UDP sockets
// (the cmd/ daemons).
type Deployment struct {
	manager *core.Manager
	gw      *gateway.Gateway
	workers []*core.Worker
	client  *transport.Endpoint
	mem     *kvstore.Server
	metrics *monitor.Registry

	workerAddrs []net.Addr
	workerNames []string
	closers     []func() error

	// Fault-tolerance wiring (nil/empty unless enabled in the config).
	injector    *faults.Injector
	hbs         []*healthd.Heartbeater
	hd          *healthd.Daemon
	healthEpoch time.Time
}

// DeploymentConfig parameterizes NewDeployment.
type DeploymentConfig struct {
	// Workers is the number of worker nodes (default 2; the paper's
	// testbed has 4).
	Workers int
	// ControlNodes sizes the Raft control store (default 3).
	ControlNodes int
	// Seed makes the in-memory network deterministic.
	Seed int64
	// LossRate injects packet loss on the in-memory network, exercising
	// the weakly-consistent delivery path (D3).
	LossRate float64
	// FaultRules installs deterministic per-link fault rules (loss,
	// delay, duplication, reordering, partitions) on every node's
	// connection. Leave empty for the unfaulted hot path.
	FaultRules []faults.Rule
	// Health enables the failure-detection loop: workers heartbeat into
	// the control store, and a manager-side daemon evicts workers whose
	// heartbeats stop, re-places their lambdas, and drains the gateway.
	Health bool
	// HealthInterval overrides the heartbeat/poll period (default
	// healthd.DefaultInterval).
	HealthInterval time.Duration
	// Rebalance starts the gateway's elephant-flow rebalancer, fed by
	// healthd's EWMA-smoothed per-worker load. Requires Health.
	Rebalance bool
	// RebalanceInterval overrides the rebalance tick (default 4×
	// the health interval — load reports need a few beats to settle).
	RebalanceInterval time.Duration
}

func (c *DeploymentConfig) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.ControlNodes <= 0 {
		c.ControlNodes = 3
	}
}

// NewDeployment starts a full in-memory deployment.
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
	cfg.fillDefaults()
	n := transport.NewMemNetwork(cfg.Seed)
	n.LossRate = cfg.LossRate

	d := &Deployment{metrics: monitor.NewRegistry()}
	// The injector exists whenever faults can be applied (rules now, or
	// kill/restart via the health loop); otherwise it stays nil and
	// WrapConn is an identity, keeping the hot path untouched.
	if len(cfg.FaultRules) > 0 || cfg.Health {
		d.injector = faults.NewInjector(cfg.Seed, cfg.FaultRules...)
	}
	wrap := func(conn net.PacketConn, name string) net.PacketConn {
		return d.injector.WrapConn(conn, name)
	}
	fail := func(err error) (*Deployment, error) {
		_ = d.Close()
		return nil, err
	}

	manager, err := core.NewManager(cfg.ControlNodes, cfg.Seed)
	if err != nil {
		return fail(err)
	}
	d.manager = manager

	// memcached substitute on the master node (§6.1.2), with a
	// write-through EMEM-table mirror: the table is the RDMA-readable
	// form of the store, and each worker probes it on the one-sided
	// GET fast path instead of invoking the kv lambda.
	mcConn, err := n.Listen("m1:memcached")
	if err != nil {
		return fail(err)
	}
	store := kvstore.NewStore()
	kvTable := kvstore.NewTable(kvstore.DefaultSlots)
	store.SetMirror(kvTable)
	d.mem = kvstore.NewServer(store, wrap(mcConn, "m1:memcached"))
	d.closers = append(d.closers, d.mem.Close)

	// Worker nodes M2..M(1+n), each with its own memcached client.
	for i := 0; i < cfg.Workers; i++ {
		name := fmt.Sprintf("m%d", i+2)
		kvConn, err := n.Listen(name + ":kv")
		if err != nil {
			return fail(err)
		}
		wConn, err := n.Listen(name)
		if err != nil {
			return fail(err)
		}
		deps := &workloads.Deps{
			KV:      kvstore.NewClient(wrap(kvConn, name+":kv"), transport.MemAddr("m1:memcached")),
			KVTable: kvTable,
		}
		w := core.NewWorker(wrap(wConn, name), deps)
		if i == 0 {
			// One worker feeds the monitoring engine (per-node scrape in
			// a real cluster).
			if err := w.EnableMetrics(d.metrics); err != nil {
				return fail(err)
			}
		}
		d.workers = append(d.workers, w)
		d.workerAddrs = append(d.workerAddrs, transport.MemAddr(name))
		d.workerNames = append(d.workerNames, name)
		d.closers = append(d.closers, w.Close, kvConn.Close)
	}

	gwConn, err := n.Listen("m1:gateway")
	if err != nil {
		return fail(err)
	}
	d.gw = gateway.New(wrap(gwConn, "m1:gateway"))
	d.closers = append(d.closers, d.gw.Close)
	if err := d.gw.EnableMetrics(d.metrics); err != nil {
		return fail(err)
	}
	if err := manager.EnableMetrics(d.metrics); err != nil {
		return fail(err)
	}

	// The gateway learns routes through the control store's placement
	// watch (§6.1.1: etcd syncs lambda state with the gateway).
	manager.WatchPlacements(func(p core.Placement) {
		addrs := make([]net.Addr, 0, len(p.Workers))
		for _, w := range p.Workers {
			addrs = append(addrs, transport.MemAddr(w))
		}
		d.gw.SetRoute(p.ID, addrs)
	})

	cliConn, err := n.Listen("client")
	if err != nil {
		return fail(err)
	}
	d.client = transport.NewEndpoint(wrap(cliConn, "client"), nil,
		transport.WithTimeout(250*time.Millisecond), transport.WithRetries(8))
	d.closers = append(d.closers, d.client.Close)

	if cfg.Health {
		if err := d.startHealth(cfg); err != nil {
			return fail(err)
		}
	}
	return d, nil
}

// startHealth wires the failure-detection loop: per-worker heartbeaters
// publishing into the control store, and a manager-side daemon that
// polls them, detects silence, and on death evicts the worker from
// placements and drains it from the gateway.
func (d *Deployment) startHealth(cfg DeploymentConfig) error {
	interval := cfg.HealthInterval
	if interval <= 0 {
		interval = healthd.DefaultInterval
	}
	for i, w := range d.workers {
		w := w
		hb := healthd.NewHeartbeater(d.workerNames[i], interval,
			w.Inflight, d.manager.PutHealth)
		hb.Start()
		d.hbs = append(d.hbs, hb)
	}
	epoch := time.Now()
	d.healthEpoch = epoch
	det := healthd.NewDetector(interval)
	d.hd = healthd.NewDaemon(det,
		func() []healthd.Heartbeat {
			hbs, err := d.manager.HealthSnapshot()
			if err != nil {
				return nil
			}
			return hbs
		},
		func() time.Duration { return time.Since(epoch) })
	if err := d.hd.EnableMetrics(d.metrics); err != nil {
		return err
	}
	d.hd.OnTransition = func(tr healthd.Transition) {
		if tr.To != healthd.StatusDead {
			return
		}
		// Re-place first so the gateway's watch installs the surviving
		// route, then drain in-flight calls to the dead worker.
		_ = d.manager.EvictWorker(tr.Worker)
		d.gw.EvictWorker(transport.MemAddr(tr.Worker))
	}
	d.hd.Start()
	d.closers = append(d.closers, func() error {
		d.hd.Stop()
		for _, hb := range d.hbs {
			hb.Stop()
		}
		return nil
	})
	if cfg.Rebalance {
		// The rebalancer consumes healthd's smoothed load: flows from
		// overloaded workers' elephants migrate to the least-loaded
		// survivors. Dead or suspect workers are excluded from the
		// report so migrations never target them.
		every := cfg.RebalanceInterval
		if every <= 0 {
			every = 4 * interval
		}
		loads := func() []dispatch.Load {
			var out []dispatch.Load
			for _, wh := range det.Snapshot(time.Since(epoch)) {
				if wh.Status != healthd.StatusAlive {
					continue
				}
				out = append(out, dispatch.Load{Worker: wh.Worker, Load: wh.SmoothedLoad})
			}
			return out
		}
		stop := d.gw.StartRebalancer(gateway.RebalanceConfig{Every: every, Loads: loads})
		d.closers = append(d.closers, func() error { stop(); return nil })
	}
	return nil
}

// Health exposes the failure detector (nil unless Health was enabled).
func (d *Deployment) Health() *healthd.Detector {
	if d.hd == nil {
		return nil
	}
	return d.hd.Detector()
}

// HealthReport returns the detector's per-worker view at the current
// wall-clock instant: status, last-heartbeat age, suspicion level. Nil
// unless Health was enabled.
func (d *Deployment) HealthReport() []healthd.WorkerHealth {
	if d.hd == nil {
		return nil
	}
	return d.hd.Detector().Snapshot(time.Since(d.healthEpoch))
}

// Faults exposes the deployment's injector (nil unless fault rules or
// the health loop were enabled).
func (d *Deployment) Faults() *faults.Injector { return d.injector }

// Gateway exposes the gateway (routes, failover counters).
func (d *Deployment) Gateway() *gateway.Gateway { return d.gw }

// KillWorker crash-stops a worker: its transport goes silent in both
// directions and its heartbeats stop, so healthd detects and evicts it.
func (d *Deployment) KillWorker(i int) error {
	if i < 0 || i >= len(d.workers) {
		return fmt.Errorf("lambdanic: no worker %d", i)
	}
	if d.injector == nil {
		return errors.New("lambdanic: deployment has no fault injector (enable Health or FaultRules)")
	}
	name := d.workerNames[i]
	d.injector.SetDown(name, true)
	d.injector.SetDown(name+":kv", true)
	if i < len(d.hbs) {
		d.hbs[i].Pause(true)
	}
	return nil
}

// RestartWorker brings a killed worker back; its next heartbeat revives
// it in the detector, and re-deploying or re-recording placements
// restores its routes.
func (d *Deployment) RestartWorker(i int) error {
	if i < 0 || i >= len(d.workers) {
		return fmt.Errorf("lambdanic: no worker %d", i)
	}
	if d.injector == nil {
		return errors.New("lambdanic: deployment has no fault injector (enable Health or FaultRules)")
	}
	name := d.workerNames[i]
	d.injector.SetDown(name, false)
	d.injector.SetDown(name+":kv", false)
	if i < len(d.hbs) {
		d.hbs[i].Pause(false)
	}
	return nil
}

// Deploy registers a workload with the manager, installs it on every
// worker, and records the placement in the control store; the gateway
// picks the route up through its placement watch.
func (d *Deployment) Deploy(w *Workload) error {
	if _, err := d.manager.Register(w); err != nil {
		return err
	}
	names := make([]string, 0, len(d.workers))
	for i, worker := range d.workers {
		if err := worker.Install(w); err != nil {
			return err
		}
		names = append(names, d.workerAddrs[i].String())
	}
	return d.manager.RecordPlacement(w.Name, names)
}

// Invoke calls a deployed lambda through the gateway.
func (d *Deployment) Invoke(ctx context.Context, id uint32, payload []byte) ([]byte, error) {
	return d.client.Call(ctx, transport.MemAddr("m1:gateway"), id, payload)
}

// Manager exposes the workload manager (placements, compilation).
func (d *Deployment) Manager() *core.Manager { return d.manager }

// Metrics returns the deployment's monitoring registry (gateway and
// first-worker instrumentation), renderable in the Prometheus text
// format.
func (d *Deployment) Metrics() *monitor.Registry { return d.metrics }

// GatewayStats reports forwarded and unrouted request counts.
func (d *Deployment) GatewayStats() (forwarded, unrouted uint64) {
	return d.gw.Forwarded(), d.gw.Unrouted()
}

// Close tears the deployment down.
func (d *Deployment) Close() error {
	var firstErr error
	for i := len(d.closers) - 1; i >= 0; i-- {
		if err := d.closers[i](); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ErrDeploymentClosed is returned by operations on a closed deployment.
var ErrDeploymentClosed = errors.New("lambdanic: deployment closed")
