package healthd

import (
	"sync"
	"time"

	"lambdanic/internal/monitor"
)

// Heartbeater periodically publishes a worker's liveness. The publish
// function carries the beat into the control store (core.Manager's
// PutHealth); load samples the worker's in-flight count. Beat may also
// be called directly — virtual-time experiments drive heartbeats from
// sim callbacks instead of the wall-clock goroutine.
type Heartbeater struct {
	worker   string
	interval time.Duration
	load     func() int
	publish  func(Heartbeat) error

	mu      sync.Mutex
	seq     uint64
	paused  bool
	started bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewHeartbeater builds a heartbeater. A nil load function reports zero
// load.
func NewHeartbeater(worker string, interval time.Duration, load func() int, publish func(Heartbeat) error) *Heartbeater {
	if interval <= 0 {
		interval = DefaultInterval
	}
	if load == nil {
		load = func() int { return 0 }
	}
	return &Heartbeater{
		worker:   worker,
		interval: interval,
		load:     load,
		publish:  publish,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Beat publishes one heartbeat now (a no-op while paused).
func (h *Heartbeater) Beat() error {
	h.mu.Lock()
	if h.paused {
		h.mu.Unlock()
		return nil
	}
	h.seq++
	hb := Heartbeat{Worker: h.worker, Seq: h.seq, Load: h.load()}
	h.mu.Unlock()
	return h.publish(hb)
}

// Pause stops (true) or resumes (false) beating without tearing down
// the loop — a killed worker falls silent; a restarted one resumes with
// a higher sequence number.
func (h *Heartbeater) Pause(paused bool) {
	h.mu.Lock()
	h.paused = paused
	h.mu.Unlock()
}

// Start launches the wall-clock beat loop. The first beat is published
// synchronously before Start returns, so the detector learns the worker
// immediately — a worker killed right after startup is still detected
// as dead rather than never known.
func (h *Heartbeater) Start() {
	h.mu.Lock()
	h.started = true
	h.mu.Unlock()
	h.Beat()
	go func() {
		defer close(h.done)
		t := time.NewTicker(h.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.Beat()
			case <-h.stop:
				return
			}
		}
	}()
}

// Stop terminates the beat loop and waits for it to exit. Safe to call
// more than once; a heartbeater that was never started just closes.
func (h *Heartbeater) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	h.mu.Lock()
	started := h.started
	h.mu.Unlock()
	if started {
		<-h.done
	}
}

// Daemon is the manager-side detection loop: it polls heartbeats from a
// source (the control store), feeds them to the detector, runs a
// suspicion check, and reports transitions. Poll does one cycle
// synchronously so virtual-time and wall-clock callers share the same
// logic.
type Daemon struct {
	det    *Detector
	source func() []Heartbeat
	now    func() time.Duration
	// OnTransition, when set, observes every status change (including
	// revivals detected during Observe).
	OnTransition func(Transition)

	mu       sync.Mutex
	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// Monitoring-engine instrumentation (nil unless EnableMetrics):
	// per-worker load, phi, and status gauges, registered lazily as
	// workers first appear in a poll.
	reg    *monitor.Registry
	gauges map[string]*workerGauges
}

// workerGauges is one worker's set of health gauges.
type workerGauges struct {
	load     *monitor.Gauge
	smoothed *monitor.Gauge
	phi      *monitor.Gauge
	status   *monitor.Gauge
}

// NewDaemon wires a detector to a heartbeat source and a clock.
func NewDaemon(det *Detector, source func() []Heartbeat, now func() time.Duration) *Daemon {
	return &Daemon{
		det:    det,
		source: source,
		now:    now,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Detector exposes the daemon's detector (snapshots, status queries).
func (d *Daemon) Detector() *Detector { return d.det }

// EnableMetrics publishes each polled worker's health into the
// monitoring engine: lnic_healthd_load (in-flight requests from the
// last heartbeat), lnic_healthd_load_smoothed (the EWMA the rebalancer
// consumes), lnic_healthd_phi (suspicion score), and
// lnic_healthd_status (0 alive, 1 suspect, 2 dead), all labeled by
// worker. Gauges register lazily the first time a worker appears, so
// enabling before any poll covers the whole fleet.
func (d *Daemon) EnableMetrics(reg *monitor.Registry) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.reg != nil {
		return nil
	}
	d.reg = reg
	d.gauges = make(map[string]*workerGauges)
	return nil
}

// publishHealth updates the per-worker gauges from a detector snapshot.
func (d *Daemon) publishHealth(now time.Duration) {
	d.mu.Lock()
	reg, gauges := d.reg, d.gauges
	d.mu.Unlock()
	if reg == nil {
		return
	}
	for _, wh := range d.det.Snapshot(now) {
		g := gauges[wh.Worker]
		if g == nil {
			labels := map[string]string{"worker": wh.Worker}
			load, err := reg.Gauge("lnic_healthd_load", "worker in-flight load from the last heartbeat", labels)
			if err != nil {
				continue
			}
			smoothed, err := reg.Gauge("lnic_healthd_load_smoothed", "worker load EWMA across heartbeats (rebalancer input)", labels)
			if err != nil {
				continue
			}
			phi, err := reg.Gauge("lnic_healthd_phi", "worker suspicion score (heartbeat age over mean interval)", labels)
			if err != nil {
				continue
			}
			status, err := reg.Gauge("lnic_healthd_status", "worker liveness: 0 alive, 1 suspect, 2 dead", labels)
			if err != nil {
				continue
			}
			g = &workerGauges{load: load, smoothed: smoothed, phi: phi, status: status}
			d.mu.Lock()
			gauges[wh.Worker] = g
			d.mu.Unlock()
		}
		g.load.Set(float64(wh.Load))
		g.smoothed.Set(wh.SmoothedLoad)
		g.phi.Set(wh.Phi)
		g.status.Set(float64(wh.Status))
	}
}

// Poll runs one observe+check cycle and returns the transitions.
func (d *Daemon) Poll() []Transition {
	now := d.now()
	var out []Transition
	for _, hb := range d.source() {
		if tr := d.det.Observe(hb, now); tr != nil {
			out = append(out, *tr)
		}
	}
	out = append(out, d.det.Check(now)...)
	d.publishHealth(now)
	if d.OnTransition != nil {
		for _, tr := range out {
			d.OnTransition(tr)
		}
	}
	return out
}

// Start launches a wall-clock poll loop at the detector's heartbeat
// interval.
func (d *Daemon) Start() {
	d.mu.Lock()
	d.started = true
	d.mu.Unlock()
	go func() {
		defer close(d.done)
		t := time.NewTicker(d.det.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				d.Poll()
			case <-d.stop:
				return
			}
		}
	}()
}

// Stop terminates the poll loop.
func (d *Daemon) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.mu.Lock()
	started := d.started
	d.mu.Unlock()
	if started {
		<-d.done
	}
}
