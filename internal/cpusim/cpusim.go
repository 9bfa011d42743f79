// Package cpusim simulates the server-CPU execution path of the
// paper's baseline serverless backends (§6.1.1): the bare-metal backend
// (a Python service launching lambdas as threads, in the style of
// Isolate) and the container backend (OpenFaaS lambdas in Docker
// containers behind an overlay network).
//
// The model is a small queueing network assembled from multi-server
// FIFO stations:
//
//   - a kernel station (one server per hardware thread) charging the
//     network-stack cost of receiving and sending each request;
//   - a dispatch station with a single server modeling the backend
//     service's serialized section (the Python GIL; for containers also
//     the per-request watchdog fork), where context switches between
//     co-resident lambdas are charged (§6.3.2);
//   - a compute station (one server per physical core) running the
//     portion of lambda execution that is parallelizable.
//
// The paper attributes the CPU backends' behaviour — millisecond
// latencies, collapse under contention, long tails — precisely to these
// components, so reproducing the components reproduces the behaviour.
package cpusim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"lambdanic/internal/cluster"
	"lambdanic/internal/sim"
)

// Mode selects which baseline backend's overheads apply.
type Mode int

// Backend modes.
const (
	// ModeBareMetal is the paper's bare-metal (Isolate-style) backend:
	// a standalone Python service running lambdas as threads.
	ModeBareMetal Mode = iota + 1
	// ModeContainer is the OpenFaaS/Docker backend: adds the overlay
	// network per packet and a process fork per request.
	ModeContainer
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeBareMetal:
		return "bare-metal"
	case ModeContainer:
		return "container"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Profile describes one lambda's CPU-side service demand.
type Profile struct {
	// ID is the lambda identifier (must be unique per host).
	ID uint32
	// NativeInstructions is the per-request work in native-equivalent
	// instructions; the interpreter factor scales it for the Python
	// runtime.
	NativeInstructions uint64
	// GILFraction is the fraction of execution holding the GIL
	// (serialized): 1.0 for pure-Python handlers (web server, KV
	// client), lower when C extensions release the GIL (image
	// transformer).
	GILFraction float64
	// ExternalConnPerRequest marks workloads that open a connection to
	// an external service per request (the KV client). Containers pay
	// the conntrack/NAT penalty for these under load.
	ExternalConnPerRequest bool
}

// Config parameterizes a simulated host backend.
type Config struct {
	Host  cluster.HostConfig
	Costs cluster.SoftwareCosts
	Mode  Mode
	// SingleCore restricts the backend to one hardware thread (the
	// "Bare Metal (Single Core)" series of Fig. 8), which additionally
	// forces kernel/user context switches onto the request path.
	SingleCore bool
	// ContainerExternalConn is the serialized per-request penalty for
	// external connections from a container under load (NAT/conntrack
	// setup); only charged in ModeContainer for profiles with
	// ExternalConnPerRequest.
	ContainerExternalConn time.Duration
	// Jitter enables OS scheduling noise on the dispatch path: Gaussian
	// service variation plus rare latency spikes (timer interrupts,
	// page faults, GC). This produces the long tails the paper observes
	// on the CPU backends ("likely the artifact of miscellaneous
	// software overheads", §6.3.1); λ-NIC's run-to-completion threads
	// have no equivalent, so its tail stays tight.
	Jitter bool
}

// Jitter model constants.
const (
	jitterStddev = 0.08  // relative Gaussian service noise
	spikeProb    = 0.015 // probability of a scheduling spike
	spikeScale   = 2.5   // spike magnitude relative to base service
)

// Stats aggregates host-level counters.
type Stats struct {
	Completed       uint64
	ContextSwitches uint64
	// BusyTime is the total CPU occupancy across all stations, used to
	// derive host CPU utilization (Table 3).
	BusyTime time.Duration
}

// Host is the simulated CPU backend. Construct with New; submit work
// from simulation callbacks.
type Host struct {
	sim      *sim.Sim
	cfg      Config
	profiles map[uint32]*Profile

	kernel   *station
	dispatch *station
	compute  *station

	lastLambda uint32
	hasLast    bool

	stats Stats
}

// ErrUnknownLambda is returned when a request names an undeployed
// lambda.
var ErrUnknownLambda = errors.New("cpusim: unknown lambda")

// New constructs a host backend.
func New(s *sim.Sim, cfg Config) (*Host, error) {
	if cfg.Mode != ModeBareMetal && cfg.Mode != ModeContainer {
		return nil, fmt.Errorf("cpusim: invalid mode %d", cfg.Mode)
	}
	if cfg.Host.Threads() <= 0 || cfg.Host.ClockHz == 0 {
		return nil, errors.New("cpusim: host has no threads or zero clock")
	}
	kernelServers := cfg.Host.Threads()
	computeServers := cfg.Host.PhysicalCores
	if cfg.SingleCore {
		kernelServers = 1
		computeServers = 1
	}
	h := &Host{
		sim:      s,
		cfg:      cfg,
		profiles: make(map[uint32]*Profile),
	}
	h.kernel = newStation(s, kernelServers, &h.stats.BusyTime)
	h.dispatch = newStation(s, 1, &h.stats.BusyTime)
	h.compute = newStation(s, computeServers, &h.stats.BusyTime)
	return h, nil
}

// Deploy registers a lambda profile.
func (h *Host) Deploy(p Profile) error {
	if p.GILFraction < 0 || p.GILFraction > 1 {
		return fmt.Errorf("cpusim: GILFraction %v out of [0,1]", p.GILFraction)
	}
	cp := p
	h.profiles[p.ID] = &cp
	return nil
}

// Stats returns a copy of the counters.
func (h *Host) Stats() Stats { return h.stats }

// Utilization returns average CPU utilization over elapsed virtual
// time across the host's hardware threads.
func (h *Host) Utilization() float64 {
	elapsed := h.sim.Now()
	if elapsed <= 0 {
		return 0
	}
	threads := h.cfg.Host.Threads()
	if h.cfg.SingleCore {
		threads = 1
	}
	return float64(h.stats.BusyTime) / (float64(elapsed) * float64(threads))
}

// Submit delivers a request for the given lambda with a payload of
// payloadBytes spanning packets wire packets. done fires when the
// response has left the host.
func (h *Host) Submit(lambdaID uint32, payloadBytes int, packets int, done func(error)) {
	p, ok := h.profiles[lambdaID]
	if !ok {
		if done != nil {
			done(fmt.Errorf("%w: %d", ErrUnknownLambda, lambdaID))
		}
		return
	}
	if packets < 1 {
		packets = 1
	}
	complete := func() {
		h.stats.Completed++
		if done != nil {
			done(nil)
		}
	}
	// Stage 1: kernel receive.
	h.kernel.submit(h.kernelCost(payloadBytes, packets), func() {
		// Stage 2: serialized dispatch (+ GIL-held execution share).
		h.dispatch.submit(h.dispatchCost(p), func() {
			// Stage 3: parallel execution share.
			par := h.parallelExecCost(p)
			if par <= 0 {
				h.sendResponse(payloadBytes, packets, complete)
				return
			}
			h.compute.submit(par, func() {
				h.sendResponse(payloadBytes, packets, complete)
			})
		})
	})
}

func (h *Host) sendResponse(payloadBytes, packets int, done func()) {
	h.kernel.submit(h.kernelTxCost(payloadBytes, packets), done)
}

// kernelCost models the receive path: a fixed per-request stack cost
// plus a per-KB copy cost; containers add the overlay network cost per
// packet batch.
func (h *Host) kernelCost(payloadBytes, packets int) time.Duration {
	c := h.cfg.Costs.KernelRx
	c += perKBCost(payloadBytes, kernelPerKB)
	if h.cfg.Mode == ModeContainer {
		c += h.cfg.Costs.OverlayPerPacket
		c += perKBCost(payloadBytes, overlayPerKB)
	}
	_ = packets
	return c
}

func (h *Host) kernelTxCost(payloadBytes, packets int) time.Duration {
	c := h.cfg.Costs.KernelTx
	c += perKBCost(payloadBytes, kernelPerKB) / 4 // responses are small relative to requests
	if h.cfg.Mode == ModeContainer {
		c += h.cfg.Costs.OverlayPerPacket
	}
	_ = packets
	return c
}

// Bulk-transfer costs: large payloads are coalesced by GRO/LRO, so the
// marginal cost is per KB rather than per MTU packet.
const (
	kernelPerKB  = 400 * time.Nanosecond
	overlayPerKB = 25 * time.Microsecond
)

func perKBCost(bytes int, perKB time.Duration) time.Duration {
	if bytes <= 0 {
		return 0
	}
	kb := (bytes + 1023) / 1024
	return time.Duration(kb) * perKB
}

// dispatchCost is the serialized section: dispatch (warm when the
// serialized server is idle, loaded when contended), the GIL-held
// execution share, a context switch when the previous request ran a
// different lambda, the container fork, and the container external-
// connection penalty.
func (h *Host) dispatchCost(p *Profile) time.Duration {
	var c time.Duration
	if h.dispatch.idle() {
		c += h.cfg.Costs.DispatchWarm
	} else {
		c += h.cfg.Costs.DispatchLoaded
	}
	if h.hasLast && h.lastLambda != p.ID {
		c += h.cfg.Costs.ContextSwitch
		h.stats.ContextSwitches++
	}
	if h.cfg.SingleCore {
		// Kernel softirq and the user thread share one core: two
		// kernel/user switches land on the request path.
		c += 2 * h.cfg.Costs.ContextSwitch
		h.stats.ContextSwitches += 2
	}
	h.lastLambda = p.ID
	h.hasLast = true
	if h.cfg.Mode == ModeContainer {
		c += h.cfg.Costs.ContainerFork
		if p.ExternalConnPerRequest && !h.dispatch.idle() {
			c += h.cfg.ContainerExternalConn
		}
	}
	c += h.gilExecCost(p)
	if h.cfg.Jitter {
		c = h.applyJitter(c)
	}
	return c
}

// applyJitter perturbs a service time with scheduling noise.
func (h *Host) applyJitter(c time.Duration) time.Duration {
	rng := h.sim.Rand()
	scale := 1 + jitterStddev*abs(rng.NormFloat64())
	if rng.Float64() < spikeProb {
		scale += spikeScale * rng.Float64()
	}
	return time.Duration(float64(c) * scale)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// gilExecCost is the GIL-held share of lambda execution time.
func (h *Host) gilExecCost(p *Profile) time.Duration {
	return time.Duration(float64(h.execCost(p)) * p.GILFraction)
}

// parallelExecCost is the share of execution that runs outside the GIL.
func (h *Host) parallelExecCost(p *Profile) time.Duration {
	return time.Duration(float64(h.execCost(p)) * (1 - p.GILFraction))
}

// execCost converts instruction demand to CPU time through the
// interpreter factor.
func (h *Host) execCost(p *Profile) time.Duration {
	eff := float64(p.NativeInstructions) * math.Max(1, h.cfg.Costs.InterpreterFactor)
	sec := eff / float64(h.cfg.Host.ClockHz)
	return time.Duration(sec * float64(time.Second))
}

// station is a multi-server FIFO queue.
type station struct {
	sim     *sim.Sim
	servers int
	busy    int
	queue   []stationJob
	busyAcc *time.Duration
}

type stationJob struct {
	service time.Duration
	done    func()
}

func newStation(s *sim.Sim, servers int, busyAcc *time.Duration) *station {
	if servers < 1 {
		servers = 1
	}
	return &station{sim: s, servers: servers, busyAcc: busyAcc}
}

// idle reports whether the station has a free server and no backlog.
func (st *station) idle() bool { return st.busy < st.servers && len(st.queue) == 0 }

func (st *station) submit(service time.Duration, done func()) {
	if st.busy < st.servers {
		st.busy++
		st.run(service, done)
		return
	}
	st.queue = append(st.queue, stationJob{service: service, done: done})
}

func (st *station) run(service time.Duration, done func()) {
	*st.busyAcc += service
	st.sim.After(service, func() {
		done()
		if len(st.queue) > 0 {
			next := st.queue[0]
			st.queue[0] = stationJob{}
			st.queue = st.queue[1:]
			st.run(next.service, next.done)
			return
		}
		st.busy--
	})
}
