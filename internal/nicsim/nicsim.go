// Package nicsim simulates an ASIC-based SmartNIC in the style of the
// Netronome Agilio CX the paper evaluates on (§2.2, §5): a grid of
// multi-threaded RISC NPU cores grouped into islands, a four-level
// memory hierarchy (core-local memory, per-island CTM, on-chip IMEM,
// external EMEM), a hardware packet scheduler, and run-to-completion
// execution of Match+Lambda firmware.
//
// Execution is both functional and timed: each incoming request is run
// through the loaded lambda program (typically an internal/mcc
// interpreter), which returns the response payload and dynamic
// execution statistics (instructions retired, memory accesses per
// level). The simulator converts those statistics into NPU cycles using
// the cluster cost model and advances a discrete-event clock, so every
// latency and throughput figure emerges from the same mechanisms the
// paper credits: massive thread parallelism, no OS, no context
// switches, and memory placement (§4.2.1, D1-D3).
package nicsim

import (
	"errors"
	"fmt"
	"time"

	"lambdanic/internal/cluster"
	"lambdanic/internal/dispatch"
	"lambdanic/internal/obs"
	"lambdanic/internal/sim"
	"lambdanic/internal/wfq"
)

// MemLevel identifies one level of the NIC memory hierarchy (§5).
type MemLevel int

// Memory levels, nearest first.
const (
	MemLocal MemLevel = iota + 1 // core-local memory
	MemCTM                       // cluster target memory (per island)
	MemIMEM                      // on-chip internal memory
	MemEMEM                      // external DRAM
	numMemLevels
)

// String returns the architectural name of the memory level.
func (m MemLevel) String() string {
	switch m {
	case MemLocal:
		return "LMEM"
	case MemCTM:
		return "CTM"
	case MemIMEM:
		return "IMEM"
	case MemEMEM:
		return "EMEM"
	default:
		return fmt.Sprintf("MemLevel(%d)", int(m))
	}
}

// ExecStats are the dynamic costs of one lambda invocation, produced by
// the program's interpreter and charged to the executing NPU thread.
type ExecStats struct {
	// Instructions retired (1 cycle each at CPI=1).
	Instructions uint64
	// MemAccesses counts accesses per memory level; each access stalls
	// the thread for that level's latency.
	MemAccesses [numMemLevels]uint64
}

// AddAccess records n accesses at the given level.
func (e *ExecStats) AddAccess(level MemLevel, n uint64) {
	if level > 0 && level < numMemLevels {
		e.MemAccesses[level] += n
	}
}

// Accesses returns the access count at a level.
func (e *ExecStats) Accesses(level MemLevel) uint64 {
	if level > 0 && level < numMemLevels {
		return e.MemAccesses[level]
	}
	return 0
}

// Cycles converts the statistics to NPU cycles under the given NIC
// configuration.
func (e *ExecStats) Cycles(cfg cluster.NICConfig) uint64 {
	cycles := e.Instructions
	cycles += e.MemAccesses[MemLocal] * cfg.LocalLatency
	cycles += e.MemAccesses[MemCTM] * cfg.CTMLatency
	cycles += e.MemAccesses[MemIMEM] * cfg.IMEMLatency
	cycles += e.MemAccesses[MemEMEM] * cfg.EMEMLatency
	return cycles
}

// Request is one RPC arriving at the NIC. Multi-packet requests
// (Packets > 1) model RDMA-committed payloads (§4.2.1, D3): the payload
// is reordered/committed by the NIC before the lambda fires.
type Request struct {
	LambdaID uint32
	Payload  []byte
	// Packets is the number of wire packets the RPC spans (≥1).
	Packets int
	// FlowKey identifies the client flow (dispatch.FlowKey of source ×
	// workload) for the per-core warm-state model. Zero means untracked:
	// the request neither hits nor pollutes warm state.
	FlowKey uint64
	// Trace, when non-nil, receives the request's NIC-side lifecycle
	// spans: scheduler queue wait, instruction cycles, and per-level
	// memory stalls on the executing thread's island/core track.
	Trace *obs.Req
}

// Response is the lambda's reply.
type Response struct {
	// Payload holds the reply's bytes, or is nil when the program knew
	// the reply's length without building it (Program.Serve).
	Payload []byte
	// Size is the reply's length in bytes.
	Size int
	// Stats are the execution statistics for observability and tests.
	Stats ExecStats
}

// Program is a loaded firmware image. Every core runs the same
// Match+Lambda program (§5): the image parses the request, matches on
// the lambda ID, and runs the selected lambda. It executes requests
// functionally and reports their dynamic cost. Implementations live in
// internal/mcc (compiled Match+Lambda programs) and in tests.
type Program interface {
	// Serve runs the image against the request (parse + match +
	// lambda) and returns the run's cost and the reply's length, its
	// bytes only if it built them. It must be deterministic given the
	// request (simulation determinism depends on it).
	Serve(req *Request) (Response, error)
	// Handles reports whether the image has a lambda for the ID;
	// unmatched requests go to the host OS path (§4.1).
	Handles(id uint32) bool
	// StaticInstructions is the compiled code size, checked against the
	// per-core instruction store when the firmware loads.
	StaticInstructions() int
	// MemoryBytes is the image's NIC memory footprint per level.
	MemoryBytes() map[MemLevel]int
}

// Dispatch selects how the hardware scheduler assigns requests to
// threads (§5: the Netronome scheduler is work-conserving and uniform;
// WFQ is λ-NIC's policy from §4.2.1 D1).
type Dispatch int

// Dispatch policies. DispatchTenantWFQ is the multi-tenant variant:
// hierarchical WFQ with an outer queue across tenants (weighted by
// tenant class) and an inner per-lambda queue within each tenant, so a
// tenant flooding many lambdas cannot take more than its weighted
// share from colocated tenants.
const (
	DispatchUniform Dispatch = iota + 1
	DispatchWFQ
	DispatchTenantWFQ
)

// Errors returned by the NIC.
var (
	ErrProgramTooLarge = errors.New("nicsim: program exceeds per-core instruction store")
	ErrMemoryExceeded  = errors.New("nicsim: program exceeds NIC memory capacity")
	ErrNoFirmware      = errors.New("nicsim: no firmware loaded")
	ErrNICDown         = errors.New("nicsim: firmware swap in progress")
)

// Config parameterizes the simulated NIC.
type Config struct {
	NIC cluster.NICConfig
	// Dispatch policy; DispatchUniform if unset.
	Dispatch Dispatch
	// FirmwareSwapDowntime models the paper's §7 limitation: loading
	// new firmware halts the NIC. Zero means hitless (future NICs).
	FirmwareSwapDowntime time.Duration
	// Preemptive replaces run-to-completion execution (§4.2.1 D1) with
	// CPU-style time slicing: a lambda runs QuantumCycles, pays
	// ContextSwitchCycles, and requeues. This exists only for the
	// run-to-completion ablation — the paper's design deliberately
	// avoids it.
	Preemptive bool
	// QuantumCycles is the time slice when Preemptive is set (default
	// 5,000 cycles ≈ 8 µs at 633 MHz).
	QuantumCycles uint64
	// ContextSwitchCycles is the per-preemption state save/restore cost
	// (default 500 cycles).
	ContextSwitchCycles uint64
	// TenantOf classifies a lambda ID to its owning tenant ID for
	// DispatchTenantWFQ (typically tenant.Registry.OwnerID). Nil maps
	// everything to tenant 0.
	TenantOf func(lambdaID uint32) uint32
	// TenantWeights are outer-queue WFQ weights per tenant ID for
	// DispatchTenantWFQ (typically tenant.Registry.Weights()). Missing
	// tenants default to weight 1.
	TenantWeights map[uint32]float64
	// WarmFlows enables the per-core warm-state model: each NPU core
	// keeps an LRU of the last WarmFlows flow keys it served (match-table
	// entries, KV working set, I-cache lines). A request whose FlowKey is
	// resident skips the cold-start surcharge. Zero disables the model.
	WarmFlows int
	// ColdStartCycles is the surcharge added to a request's instruction
	// cycles when its flow misses the executing core's warm set
	// (match-table install + working-set faults). Only meaningful with
	// WarmFlows > 0; zero tracks hit rates without a latency effect.
	ColdStartCycles uint64
}

// Stats aggregates NIC-level counters.
type Stats struct {
	Completed     uint64
	Dropped       uint64
	SentToHost    uint64
	BusyCycles    uint64
	MaxQueueDepth int
	// Preemptions counts time-slice expirations (ablation mode only).
	Preemptions uint64
	// WarmHits/WarmMisses count warm-state lookups (WarmFlows > 0 and
	// request FlowKey != 0 only). A hit means the executing core served
	// the flow recently and skipped the cold-start surcharge.
	WarmHits   uint64
	WarmMisses uint64
}

// NIC is the simulated SmartNIC. Create with New; drive by calling
// Inject from simulation callbacks.
type NIC struct {
	sim  *sim.Sim
	cfg  Config
	fw   Program
	down bool

	// crashed is the fail-stop state (Crash/Recover): a crashed NIC
	// black-holes traffic instead of answering, so failure is only
	// observable through timeouts — the crash model healthd detects.
	crashed bool
	// slowdown > 1 stretches service times (island degradation /
	// thermal throttling).
	slowdown float64

	// free is the stack of idle NPU thread indexes; its depth is the
	// classic free-thread count, the indexes name trace tracks.
	free   []int
	tracks []string // lazily built thread-index -> "islandI/coreC/tT"
	queue  *wfq.Scheduler
	hq     *wfq.Hierarchical // DispatchTenantWFQ only
	fifo   []*pending

	// tenantDone counts completions per tenant ID (DispatchTenantWFQ
	// isolation experiments read these; nil until first completion).
	tenantDone map[uint32]uint64

	// warm is the per-core warm-flow LRU (WarmFlows > 0 only), indexed
	// by core = thread / ThreadsPerCore. Built lazily on first lookup;
	// flushed on crash and firmware swap (SRAM state does not survive
	// either).
	warm []*dispatch.LRU

	stats Stats

	// Free lists and pre-bound callbacks keep the per-request path
	// allocation-free: pending and wfq.Item structs recycle, and the
	// completion callbacks are method values created once here rather
	// than closures created per packet.
	pfree      []*pending
	ifree      []*wfq.Item
	completeFn func(any)
	preemptFn  func(any)
}

type pending struct {
	req  *Request
	done func(Response, error)

	// Preemption state: the response is computed functionally at first
	// dispatch; remaining tracks unserved cycles across time slices.
	started   bool
	resp      Response
	err       error
	remaining uint64

	// Tracing state: arrival (or requeue) time for queue-wait spans,
	// the occupied thread index, and the cycle split for attribution.
	waitSince   sim.Time
	thread      int
	instrCycles uint64
	stallCycles [numMemLevels]uint64
}

// New constructs a NIC bound to the simulation.
func New(s *sim.Sim, cfg Config) (*NIC, error) {
	if cfg.NIC.NPUThreads() <= 0 {
		return nil, errors.New("nicsim: configuration has no NPU threads")
	}
	if cfg.Dispatch == 0 {
		cfg.Dispatch = DispatchUniform
	}
	q, err := wfq.New(1)
	if err != nil {
		return nil, err
	}
	var hq *wfq.Hierarchical
	if cfg.Dispatch == DispatchTenantWFQ {
		hq, err = wfq.NewHierarchical(1, 1)
		if err != nil {
			return nil, err
		}
		for tid, w := range cfg.TenantWeights {
			if err := hq.SetTenantWeight(tid, w); err != nil {
				return nil, fmt.Errorf("nicsim: tenant %d: %w", tid, err)
			}
		}
	}
	threads := cfg.NIC.NPUThreads()
	free := make([]int, threads)
	for i := range free {
		// Stack ordered so thread 0 is dispatched first.
		free[i] = threads - 1 - i
	}
	n := &NIC{
		sim:   s,
		cfg:   cfg,
		free:  free,
		queue: q,
		hq:    hq,
	}
	n.completeFn = n.complete
	n.preemptFn = n.preempt
	return n, nil
}

// getPending pops a recycled pending or allocates one, fully
// reinitialized for the request.
func (n *NIC) getPending(req *Request, done func(Response, error)) *pending {
	var p *pending
	if l := len(n.pfree); l > 0 {
		p = n.pfree[l-1]
		n.pfree = n.pfree[:l-1]
		*p = pending{}
	} else {
		p = &pending{}
	}
	p.req, p.done, p.waitSince = req, done, n.sim.Now()
	return p
}

// putPending recycles a pending whose lifecycle has fully ended.
func (n *NIC) putPending(p *pending) {
	p.req, p.done = nil, nil
	p.resp = Response{}
	p.err = nil
	n.pfree = append(n.pfree, p)
}

func (n *NIC) getItem() *wfq.Item {
	if l := len(n.ifree); l > 0 {
		it := n.ifree[l-1]
		n.ifree = n.ifree[:l-1]
		return it
	}
	return &wfq.Item{}
}

func (n *NIC) putItem(it *wfq.Item) {
	it.Payload = nil
	n.ifree = append(n.ifree, it)
}

// track returns the trace-track name for an NPU thread index, shaped
// by the island/core topology ("island2/core5/t1").
func (n *NIC) track(thread int) string {
	if n.tracks == nil {
		n.tracks = make([]string, n.cfg.NIC.NPUThreads())
	}
	if thread < 0 || thread >= len(n.tracks) {
		return "npu"
	}
	if n.tracks[thread] == "" {
		perCore := n.cfg.NIC.ThreadsPerCore
		perIsland := n.cfg.NIC.CoresPerIsland * perCore
		if perCore <= 0 || perIsland <= 0 {
			n.tracks[thread] = fmt.Sprintf("t%d", thread)
		} else {
			n.tracks[thread] = fmt.Sprintf("island%d/core%d/t%d",
				thread/perIsland, (thread%perIsland)/perCore, thread%perCore)
		}
	}
	return n.tracks[thread]
}

// warmTouch records a warm-state access for the flow on the executing
// thread's core and reports whether it was resident (a warm hit).
func (n *NIC) warmTouch(thread int, flow uint64) bool {
	perCore := n.cfg.NIC.ThreadsPerCore
	if perCore <= 0 {
		perCore = 1
	}
	if n.warm == nil {
		cores := (n.cfg.NIC.NPUThreads() + perCore - 1) / perCore
		n.warm = make([]*dispatch.LRU, cores)
	}
	core := thread / perCore
	if core < 0 || core >= len(n.warm) {
		return false
	}
	if n.warm[core] == nil {
		n.warm[core] = dispatch.NewLRU(n.cfg.WarmFlows)
	}
	return n.warm[core].Touch(flow)
}

// flushWarm discards all per-core warm state (crash or firmware swap:
// on-NIC SRAM does not survive either).
func (n *NIC) flushWarm() { n.warm = nil }

// Stats returns a copy of the NIC counters.
func (n *NIC) Stats() Stats { return n.stats }

// MemoryUsed reports the loaded firmware's NIC memory footprint in
// bytes (Table 3's "NIC Memory" row).
func (n *NIC) MemoryUsed() int {
	if n.fw == nil {
		return 0
	}
	total := 0
	for _, b := range n.fw.MemoryBytes() {
		total += b
	}
	return total
}

// Load validates and installs a firmware image. If firmware is already
// running and the configuration models swap downtime, the NIC is down
// for that period and arriving requests are dropped (§7 "hot swapping
// workloads").
func (n *NIC) Load(fw Program) error {
	if got, limit := fw.StaticInstructions(), n.cfg.NIC.InstrStorePerCore; got > limit {
		return fmt.Errorf("%w: %d > %d", ErrProgramTooLarge, got, limit)
	}
	mem := fw.MemoryBytes()
	if mem[MemCTM] > n.cfg.NIC.CTMPerIsland*n.cfg.NIC.Islands {
		return fmt.Errorf("%w: CTM demand %d", ErrMemoryExceeded, mem[MemCTM])
	}
	if mem[MemIMEM] > n.cfg.NIC.IMEMBytes {
		return fmt.Errorf("%w: IMEM demand %d", ErrMemoryExceeded, mem[MemIMEM])
	}
	if mem[MemEMEM] > n.cfg.NIC.EMEMBytes {
		return fmt.Errorf("%w: EMEM demand %d", ErrMemoryExceeded, mem[MemEMEM])
	}
	if n.fw != nil {
		n.flushWarm() // new match tables: prior warm state is void
	}
	swapping := n.fw != nil && n.cfg.FirmwareSwapDowntime > 0
	n.fw = fw
	if swapping {
		n.down = true
		n.sim.Schedule(n.cfg.FirmwareSwapDowntime, func() { n.down = false })
	}
	return nil
}

// Crash fail-stops the NIC (the failure model healthd's detector is
// built for): arriving requests are black-holed — dropped with no
// completion callback, so callers see only silence and must rely on
// timeouts — queued work is discarded, and in-flight completions are
// suppressed. Occupied threads still drain through the normal finish
// path, so Recover restores full capacity.
func (n *NIC) Crash() {
	n.crashed = true
	n.flushWarm()
	for {
		p := n.dequeue()
		if p == nil {
			break
		}
		n.stats.Dropped++
		n.putPending(p)
	}
}

// Recover brings a crashed NIC back with its loaded firmware intact.
func (n *NIC) Recover() { n.crashed = false }

// SetSlowdown degrades the NIC's service rate: service times are
// stretched by factor (island degradation, thermal throttling).
// Factors <= 1 restore full speed. Trace spans keep nominal cycle
// attribution; only the scheduled completion moves.
func (n *NIC) SetSlowdown(factor float64) { n.slowdown = factor }

// scaled applies the degradation factor to a service time.
func (n *NIC) scaled(d sim.Time) sim.Time {
	if n.slowdown > 1 {
		return sim.Time(float64(d) * n.slowdown)
	}
	return d
}

// Inject delivers a request to the NIC at the current simulation time.
// done fires (in virtual time) when the response leaves the NIC. A nil
// done is allowed for fire-and-forget traffic.
func (n *NIC) Inject(req *Request, done func(Response, error)) {
	if n.fw == nil {
		n.stats.Dropped++
		if done != nil {
			done(Response{}, ErrNoFirmware)
		}
		return
	}
	if n.crashed {
		// Fail-stop: the request vanishes. No completion fires — the
		// caller's timeout is the only failure signal, exactly as with a
		// dead NIC on a real wire.
		n.stats.Dropped++
		return
	}
	if n.down {
		n.stats.Dropped++
		if done != nil {
			done(Response{}, ErrNICDown)
		}
		return
	}
	if !n.fw.Handles(req.LambdaID) {
		n.stats.SentToHost++
		// A boundary handoff: the request leaves the NIC for the host
		// path, marked on the same placement stage that traces engine-
		// driven migrations (placement.migrate).
		req.Trace.Mark(obs.StagePlacement, "placement", "host-fallback", n.sim.Now())
		if done != nil {
			done(Response{}, fmt.Errorf("nicsim: no lambda %d: sent to host", req.LambdaID))
		}
		return
	}
	p := n.getPending(req, done)
	if len(n.free) > 0 {
		p.thread = n.free[len(n.free)-1]
		n.free = n.free[:len(n.free)-1]
		n.start(p)
		return
	}
	n.enqueue(p)
}

// tenantOf classifies a lambda to its tenant (DispatchTenantWFQ).
func (n *NIC) tenantOf(lambdaID uint32) uint32 {
	if n.cfg.TenantOf != nil {
		return n.cfg.TenantOf(lambdaID)
	}
	return 0
}

func (n *NIC) enqueue(p *pending) {
	p.waitSince = n.sim.Now()
	switch n.cfg.Dispatch {
	case DispatchWFQ, DispatchTenantWFQ:
		size := uint64(len(p.req.Payload))
		if size == 0 {
			size = 64
		}
		it := n.getItem()
		it.Flow, it.Size, it.Payload = p.req.LambdaID, size, p
		if n.cfg.Dispatch == DispatchTenantWFQ {
			n.hq.Enqueue(n.tenantOf(p.req.LambdaID), it)
		} else {
			n.queue.Enqueue(it)
		}
	default:
		n.fifo = append(n.fifo, p)
	}
	if d := n.queueDepth(); d > n.stats.MaxQueueDepth {
		n.stats.MaxQueueDepth = d
	}
}

func (n *NIC) queueDepth() int {
	depth := n.queue.Len() + len(n.fifo)
	if n.hq != nil {
		depth += n.hq.Len()
	}
	return depth
}

// start runs a request on an occupied thread. In the default
// run-to-completion mode (D1) the whole service time is served in one
// piece — no preemption, no context switch. In the ablation's
// preemptive mode the request runs one quantum at a time, paying a
// context-switch cost and requeueing between slices.
func (n *NIC) start(p *pending) {
	now := n.sim.Now()
	if tr := p.req.Trace; tr != nil && now > p.waitSince {
		tr.AddSpan(obs.StageQueue, "nic-scheduler", "", p.waitSince, now)
	}
	if !p.started {
		p.started = true
		p.resp, p.err = n.fw.Serve(p.req)
		cycles := n.cfg.NIC.ParseMatchCycles
		if pk := p.req.Packets; pk > 1 {
			// Multi-packet RPC: the NIC reorders/commits packets before
			// the lambda fires (§5 footnote: ~30 cycles per packet).
			cycles += uint64(pk) * n.cfg.NIC.ReorderCyclesPerPacket
		}
		p.instrCycles = cycles + p.resp.Stats.Instructions
		if n.cfg.WarmFlows > 0 && p.req.FlowKey != 0 {
			if n.warmTouch(p.thread, p.req.FlowKey) {
				n.stats.WarmHits++
			} else {
				n.stats.WarmMisses++
				p.instrCycles += n.cfg.ColdStartCycles
			}
		}
		p.stallCycles[MemLocal] = p.resp.Stats.MemAccesses[MemLocal] * n.cfg.NIC.LocalLatency
		p.stallCycles[MemCTM] = p.resp.Stats.MemAccesses[MemCTM] * n.cfg.NIC.CTMLatency
		p.stallCycles[MemIMEM] = p.resp.Stats.MemAccesses[MemIMEM] * n.cfg.NIC.IMEMLatency
		p.stallCycles[MemEMEM] = p.resp.Stats.MemAccesses[MemEMEM] * n.cfg.NIC.EMEMLatency
		p.remaining = p.instrCycles
		for _, c := range p.stallCycles {
			p.remaining += c
		}
	}
	quantum := n.cfg.QuantumCycles
	if n.cfg.Preemptive && quantum == 0 {
		quantum = 5000
	}
	if !n.cfg.Preemptive || p.remaining <= quantum {
		// Run to completion.
		n.stats.BusyCycles += p.remaining
		service := n.scaled(sim.CyclesToDuration(p.remaining, n.cfg.NIC.ClockHz))
		if p.req.Trace != nil {
			n.traceExecution(p, now)
		}
		p.remaining = 0
		n.sim.AfterArg(service, n.completeFn, p)
		return
	}
	// Serve one quantum, pay the switch, requeue behind other work.
	cs := n.cfg.ContextSwitchCycles
	if cs == 0 {
		cs = 500
	}
	n.stats.BusyCycles += quantum + cs
	n.stats.Preemptions++
	p.remaining -= quantum
	service := n.scaled(sim.CyclesToDuration(quantum+cs, n.cfg.NIC.ClockHz))
	if tr := p.req.Trace; tr != nil {
		tr.AddSpan(obs.StageExec, n.track(p.thread), "quantum", now, now+service)
	}
	n.sim.AfterArg(service, n.preemptFn, p)
}

// complete fires when a run-to-completion service interval ends. The
// pending is recycled before user code runs, so a completion that
// re-injects synchronously reuses it.
func (n *NIC) complete(arg any) {
	p := arg.(*pending)
	thread := p.thread
	if n.crashed {
		// The NIC died mid-service: the completion is lost, but the
		// thread is accounted free so Recover restores full capacity.
		n.stats.Dropped++
		n.putPending(p)
		n.finish(thread)
		return
	}
	done, resp, err := p.done, p.resp, p.err
	tenant := n.tenantOf(p.req.LambdaID)
	n.putPending(p)
	n.stats.Completed++
	if n.cfg.Dispatch == DispatchTenantWFQ {
		if n.tenantDone == nil {
			n.tenantDone = make(map[uint32]uint64)
		}
		n.tenantDone[tenant]++
	}
	if done != nil {
		done(resp, err)
	}
	n.finish(thread)
}

// TenantCompleted returns how many requests of one tenant have
// completed (DispatchTenantWFQ only; always 0 otherwise).
func (n *NIC) TenantCompleted(tenantID uint32) uint64 { return n.tenantDone[tenantID] }

// preempt fires when a preemptive time slice expires: the request
// requeues behind other work (ablation mode only).
func (n *NIC) preempt(arg any) {
	p := arg.(*pending)
	if n.crashed {
		n.stats.Dropped++
		n.putPending(p)
		n.finish(p.thread)
		return
	}
	thread := p.thread
	n.enqueue(p)
	n.finish(thread)
}

// traceExecution lays the run-to-completion service time out as
// contiguous sub-spans — instruction cycles first, then the stall time
// of each memory level — on the executing thread's track. Boundaries
// come from cumulative cycle counts so the sub-spans tile the service
// interval exactly, keeping per-request attribution additive.
func (n *NIC) traceExecution(p *pending, start sim.Time) {
	tr := p.req.Trace
	track := n.track(p.thread)
	hz := n.cfg.NIC.ClockHz
	segments := []struct {
		stage  obs.Stage
		cycles uint64
	}{
		{obs.StageExec, p.instrCycles},
		{obs.StageMemLMEM, p.stallCycles[MemLocal]},
		{obs.StageMemCTM, p.stallCycles[MemCTM]},
		{obs.StageMemIMEM, p.stallCycles[MemIMEM]},
		{obs.StageMemEMEM, p.stallCycles[MemEMEM]},
	}
	var cum uint64
	prev := start
	for _, seg := range segments {
		if seg.cycles == 0 {
			continue
		}
		cum += seg.cycles
		end := start + sim.CyclesToDuration(cum, hz)
		tr.AddSpan(seg.stage, track, "", prev, end)
		prev = end
	}
}

// finish releases the thread or immediately begins queued work on it.
func (n *NIC) finish(thread int) {
	if next := n.dequeue(); next != nil {
		next.thread = thread
		n.start(next)
		return
	}
	n.free = append(n.free, thread)
}

func (n *NIC) dequeue() *pending {
	if n.cfg.Dispatch == DispatchWFQ || n.cfg.Dispatch == DispatchTenantWFQ {
		var it *wfq.Item
		if n.cfg.Dispatch == DispatchTenantWFQ {
			it = n.hq.Dequeue()
		} else {
			it = n.queue.Dequeue()
		}
		if it == nil {
			return nil
		}
		p := it.Payload.(*pending)
		n.putItem(it)
		return p
	}
	// Uniform work-conserving hardware scheduler: FIFO drain.
	if len(n.fifo) == 0 {
		return nil
	}
	p := n.fifo[0]
	n.fifo[0] = nil
	n.fifo = n.fifo[1:]
	return p
}

// Utilization returns the fraction of total NPU thread-cycles spent
// busy over the elapsed virtual time.
func (n *NIC) Utilization() float64 {
	elapsed := n.sim.Now()
	if elapsed <= 0 {
		return 0
	}
	totalCycles := sim.DurationToCycles(elapsed, n.cfg.NIC.ClockHz) * uint64(n.cfg.NIC.NPUThreads())
	if totalCycles == 0 {
		return 0
	}
	return float64(n.stats.BusyCycles) / float64(totalCycles)
}
