// Package backend implements the three serverless backends the paper
// evaluates against each other (§6.1.1):
//
//   - LambdaNIC: lambdas run entirely on the simulated ASIC SmartNIC
//     (internal/nicsim) as compiled Match+Lambda firmware, with
//     multi-packet requests arriving over the RDMA path (§4.2.1 D3);
//   - BareMetal: an Isolate-style standalone service running lambdas as
//     threads on the host CPU simulator (internal/cpusim);
//   - Container: the OpenFaaS/Docker-style backend — bare metal plus
//     overlay networking and a process fork per request.
//
// All three implement one Backend interface so the experiment harness
// (internal/experiments) drives them identically, exactly as the
// paper's gateway drives its three backends.
package backend

import (
	"errors"
	"fmt"
	"time"

	"lambdanic/internal/cluster"
	"lambdanic/internal/cpusim"
	"lambdanic/internal/kvstore"
	"lambdanic/internal/mcc"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/obs"
	"lambdanic/internal/rdma"
	"lambdanic/internal/sim"
	"lambdanic/internal/workloads"
)

// Result is one completed request.
type Result struct {
	Err     error
	payload []byte
	call    *lambdaCall // a λ-NIC request, whose reply may be unbuilt
}

// Reply returns the reply's bytes. The NIC answers a request whose
// lambda's cost it replays with the reply's length alone; Reply then
// builds the bytes from the request's payload, which must not have
// changed since Invoke.
func (r Result) Reply() ([]byte, error) {
	if c := r.call; c != nil && c.resp.Size > len(c.resp.Payload) {
		return c.b.exe.Reply(&c.req)
	}
	return r.payload, nil
}

// Usage is the backend's additional resource consumption while serving
// load (Table 3).
type Usage struct {
	// HostCPUPercent is average host CPU utilization over the run.
	HostCPUPercent float64
	// HostMemoryMiB is added host memory.
	HostMemoryMiB float64
	// NICMemoryMiB is added SmartNIC memory.
	NICMemoryMiB float64
}

// Backend is a deploy-and-invoke serverless execution target bound to a
// discrete-event simulation.
type Backend interface {
	// Name identifies the backend in reports.
	Name() string
	// Deploy installs the workloads (compiling them for the target).
	Deploy(ws []*workloads.Workload) error
	// Invoke submits one request at the current virtual time; done
	// fires when the response has returned to the caller's NIC.
	Invoke(id uint32, payload []byte, done func(Result))
	// Usage reports added resource consumption (call after a run).
	Usage() Usage
}

// Traced is implemented by backends that can attach a request-lifecycle
// span container to each invocation. A nil tr behaves like Invoke.
type Traced interface {
	InvokeTraced(id uint32, payload []byte, tr *obs.Req, done func(Result))
}

// ErrNotDeployed is returned when Invoke precedes Deploy.
var ErrNotDeployed = errors.New("backend: no workloads deployed")

// Memory-model constants for Table 3 (documented in DESIGN.md):
// per-request working set of the data-intensive image path, and each
// backend's resident runtime overhead.
const (
	// nicRequestWorkingSetMiB is the per-in-flight-request NIC buffer
	// demand (RDMA-committed payload + output + bookkeeping).
	nicRequestWorkingSetMiB = 1.123
	// hostRequestWorkingSetMiB is the per-in-flight-request host memory
	// demand (decoded request object + response buffer).
	hostRequestWorkingSetMiB = 1.054
	// pythonRuntimeMiB is the bare-metal service's resident overhead.
	pythonRuntimeMiB = 3.5
	// containerRuntimeMiB is the Docker image layers + daemon share +
	// OpenFaaS watchdog resident overhead.
	containerRuntimeMiB = 160.5
	// nicManagementCPUPercent is the host-side cost of the λ-NIC
	// management daemon (firmware health polling only).
	nicManagementCPUPercent = 0.1
	// containerBackgroundCPUPercent is the container engine's steady
	// overhead while serving (dockerd/containerd bookkeeping, veth
	// soft-irq processing, OpenFaaS monitoring), charged on top of the
	// measured request-path utilization.
	containerBackgroundCPUPercent = 2.5
)

// LambdaNIC runs lambdas on the simulated SmartNIC.
type LambdaNIC struct {
	sim     *sim.Sim
	testbed cluster.Testbed
	nic     *nicsim.NIC
	rdma    *rdma.Engine
	exe     *mcc.Executable
	region  *rdma.Region

	// linkOpts select the firmware's execution engine and limits; set
	// before Deploy (zero value: compiled engine, default limits).
	linkOpts mcc.LinkOptions

	// maxInflight tracks the peak number of concurrent requests, for
	// NIC memory accounting.
	inflight, maxInflight int
	maxPayload            int

	// One-sided KV bypass state (EnableKVBypass): the EMEM-resident
	// table registered as an RDMA region, the QP its reads go through,
	// and hit/miss counters.
	kvBypassID  uint32
	kvTable     *kvstore.Table
	kvRegion    *rdma.Region
	kvQP        *rdma.QP
	kvHits      uint64
	kvFallbacks uint64
}

// NewLambdaNIC constructs the λ-NIC backend. dispatch selects the NIC
// scheduler policy (zero value: the hardware's uniform dispatch).
func NewLambdaNIC(s *sim.Sim, tb cluster.Testbed, dispatch nicsim.Dispatch) (*LambdaNIC, error) {
	return NewLambdaNICWithConfig(s, tb, nicsim.Config{Dispatch: dispatch})
}

// NewLambdaNICWithConfig constructs the backend over a fully specified
// NIC scheduler config — the entry point for tenant-weighted WFQ
// dispatch (Dispatch, TenantOf, TenantWeights). The config's NIC
// hardware description is taken from the testbed.
func NewLambdaNICWithConfig(s *sim.Sim, tb cluster.Testbed, nicCfg nicsim.Config) (*LambdaNIC, error) {
	nicCfg.NIC = tb.NIC
	nic, err := nicsim.New(s, nicCfg)
	if err != nil {
		return nil, err
	}
	eng := rdma.New(s, rdma.Config{
		Link:         tb.Link,
		PerPacketDMA: 100 * time.Nanosecond,
		MTU:          workloads.MTU,
	})
	return &LambdaNIC{sim: s, testbed: tb, nic: nic, rdma: eng}, nil
}

// Name implements Backend.
func (b *LambdaNIC) Name() string { return "lambda-nic" }

// NIC exposes the simulated NIC (for stats in tests and reports).
func (b *LambdaNIC) NIC() *nicsim.NIC { return b.nic }

// SetLinkOptions overrides the firmware link options (e.g. to pin the
// interpreter engine for differential runs). Call before Deploy.
func (b *LambdaNIC) SetLinkOptions(opts mcc.LinkOptions) { b.linkOpts = opts }

// Executable exposes the deployed firmware image (nil before Deploy),
// for dispatch introspection in tests and reports.
func (b *LambdaNIC) Executable() *mcc.Executable { return b.exe }

// stagingRegionBytes is the registered size of each NIC's RPC staging
// region: the bound multi-packet payloads are checked against. Commits
// into it move no bytes, so it is never backed (rdma.Region backs on
// first touch) and costs the host nothing.
const stagingRegionBytes = 64 << 20

// Firmware runs the compiler front end over the workloads — compose the
// naive Match+Lambda program, then every optimizer pass (§4.1, §5) —
// and returns the optimized program. It is read-only from here on: any
// number of NICs may Load the same one.
func Firmware(ws []*workloads.Workload) (*mcc.Program, error) {
	prog, _, err := workloads.OptimizedProgram(ws, workloads.NaiveProgramTarget)
	if err != nil {
		return nil, fmt.Errorf("lambda-nic firmware: %w", err)
	}
	return prog, nil
}

// Deploy compiles the workloads into optimized Match+Lambda firmware
// and loads it (§4.1, §5).
func (b *LambdaNIC) Deploy(ws []*workloads.Workload) error {
	prog, err := Firmware(ws)
	if err != nil {
		return err
	}
	return b.Load(prog)
}

// Load links the optimized program for this NIC and loads the image —
// the control plane compiling once and installing on every NIC. Linking
// is per NIC because the image owns its object memory and the compiled
// code points into it; the program itself is shared and not modified.
func (b *LambdaNIC) Load(prog *mcc.Program) error {
	exe, err := mcc.Link(prog, b.linkOpts)
	if err != nil {
		return fmt.Errorf("lambda-nic deploy: %w", err)
	}
	if err := b.nic.Load(exe); err != nil {
		return fmt.Errorf("lambda-nic deploy: %w", err)
	}
	b.exe = exe
	region, err := b.rdma.Register("rpc-staging", stagingRegionBytes)
	if err != nil {
		return fmt.Errorf("lambda-nic deploy: %w", err)
	}
	b.region = region
	return nil
}

// Invoke implements Backend: wire transfer to the NIC (RDMA commit for
// multi-packet RPCs), run-to-completion execution on an NPU thread, and
// the response's wire trip back.
func (b *LambdaNIC) Invoke(id uint32, payload []byte, done func(Result)) {
	b.InvokeTraced(id, payload, nil, done)
}

// EnableKVBypass arms the one-sided KV GET fast path for the given
// workload: the table (the EMEM-resident mirror of the KV store) is
// registered as an RDMA region, and GET requests for that workload are
// served by one-sided reads of the key's probe window — batched under
// a single doorbell — with a client-side scan. window bounds the QP's
// outstanding reads (0 = unlimited); it is the knob behind the
// SMART-style throughput-vs-window curve. Misses (and every non-GET)
// fall back to the lambda-invocation path.
func (b *LambdaNIC) EnableKVBypass(id uint32, table *kvstore.Table, window int) error {
	region, err := b.rdma.RegisterBuffer("kv-table", table.Bytes())
	if err != nil {
		return fmt.Errorf("lambda-nic kv bypass: %w", err)
	}
	b.kvBypassID = id
	b.kvTable = table
	b.kvRegion = region
	b.kvQP = b.rdma.NewQP(window)
	return nil
}

// BypassStats reports one-sided GETs served without a lambda (hits)
// and bypass attempts that fell back to the lambda path (fallbacks).
func (b *LambdaNIC) BypassStats() (hits, fallbacks uint64) { return b.kvHits, b.kvFallbacks }

// RDMA exposes the backend's RDMA engine (its counters).
func (b *LambdaNIC) RDMA() *rdma.Engine { return b.rdma }

// InvokeTraced implements Traced: like Invoke, additionally recording
// the transport hops (wire trips, RDMA commit) into tr and threading tr
// through the NIC so queue wait and execution are attributed too.
func (b *LambdaNIC) InvokeTraced(id uint32, payload []byte, tr *obs.Req, done func(Result)) {
	b.InvokeFlow(id, payload, 0, tr, done)
}

// InvokeFlow is InvokeTraced carrying a flow key (dispatch.FlowKey of
// client source × workload) into the NIC's per-core warm-state model.
// Zero means untracked.
func (b *LambdaNIC) InvokeFlow(id uint32, payload []byte, flow uint64, tr *obs.Req, done func(Result)) {
	if done == nil {
		done = func(Result) {}
	}
	if b.exe == nil {
		done(Result{Err: ErrNotDeployed})
		return
	}
	// One-sided fast path: a KV GET is served by RDMA reads of the
	// table's probe window, never dispatching an NPU thread. Bypass
	// requests stage no payload in NIC memory, so they skip the
	// inflight working-set accounting.
	if b.kvTable != nil && id == b.kvBypassID {
		if key, isGet := workloads.KVRequestKey(payload); isGet {
			b.invokeKVBypass(key, payload, tr, done)
			return
		}
	}
	b.invokeLambda(id, payload, flow, tr, done)
}

// invokeKVBypass serves one GET over the one-sided path: the key's
// probe window (two ranges when it wraps) is fetched by RDMA reads
// flushed under one doorbell, then scanned client-side. A miss falls
// back to the lambda path — the read round trip was the price of
// optimism.
func (b *LambdaNIC) invokeKVBypass(key string, payload []byte, tr *obs.Req, done func(Result)) {
	start := b.sim.Now()
	aOff, aLen, bOff, bLen := b.kvTable.ProbeWindow(key)
	window := make([]byte, aLen+bLen)
	remaining := 1
	if bLen > 0 {
		remaining++
	}
	complete := func() {
		remaining--
		if remaining > 0 {
			return
		}
		if tr != nil {
			tr.AddSpan(obs.StageTransport, "rdma", "one-sided-read", start, b.sim.Now())
		}
		if v, ok := kvstore.Lookup(window, key); ok {
			b.kvHits++
			done(Result{payload: append([]byte(nil), v...)})
			return
		}
		b.kvFallbacks++
		b.invokeLambda(b.kvBypassID, payload, 0, tr, done)
	}
	b.kvQP.PostRead(b.kvRegion.Key(), aOff, aLen, func(data []byte, err error) {
		if err == nil {
			copy(window[:aLen], data)
		}
		complete()
	})
	if bLen > 0 {
		b.kvQP.PostRead(b.kvRegion.Key(), bOff, bLen, func(data []byte, err error) {
			if err == nil {
				copy(window[aLen:], data)
			}
			complete()
		})
	}
	b.kvQP.RingDoorbell()
}

// invokeLambda is the lambda-invocation path shared by InvokeFlow
// and the bypass fallback.
func (b *LambdaNIC) invokeLambda(id uint32, payload []byte, flow uint64, tr *obs.Req, done func(Result)) {
	b.inflight++
	if b.inflight > b.maxInflight {
		b.maxInflight = b.inflight
	}
	if len(payload) > b.maxPayload {
		b.maxPayload = len(payload)
	}
	c := &lambdaCall{
		b:    b,
		req:  nicsim.Request{LambdaID: id, Payload: payload, Packets: workloads.Packets(len(payload)), FlowKey: flow, Trace: tr},
		sent: b.sim.Now(),
		done: done,
	}
	if c.req.Packets > 1 {
		// Multi-packet RPC: commit the payload into NIC memory over
		// RDMA; the completion event triggers the lambda (D3), which
		// reads req.Payload where it lies — the caller keeps it until
		// done — so the commit is charged but copies nothing.
		b.rdma.Commit(b.region.Key(), 0, len(payload), c.committed)
		return
	}
	// Single-packet RPC: one wire hop into the parse+match pipeline.
	wire := b.testbed.Link.OneWay(len(payload))
	if tr != nil {
		tr.AddSpan(obs.StageTransport, "net", "request-wire", c.sent, c.sent+wire)
	}
	b.sim.AfterArg(wire, injectCall, c)
}

// lambdaCall is one request on the lambda path. Its hops — wire or RDMA
// commit in, NIC, wire out — are methods on one allocation rather than
// a closure each; the two timed hops ride AfterArg.
type lambdaCall struct {
	b    *LambdaNIC
	req  nicsim.Request
	sent sim.Time
	done func(Result)
	resp nicsim.Response
}

func injectCall(c any)  { c.(*lambdaCall).inject() }
func respondCall(c any) { c.(*lambdaCall).respond() }

func (c *lambdaCall) respond() { c.finish(Result{payload: c.resp.Payload, call: c}) }

func (c *lambdaCall) finish(r Result) {
	c.b.inflight--
	c.done(r)
}

func (c *lambdaCall) committed(err error) {
	if err != nil {
		c.finish(Result{Err: err})
		return
	}
	if tr := c.req.Trace; tr != nil {
		tr.AddSpan(obs.StageTransport, "net", "rdma-commit", c.sent, c.b.sim.Now())
	}
	c.inject()
}

func (c *lambdaCall) inject() { c.b.nic.Inject(&c.req, c.injected) }

func (c *lambdaCall) injected(resp nicsim.Response, err error) {
	if err != nil {
		c.finish(Result{Err: err})
		return
	}
	// Response wire trip back to the caller.
	back := c.b.testbed.Link.OneWay(resp.Size)
	if tr := c.req.Trace; tr != nil {
		now := c.b.sim.Now()
		tr.AddSpan(obs.StageTransport, "net", "response-wire", now, now+back)
	}
	c.resp = resp
	c.b.sim.AfterArg(back, respondCall, c)
}

// Usage implements Backend: λ-NIC consumes NIC memory (firmware plus
// in-flight working sets) and near-zero host resources (Table 3).
func (b *LambdaNIC) Usage() Usage {
	firmwareMiB := float64(b.nic.MemoryUsed()) / (1 << 20)
	inflightMiB := float64(b.maxInflight) * nicRequestWorkingSetMiB
	return Usage{
		HostCPUPercent: nicManagementCPUPercent,
		HostMemoryMiB:  0,
		NICMemoryMiB:   firmwareMiB + inflightMiB,
	}
}

// Host is a CPU backend (bare-metal or container).
type Host struct {
	name    string
	sim     *sim.Sim
	testbed cluster.Testbed
	host    *cpusim.Host
	mode    cpusim.Mode

	deployed bool

	inflight, maxInflight int
}

// NewBareMetal constructs the Isolate-style bare-metal backend.
// singleCore restricts it to one hardware thread (Fig. 8's "Bare Metal
// (Single Core)").
func NewBareMetal(s *sim.Sim, tb cluster.Testbed, singleCore bool) (*Host, error) {
	return newHost(s, tb, cpusim.ModeBareMetal, singleCore)
}

// NewContainer constructs the OpenFaaS/Docker-style container backend.
func NewContainer(s *sim.Sim, tb cluster.Testbed) (*Host, error) {
	return newHost(s, tb, cpusim.ModeContainer, false)
}

// NewBareMetalQuiet is NewBareMetal without scheduling jitter: the host
// path draws nothing from the simulator's RNG, for experiments whose
// pre-drawn load schedule must be the only source of randomness.
func NewBareMetalQuiet(s *sim.Sim, tb cluster.Testbed) (*Host, error) {
	return newHostWithJitter(s, tb, cpusim.ModeBareMetal, false, false)
}

func newHost(s *sim.Sim, tb cluster.Testbed, mode cpusim.Mode, singleCore bool) (*Host, error) {
	return newHostWithJitter(s, tb, mode, singleCore, true)
}

func newHostWithJitter(s *sim.Sim, tb cluster.Testbed, mode cpusim.Mode, singleCore, jitter bool) (*Host, error) {
	h, err := cpusim.New(s, cpusim.Config{
		Host:                  tb.Host,
		Costs:                 tb.Costs,
		Mode:                  mode,
		SingleCore:            singleCore,
		ContainerExternalConn: 9500 * time.Microsecond,
		Jitter:                jitter,
	})
	if err != nil {
		return nil, err
	}
	name := mode.String()
	if singleCore {
		name += "-1core"
	}
	return &Host{name: name, sim: s, testbed: tb, host: h, mode: mode}, nil
}

// Name implements Backend.
func (h *Host) Name() string { return h.name }

// Deploy registers the workloads' CPU service profiles.
func (h *Host) Deploy(ws []*workloads.Workload) error {
	for _, w := range ws {
		if err := h.host.Deploy(w.Profile); err != nil {
			return fmt.Errorf("%s deploy %s: %w", h.name, w.Name, err)
		}
	}
	h.deployed = len(ws) > 0
	return nil
}

// Invoke implements Backend: wire trip, kernel + dispatch + execution
// on the CPU model, wire trip back.
func (h *Host) Invoke(id uint32, payload []byte, done func(Result)) {
	h.InvokeTraced(id, payload, nil, done)
}

// InvokeTraced implements Traced: the wire trips are attributed to
// transport and the whole CPU-side service (kernel, dispatch,
// execution, context switches) to the host stage — the paper's point
// is precisely that the host path is one opaque expensive stage.
func (h *Host) InvokeTraced(id uint32, payload []byte, tr *obs.Req, done func(Result)) {
	if done == nil {
		done = func(Result) {}
	}
	if !h.deployed {
		done(Result{Err: ErrNotDeployed})
		return
	}
	h.inflight++
	if h.inflight > h.maxInflight {
		h.maxInflight = h.inflight
	}
	c := &hostCall{h: h, id: id, size: len(payload), tr: tr, done: done}
	sent := h.sim.Now()
	wire := h.testbed.Link.OneWay(c.size)
	if tr != nil {
		tr.AddSpan(obs.StageTransport, "net", "request-wire", sent, sent+wire)
	}
	h.sim.AfterArg(wire, submitHostCall, c)
}

// hostCall is one request on a CPU backend. As in lambdaCall, its hops
// — wire in, the CPU model, wire out — are methods on one allocation
// rather than a closure each, and the two timed hops ride AfterArg. The
// CPU model charges by payload length, so that is all the call keeps of
// the payload.
type hostCall struct {
	h         *Host
	id        uint32
	size      int
	tr        *obs.Req
	done      func(Result)
	submitted sim.Time
	err       error
}

func submitHostCall(c any)  { c.(*hostCall).submit() }
func respondHostCall(c any) { c.(*hostCall).respond() }

func (c *hostCall) submit() {
	c.submitted = c.h.sim.Now()
	c.h.host.Submit(c.id, c.size, workloads.Packets(c.size), c.served)
}

func (c *hostCall) served(err error) {
	now := c.h.sim.Now()
	back := c.h.testbed.Link.OneWay(256)
	if tr := c.tr; tr != nil {
		tr.AddSpan(obs.StageHost, "host/"+c.h.name, "service", c.submitted, now)
		tr.AddSpan(obs.StageTransport, "net", "response-wire", now, now+back)
	}
	c.err = err
	c.h.sim.AfterArg(back, respondHostCall, c)
}

func (c *hostCall) respond() {
	c.h.inflight--
	c.done(Result{Err: c.err})
}

// Usage implements Backend: runtime overhead plus per-in-flight working
// sets on the host; no NIC memory.
func (h *Host) Usage() Usage {
	base := pythonRuntimeMiB
	if h.mode == cpusim.ModeContainer {
		base = containerRuntimeMiB
	}
	cpu := 100 * h.host.Utilization()
	if h.mode == cpusim.ModeContainer {
		cpu += containerBackgroundCPUPercent
	}
	return Usage{
		HostCPUPercent: cpu,
		HostMemoryMiB:  base + float64(h.maxInflight)*hostRequestWorkingSetMiB,
	}
}
