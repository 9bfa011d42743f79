package mcc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lambdanic/internal/nicsim"
)

// Well-known symbols.
const (
	// PayloadObject names the request payload pseudo-object readable by
	// bulk operations.
	PayloadObject = "__payload"
	// MatchFunction, when present, is the synthesized parse+match entry
	// run for every request (internal/matchlambda generates it). When
	// absent, the linker dispatches directly to the lambda entry.
	MatchFunction = "__match"
)

// Engine selects the execution backend for a linked image.
type Engine int

const (
	// EngineCompiled (the default) executes closure-compiled function
	// bodies with fused basic blocks and link-time symbol resolution.
	EngineCompiled Engine = iota
	// EngineInterp executes the IR through the reference switch
	// interpreter. The compiled engine is differentially tested against
	// it; ExecStats must match bit-for-bit.
	EngineInterp
)

// String names the engine for reports and benchmarks.
func (e Engine) String() string {
	if e == EngineInterp {
		return "interp"
	}
	return "compiled"
}

// LinkOptions tune the produced executable.
type LinkOptions struct {
	// StepLimit bounds dynamic instructions per request; 0 uses the
	// default.
	StepLimit uint64
	// SinglePacketLevel is where single-packet payloads live when the
	// lambda reads them (the packet buffer in CTM by default).
	SinglePacketLevel nicsim.MemLevel
	// MultiPacketLevel is where RDMA-committed multi-packet payloads
	// live (EMEM by default; §4.2.1 D3).
	MultiPacketLevel nicsim.MemLevel
	// Engine selects the execution backend (compiled by default).
	Engine Engine
}

// objectSlot is a linked object: name resolution happened at link time,
// so the data path indexes a dense slice instead of a string-keyed map.
// The out-of-bounds error is pre-built so faulting programs do not
// allocate per miss.
type objectSlot struct {
	name   string
	mem    []byte
	init   []byte
	level  nicsim.MemLevel
	oobErr error
}

// Executable is linked firmware implementing nicsim.Program: the
// Match+Lambda image every NPU core runs. Object memory persists across
// requests (the paper's "global objects that persist state across
// runs", §4.1); Reset restores initial contents.
type Executable struct {
	prog      *Program
	slots     []objectSlot
	slotIndex map[string]int // control-plane name lookups only
	stepLimit uint64
	opts      LinkOptions
	engine    Engine

	// Compiled backend state (built for every image; unused when the
	// interpreter engine is selected).
	funcs    map[string]*compiledFunc
	dispatch *jumpTable
	// envSlot is a single-element cache in front of envPool: the
	// steady-state single-caller path trades one atomic swap for the
	// pool's pin/unpin round trip.
	envSlot atomic.Pointer[env]
	envPool sync.Pool

	// replay holds, by lambda ID, the recorded keys of the lambdas whose
	// NIC cost a request may replay instead of executing (replay.go);
	// use is the static object analysis their proofs read, computed
	// by the first recording.
	replay  []*lambdaReplay
	useOnce sync.Once
	use     objectUse
}

var _ nicsim.Program = (*Executable)(nil)

// Link validates the program, allocates object memory, resolves every
// symbol, and produces an executable image.
func Link(p *Program, opts LinkOptions) (*Executable, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Entries) == 0 {
		return nil, fmt.Errorf("mcc: program has no lambda entries")
	}
	// Compile-time memory assertions (§4.2.1 D2): statically provable
	// out-of-bounds accesses never reach the NIC.
	if violations := StaticCheck(p); len(violations) > 0 {
		return nil, fmt.Errorf("mcc: %d static assertion(s) failed, first: %w",
			len(violations), violations[0])
	}
	if opts.StepLimit == 0 {
		opts.StepLimit = defaultStepLimit
	}
	if opts.SinglePacketLevel == 0 {
		opts.SinglePacketLevel = nicsim.MemCTM
	}
	if opts.MultiPacketLevel == 0 {
		opts.MultiPacketLevel = nicsim.MemEMEM
	}
	e := &Executable{
		prog:      p,
		slots:     make([]objectSlot, len(p.Objects)),
		slotIndex: make(map[string]int, len(p.Objects)),
		stepLimit: opts.StepLimit,
		opts:      opts,
		engine:    opts.Engine,
	}
	for i, o := range p.Objects {
		e.slots[i] = objectSlot{
			name:   o.Name,
			mem:    make([]byte, o.Size),
			init:   o.Init,
			level:  o.EffectiveLevel(),
			oobErr: fmt.Errorf("%w: object %s", ErrOutOfBounds, o.Name),
		}
		e.slotIndex[o.Name] = i
	}
	e.Reset()
	compileProgram(e)
	e.armReplay()
	return e, nil
}

// Reset restores every object to its initial contents, in place:
// compiled closures hold slot pointers, so backing arrays survive.
func (e *Executable) Reset() {
	for i := range e.slots {
		s := &e.slots[i]
		clear(s.mem)
		copy(s.mem, s.init)
	}
}

// slot resolves an object name, or nil (control-plane/compile-time
// use only; the data path holds direct slot pointers).
func (e *Executable) slot(name string) *objectSlot {
	if i, ok := e.slotIndex[name]; ok {
		return &e.slots[i]
	}
	return nil
}

// Program returns the linked program (read-only use).
func (e *Executable) Program() *Program { return e.prog }

// Engine reports which execution backend the image uses.
func (e *Executable) Engine() Engine { return e.engine }

// DispatchKind reports how the compiled engine enters the image:
// "jump-table" (reduced match stage keyed on WorkloadID), "match-chain"
// (a __match function executed as compiled code), or "direct" (per-ID
// entry lookup). The interpreter engine reports "interp".
func (e *Executable) DispatchKind() string {
	switch {
	case e.engine == EngineInterp:
		return "interp"
	case e.dispatch != nil:
		return "jump-table"
	case e.funcs[MatchFunction] != nil:
		return "match-chain"
	default:
		return "direct"
	}
}

// Handles reports whether the image has a lambda for the ID.
func (e *Executable) Handles(id uint32) bool {
	_, ok := e.prog.Entries[id]
	return ok
}

// StaticInstructions is the image code size.
func (e *Executable) StaticInstructions() int { return e.prog.StaticInstructions() }

// MemoryBytes reports per-level memory demand from object placement.
func (e *Executable) MemoryBytes() map[nicsim.MemLevel]int {
	out := make(map[nicsim.MemLevel]int)
	for _, o := range e.prog.Objects {
		out[o.EffectiveLevel()] += o.Size
	}
	return out
}

// getEnv takes an execution context from the pool (compiled engine).
func (e *Executable) getEnv() *env {
	if en := e.envSlot.Swap(nil); en != nil {
		en.reset()
		return en
	}
	v := e.envPool.Get()
	if v == nil {
		return &env{exe: e}
	}
	en := v.(*env)
	en.reset()
	return en
}

func (e *Executable) putEnv(en *env) {
	en.payload = nil // do not retain the caller's buffer
	if e.envSlot.CompareAndSwap(nil, en) {
		return
	}
	e.envPool.Put(en)
}

// prepare fills a request's initial machine state.
func (e *Executable) prepare(en *env, req *nicsim.Request) {
	en.payload = req.Payload
	en.payloadLevel = e.opts.SinglePacketLevel
	if req.Packets > 1 {
		en.payloadLevel = e.opts.MultiPacketLevel
	}
	en.headers[FieldWorkloadID] = int64(req.LambdaID)
	en.headers[FieldPayloadLen] = int64(len(req.Payload))
}

// Serve implements nicsim.Program: it runs the image for one request —
// parse, match (the __match function when present), then the lambda —
// charging instructions and memory accesses, or answers from a recorded
// run of the request's key (replay.go) with the reply's length and no
// bytes. An executed reply is the caller's to keep.
func (e *Executable) Serve(req *nicsim.Request) (nicsim.Response, error) {
	if e.engine == EngineInterp {
		return e.executeInterp(req, nil)
	}
	if r := e.replayer(req.LambdaID); r != nil {
		if resp, done, err := r.serve(e, req); done {
			return resp, err
		}
	}
	en := e.getEnv()
	e.prepare(en, req)
	status, err := e.runCompiled(en, req)
	if err != nil {
		resp := nicsim.Response{Stats: en.stats}
		noEntry := err == ErrNoEntry
		e.putEnv(en)
		if noEntry {
			return nicsim.Response{}, fmt.Errorf("%w: %d", ErrNoEntry, req.LambdaID)
		}
		return resp, fmt.Errorf("lambda %d: %w", req.LambdaID, err)
	}
	en.headers[FieldStatus] = status
	resp := nicsim.Response{Payload: en.resp, Size: len(en.resp), Stats: en.stats}
	en.resp = nil // ownership moves to the caller
	e.putEnv(en)
	return resp, nil
}

// Execute is Serve for a caller that reads the reply: the bytes of a
// replayed one are built by its lambda's native function (Reply).
func (e *Executable) Execute(req *nicsim.Request) (nicsim.Response, error) {
	resp, err := e.Serve(req)
	if err == nil && resp.Size > len(resp.Payload) {
		resp.Payload, err = e.Reply(req)
	}
	return resp, err
}

// Reply builds the reply Serve replayed for req without building it:
// the native reply of req's lambda.
func (e *Executable) Reply(req *nicsim.Request) ([]byte, error) {
	r := e.replayer(req.LambdaID)
	if r == nil {
		return nil, fmt.Errorf("mcc: lambda %d never replays", req.LambdaID)
	}
	return r.native(req.Payload)
}

// ExecutePooled is Execute for steady-state data paths: the response
// (including its payload bytes) is only valid inside fn, after which
// the buffers return to the pool. Steady-state execution is 0 allocs
// per op. The returned error matches Execute's.
func (e *Executable) ExecutePooled(req *nicsim.Request, fn func(nicsim.Response)) error {
	if e.engine == EngineInterp {
		resp, err := e.executeInterp(req, nil)
		if fn != nil {
			fn(resp)
		}
		return err
	}
	if r := e.replayer(req.LambdaID); r != nil {
		if resp, done, err := r.serve(e, req); done {
			if fn != nil {
				if err == nil && resp.Size > len(resp.Payload) {
					resp.Payload, err = r.native(req.Payload)
				}
				fn(resp)
			}
			return err
		}
	}
	en := e.getEnv()
	e.prepare(en, req)
	status, err := e.runCompiled(en, req)
	if err != nil {
		noEntry := err == ErrNoEntry
		if fn != nil && !noEntry {
			fn(nicsim.Response{Stats: en.stats})
		} else if fn != nil {
			fn(nicsim.Response{})
		}
		e.putEnv(en)
		if noEntry {
			return fmt.Errorf("%w: %d", ErrNoEntry, req.LambdaID)
		}
		return fmt.Errorf("lambda %d: %w", req.LambdaID, err)
	}
	en.headers[FieldStatus] = status
	if fn != nil {
		fn(nicsim.Response{Payload: en.resp, Size: len(en.resp), Stats: en.stats})
	}
	e.putEnv(en)
	return err
}

// runCompiled dispatches a prepared request through the compiled
// backend: jump table when the reduced match stage was recognized,
// compiled __match chain otherwise, direct entry when there is no
// match stage.
func (e *Executable) runCompiled(en *env, req *nicsim.Request) (int64, error) {
	if e.dispatch != nil {
		return e.dispatch.run(en)
	}
	if mf := e.funcs[MatchFunction]; mf != nil {
		return mf.run(en)
	}
	name, ok := e.prog.Entries[req.LambdaID]
	if !ok {
		return 0, ErrNoEntry
	}
	return e.funcs[name].run(en)
}

// executeInterp is the reference interpreter data path; a non-nil rec
// records the run (replay.go).
func (e *Executable) executeInterp(req *nicsim.Request, rec *recorder) (nicsim.Response, error) {
	env := env{exe: e, rec: rec}
	e.prepare(&env, req)

	entry := e.prog.Func(MatchFunction)
	if entry == nil {
		name, ok := e.prog.Entries[req.LambdaID]
		if !ok {
			return nicsim.Response{}, fmt.Errorf("%w: %d", ErrNoEntry, req.LambdaID)
		}
		entry = e.prog.Func(name)
	}
	status, err := env.run(entry)
	if err != nil {
		return nicsim.Response{Stats: env.stats}, fmt.Errorf("lambda %d: %w", req.LambdaID, err)
	}
	env.headers[FieldStatus] = status
	return nicsim.Response{Payload: env.resp, Size: len(env.resp), Stats: env.stats}, nil
}

// RunStandalone executes a single named function outside the NIC; the
// tests drive both engines through it. It returns the status, response
// bytes, and statistics.
func (e *Executable) RunStandalone(fn string, payload []byte, headers map[int]int64) (int64, []byte, nicsim.ExecStats, error) {
	if e.engine == EngineInterp {
		f := e.prog.Func(fn)
		if f == nil {
			return 0, nil, nicsim.ExecStats{}, fmt.Errorf("mcc: unknown function %q", fn)
		}
		env := env{exe: e, payload: payload, payloadLevel: e.opts.SinglePacketLevel}
		if env.payloadLevel == 0 {
			env.payloadLevel = nicsim.MemCTM
		}
		for k, v := range headers {
			if k >= 0 && k < NumFields {
				env.headers[k] = v
			}
		}
		status, err := env.run(f)
		return status, env.resp, env.stats, err
	}
	cf := e.funcs[fn]
	if cf == nil {
		return 0, nil, nicsim.ExecStats{}, fmt.Errorf("mcc: unknown function %q", fn)
	}
	en := e.getEnv()
	en.payload = payload
	en.payloadLevel = e.opts.SinglePacketLevel
	if en.payloadLevel == 0 {
		en.payloadLevel = nicsim.MemCTM
	}
	for k, v := range headers {
		if k >= 0 && k < NumFields {
			en.headers[k] = v
		}
	}
	status, err := cf.run(en)
	resp := en.resp
	en.resp = nil // detached: the caller keeps the partial response
	stats := en.stats
	e.putEnv(en)
	return status, resp, stats, err
}
