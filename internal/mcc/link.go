package mcc

import (
	"fmt"
	"math"
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

// Where a lambda reads its request payload: a single-packet payload
// from the packet buffer in CTM, an RDMA-committed multi-packet one
// from EMEM (§4.2.1 D3).
const (
	singlePacketLevel = nicsim.MemCTM
	multiPacketLevel  = nicsim.MemEMEM
)

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

// symRef is one instruction's link-resolved symbols: the slots of Sym
// and Sym2 (payloadRef for PayloadObject) of a memory or bulk op, or in
// sym the callee's index in Program.Funcs of an OpCall. At four bytes
// an instruction, resolving an image costs what its code does, and the
// data path indexes slices instead of looking names up.
type symRef struct{ sym, sym2 uint16 }

// payloadRef is the Sym2 slot of PayloadObject; a program has fewer
// objects and functions than it.
const payloadRef = math.MaxUint16

// denseDispatchMax bounds the lambda IDs an image's replay table
// indexes; a request for a larger ID always executes.
const denseDispatchMax = 1024

// code is what linking derives from the program alone. The images of
// one program share it (Relink).
type code struct {
	prog      *Program
	refs      [][]symRef // per function of prog.Funcs, per instruction
	match     int        // index of MatchFunction in prog.Funcs, -1 without one
	stepLimit uint64
	replay    bool

	// use is the static object analysis the replay proofs read,
	// computed by the first recording on any of the images.
	useOnce sync.Once
	use     objectUse
}

// Executable is linked firmware implementing nicsim.Program: the
// Match+Lambda image every NPU core runs. Object memory persists across
// requests (the paper's "global objects that persist state across
// runs", §4.1); Reset restores initial contents.
type Executable struct {
	*code
	slots []objectSlot

	// envSlot is a single-element cache in front of envPool: the
	// steady-state single-caller path trades one atomic swap for the
	// pool's pin/unpin round trip.
	envSlot atomic.Pointer[env]
	envPool sync.Pool

	// replay holds, by lambda ID, the recorded keys of the lambdas whose
	// NIC cost a request may replay instead of executing (replay.go).
	replay []*lambdaReplay
}

var _ nicsim.Program = (*Executable)(nil)

// Link validates the program, allocates object memory, resolves every
// symbol, and produces an executable image: the interpreter, which
// answers a request of a lambda with a native reply function from a
// recorded run of its key when one proves the NIC cost the same
// (replay.go).
func Link(p *Program) (*Executable, error) {
	return link(p, defaultStepLimit, true)
}

// LinkNoReplay is Link for an image that executes every request: the
// oracle that replays are differentially tested against.
func LinkNoReplay(p *Program) (*Executable, error) {
	return link(p, defaultStepLimit, false)
}

// link is Link with the step limit (dynamic instructions per request)
// explicit and replay optional.
func link(p *Program, stepLimit uint64, replay bool) (*Executable, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Entries) == 0 {
		return nil, fmt.Errorf("mcc: program has no lambda entries")
	}
	if len(p.Objects) >= payloadRef || len(p.Funcs) > math.MaxUint16 {
		return nil, fmt.Errorf("mcc: %d objects and %d functions exceed the linker's 16-bit symbols",
			len(p.Objects), len(p.Funcs))
	}
	// Compile-time memory assertions (§4.2.1 D2): statically provable
	// out-of-bounds accesses never reach the NIC.
	if violations := StaticCheck(p); len(violations) > 0 {
		return nil, fmt.Errorf("mcc: %d static assertion(s) failed, first: %w",
			len(violations), violations[0])
	}
	c := &code{prog: p, match: p.funcIndex(MatchFunction), stepLimit: stepLimit, replay: replay}
	c.resolve()
	return c.image(), nil
}

// Relink returns another image of e's program: its own object memory,
// at its initial contents, and its own replay recordings, sharing what
// linking derived from the program. A rack links its firmware once and
// relinks it for every NIC.
func (e *Executable) Relink() *Executable { return e.code.image() }

// image allocates a new image of the code.
func (c *code) image() *Executable {
	e := &Executable{code: c, slots: make([]objectSlot, len(c.prog.Objects))}
	for i, o := range c.prog.Objects {
		e.slots[i] = objectSlot{
			name:   o.Name,
			mem:    make([]byte, o.Size),
			init:   o.Init,
			level:  o.EffectiveLevel(),
			oobErr: fmt.Errorf("%w: object %s", ErrOutOfBounds, o.Name),
		}
	}
	e.Reset()
	if c.replay {
		e.armReplay()
	}
	return e
}

// resolve fills the symbol references. Validate has checked that every
// symbol names an object or function.
func (c *code) resolve() {
	p := c.prog
	objects := make(map[string]uint16, len(p.Objects))
	for i, o := range p.Objects {
		objects[o.Name] = uint16(i)
	}
	funcs := make(map[string]uint16, len(p.Funcs))
	for i, f := range p.Funcs {
		funcs[f.Name] = uint16(i)
	}
	all := make([]symRef, p.StaticInstructions())
	c.refs = make([][]symRef, len(p.Funcs))
	for i, f := range p.Funcs {
		refs := all[:len(f.Body):len(f.Body)]
		all = all[len(f.Body):]
		for pc, in := range f.Body {
			switch in.Op {
			case OpCall:
				refs[pc].sym = funcs[in.Sym]
			case OpLoad, OpStore, OpLoadW, OpStoreW, OpEmit, OpHash:
				refs[pc].sym = objects[in.Sym]
			case OpMemcpy, OpGray:
				refs[pc] = symRef{objects[in.Sym], payloadRef}
				if in.Sym2 != PayloadObject {
					refs[pc].sym2 = objects[in.Sym2]
				}
			}
		}
		c.refs[i] = refs
	}
}

// entry returns the index of the function a request for lambda id
// enters — the match stage when the program has one — or -1.
func (c *code) entry(id uint32) int {
	if c.match >= 0 {
		return c.match
	}
	if name, ok := c.prog.Entries[id]; ok {
		return c.prog.funcIndex(name)
	}
	return -1
}

// Reset restores every object to its initial contents in place, keeping
// each slot's storage.
func (e *Executable) Reset() {
	for i := range e.slots {
		s := &e.slots[i]
		clear(s.mem)
		copy(s.mem, s.init)
	}
}

// Program returns the linked program (read-only use).
func (e *Executable) Program() *Program { return e.prog }

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

// getEnv takes an execution context from the pool.
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
	en.rec = nil     // nor a recording's shadows
	if e.envSlot.CompareAndSwap(nil, en) {
		return
	}
	e.envPool.Put(en)
}

// prepare fills a request's initial machine state.
func (e *Executable) prepare(en *env, req *nicsim.Request) {
	en.payload = req.Payload
	en.payloadLevel = singlePacketLevel
	if req.Packets > 1 {
		en.payloadLevel = multiPacketLevel
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
	if r := e.replayer(req.LambdaID); r != nil {
		if resp, done, err := r.serve(e, req); done {
			return resp, err
		}
	}
	return e.exec(req, nil)
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
	en, err := e.execute(req, nil)
	if fn != nil {
		fn(en.response(err))
	}
	e.putEnv(en)
	return err
}

// exec executes req, recorded by rec when it is set, and returns a
// reply the caller keeps.
func (e *Executable) exec(req *nicsim.Request, rec *recorder) (nicsim.Response, error) {
	en, err := e.execute(req, rec)
	resp := en.response(err)
	if err == nil {
		en.resp = nil // ownership moves to the caller
	}
	e.putEnv(en)
	return resp, err
}

// execute runs req on the interpreter in a pooled env, recorded by rec
// when it is set. The env is the caller's to read and put back.
func (e *Executable) execute(req *nicsim.Request, rec *recorder) (*env, error) {
	en := e.getEnv()
	en.rec = rec
	e.prepare(en, req)
	fi := e.entry(req.LambdaID)
	if fi < 0 {
		return en, fmt.Errorf("%w: %d", ErrNoEntry, req.LambdaID)
	}
	status, err := en.run(fi)
	if err != nil {
		return en, fmt.Errorf("lambda %d: %w", req.LambdaID, err)
	}
	en.headers[FieldStatus] = status
	return en, nil
}

// RunStandalone executes a single named function outside the NIC. It
// returns the status, response bytes (the caller's to keep), and
// statistics.
func (e *Executable) RunStandalone(fn string, payload []byte, headers map[int]int64) (int64, []byte, nicsim.ExecStats, error) {
	fi := e.prog.funcIndex(fn)
	if fi < 0 {
		return 0, nil, nicsim.ExecStats{}, fmt.Errorf("mcc: unknown function %q", fn)
	}
	en := e.getEnv()
	en.payload = payload
	en.payloadLevel = singlePacketLevel
	for k, v := range headers {
		if k >= 0 && k < NumFields {
			en.headers[k] = v
		}
	}
	status, err := en.run(fi)
	resp, stats := en.resp, en.stats
	en.resp = nil // the caller keeps the partial response
	e.putEnv(en)
	return status, resp, stats, err
}
