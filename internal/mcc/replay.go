package mcc

// This file lets a compiled image answer a request without executing
// its lambda when the lambda's NIC cost provably ignores the request's
// body. The cycle model reads nothing from an execution but its
// ExecStats and reply length, so for such a lambda those of one
// execution are those of every execution with the same key: lambda ID,
// payload length, payload level (multi-packet or not), the payload
// bytes that steering header fields were parsed from, and the guard
// bytes — the object state from before the run that the run read. The
// first request with a new key runs on the interpreter with a taint
// shadow attached (the recorder below); it arms the key when the run
// shows that
//
//	(a) no value derived from the request's body — a PktLoad, a bulk
//	    read of __payload — reaches a branch condition, a memory address
//	    or a bulk/emit length. A header slot a parser filled from payload
//	    bytes at constant offsets may: those bytes join the key, at most
//	    maxKeyBytes of them;
//	(b) every byte of written-to object state the run read before
//	    writing it sits at an address computed from immediates and the
//	    key alone, and there are at most maxGuardBytes of them: they
//	    become the guard, compared on every later request;
//	(c) every store it made lands in an object whose every read,
//	    anywhere in the image, follows stores covering it in the same
//	    basic block (objectUse.uncovered), so no execution can see a
//	    skipped store;
//	(d) it did not fail, and the lambda's Program.Native function
//	    returns the same bytes for the request as the IR did.
//
// An armed key answers with the recorded stats and reply length; only a
// caller that reads the reply (Execute) has Native build its bytes. A
// key that fails a rule is recorded too, as one that executes. Reset
// needs no hook: it restores the state a cold key was recorded on, so
// the next request matches that key again.

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"lambdanic/internal/nicsim"
)

const (
	// maxGuardBytes bounds the object state one key may include.
	maxGuardBytes = 64
	// maxKeyBytes bounds the payload bytes one key may include.
	maxKeyBytes = 16
	// maxRecordings bounds the keys one lambda records on one image;
	// requests with later keys execute without recording.
	maxRecordings = 8
)

// lambdaReplay is one lambda's recorded keys on one image.
type lambdaReplay struct {
	name   string
	native func([]byte) ([]byte, error)
	mu     sync.Mutex
	recs   []*recording
}

// recording is one key and what its first run proved about it.
type recording struct {
	n      int
	multi  bool
	keyed  uint64 // payload offsets in the key, one bit each
	key    []byte // their values, in offset order
	guards []guard
	size   int
	stats  nicsim.ExecStats
	armed  bool
	reason string
}

// guard is a run of object bytes a key includes, with their values.
type guard struct {
	slot *objectSlot
	off  int
	val  []byte
}

func (rec *recording) matches(req *nicsim.Request) bool {
	if rec.n != len(req.Payload) || rec.multi != (req.Packets > 1) {
		return false
	}
	k := 0
	for m := rec.keyed; m != 0; m &= m - 1 {
		if req.Payload[bits.TrailingZeros64(m)] != rec.key[k] {
			return false
		}
		k++
	}
	for _, g := range rec.guards {
		if !bytes.Equal(g.slot.mem[g.off:g.off+len(g.val)], g.val) {
			return false
		}
	}
	return true
}

// armReplay builds the replay table of a compiled image: one entry per
// lambda that has a native function, indexed by lambda ID (IDs past the
// dense dispatch range always execute).
func (e *Executable) armReplay() {
	if e.engine != EngineCompiled {
		return
	}
	for id, native := range e.prog.Native {
		entry, ok := e.prog.Entries[id]
		if !ok || id >= denseDispatchMax {
			continue
		}
		if need := int(id) + 1; need > len(e.replay) {
			e.replay = append(e.replay, make([]*lambdaReplay, need-len(e.replay))...)
		}
		e.replay[id] = &lambdaReplay{name: entry, native: native}
	}
}

// uses returns the image's objectUse, computing it on first use.
func (e *Executable) uses() objectUse {
	e.useOnce.Do(func() { e.use = useOfObjects(e.prog) })
	return e.use
}

// replayer returns the replay state of a lambda, nil when it always
// executes.
func (e *Executable) replayer(id uint32) *lambdaReplay {
	if id < uint32(len(e.replay)) {
		return e.replay[id]
	}
	return nil
}

// serve answers req from an armed recording of its key — the reply's
// length and no bytes — or records the key by executing req when it has
// none; done is false when the compiled engine is to execute req.
func (r *lambdaReplay) serve(e *Executable, req *nicsim.Request) (resp nicsim.Response, done bool, err error) {
	r.mu.Lock()
	var rec *recording
	for _, c := range r.recs {
		if c.matches(req) {
			rec = c
			break
		}
	}
	full := len(r.recs) >= maxRecordings
	r.mu.Unlock()
	switch {
	case rec != nil && rec.armed:
		if raceEnabled {
			r.twin(e, req, rec)
		}
		return nicsim.Response{Size: rec.size, Stats: rec.stats}, true, nil
	case rec != nil || full:
		return resp, false, nil
	}
	resp, rec, err = e.record(req, r.native)
	r.mu.Lock()
	if len(r.recs) < maxRecordings {
		r.recs = append(r.recs, rec)
	}
	r.mu.Unlock()
	return resp, true, err
}

// twin executes the IR for a replayed request and panics, naming the
// lambda, the key and the first differing field, unless the IR's stats
// and reply length are the recording's and its reply is the native
// one. Race builds run it on every replay.
func (r *lambdaReplay) twin(e *Executable, req *nicsim.Request, rec *recording) {
	want, err := e.executeInterp(req, nil)
	var diff string
	switch {
	case err != nil:
		diff = "error: the IR fails: " + err.Error()
	case rec.stats.Instructions != want.Stats.Instructions:
		diff = fmt.Sprintf("Instructions: replayed %d, IR %d", rec.stats.Instructions, want.Stats.Instructions)
	case rec.stats.MemAccesses != want.Stats.MemAccesses:
		diff = fmt.Sprintf("MemAccesses: replayed %v, IR %v", rec.stats.MemAccesses, want.Stats.MemAccesses)
	case rec.size != want.Size:
		diff = fmt.Sprintf("reply length: replayed %d, IR %d", rec.size, want.Size)
	default:
		out, nerr := r.native(req.Payload)
		if nerr == nil && bytes.Equal(out, want.Payload) {
			return
		}
		diff = fmt.Sprintf("reply: native %x (%v), IR %x", out, nerr, want.Payload)
	}
	panic(fmt.Sprintf("mcc: replayed %s (payload %d B, multi-packet %v, %s) differs from the IR: %s",
		r.name, rec.n, rec.multi, rec.reason, diff))
}

// Explain runs req through the image the way the first request of a new
// key runs — on the interpreter, with the replay proof attached — and
// returns the decision for that key and its reason, e.g. "replayed:
// guard lib_state[0:8]; key header arg0" or "executed: ld f+1 address
// depends on payload". Like Execute it updates object memory; it
// records nothing, so later requests are served as if it had not run.
func (e *Executable) Explain(req *nicsim.Request) string {
	_, rec, _ := e.record(req, e.prog.Native[req.LambdaID])
	if rec.armed {
		return "replayed: " + rec.reason
	}
	return "executed: " + rec.reason
}

// record executes req on the interpreter under a recorder and returns
// Execute's result together with the recording its key earns. A nil
// native never arms the key.
func (e *Executable) record(req *nicsim.Request, native func([]byte) ([]byte, error)) (nicsim.Response, *recording, error) {
	r := &recorder{e: e, use: e.uses(), mem: make([][]label, len(e.slots))}
	resp, err := e.executeInterp(req, r)
	rec := &recording{n: len(req.Payload), multi: req.Packets > 1, keyed: r.keyed,
		size: resp.Size, stats: resp.Stats, guards: r.guards}
	for m := r.keyed; m != 0; m &= m - 1 {
		rec.key = append(rec.key, req.Payload[bits.TrailingZeros64(m)])
	}
	why := slices.DeleteFunc([]string{r.reject, r.pin}, func(s string) bool { return s == "" })
	switch {
	case err != nil:
		why = append(why, "the run fails: "+err.Error())
	case len(why) > 0:
	case native == nil:
		why = append(why, "no native reply function")
	default:
		if out, nerr := native(req.Payload); nerr != nil {
			why = append(why, "the native reply fails: "+nerr.Error())
		} else if !bytes.Equal(out, resp.Payload) {
			why = append(why, "the native reply differs from the IR's")
		}
	}
	rec.armed = len(why) == 0
	rec.reason = strings.Join(why, "; ")
	if rec.armed {
		rec.reason = r.keyReason()
	}
	return resp, rec, err
}

// keyReason names what an armed key holds besides length and level: its
// guard runs and the header fields its payload bytes were parsed into.
func (r *recorder) keyReason() string {
	var parts, runs, fields []string
	for _, g := range r.guards {
		runs = append(runs, fmt.Sprintf("%s[%d:%d]", g.slot.name, g.off, g.off+len(g.val)))
	}
	if len(runs) > 0 {
		parts = append(parts, "guard "+strings.Join(runs, ", "))
	}
	for f, t := range r.hdr {
		if t.l >= fromPayload && t.src&r.keyed != 0 {
			fields = append(fields, fieldNames[f])
		}
	}
	if len(fields) > 0 {
		parts = append(parts, "key header "+strings.Join(fields, ", "))
	}
	if len(parts) == 0 {
		return "no guard"
	}
	return strings.Join(parts, "; ")
}

// label is what the recorder knows a value was computed from. Combining
// values keeps the larger label.
type label uint8

const (
	clean       label = iota // immediates, the key, objects nothing writes
	persistent               // object state from before the run: a guard
	fromPayload              // request bytes
	fromHeader               // + slot: a header slot filled from request bytes
)

var fieldNames = [NumFields]string{"workload_id", "request_id", "flags", "seq", "total",
	"payload_len", "src_node", "arg0", "arg1", "status"}

func (l label) String() string {
	if l == fromPayload {
		return "payload"
	}
	return "header " + fieldNames[l-fromHeader]
}

// taint is a value's label and, for one computed from the request, the
// payload bytes it was computed from: bit i for payload[i] read at a
// constant offset i < 63, the body bit for any other.
type taint struct {
	l   label
	src uint64
}

const body = 1 << 63

func (t taint) join(u taint) taint { return taint{max(t.l, u.l), t.src | u.src} }

// recorder is the taint shadow one interpreter run carries: a taint per
// register and header slot, a label per object byte, the guard and the
// key read so far, and the first breach of rules (a)/(b) and of rule
// (c).
type recorder struct {
	e       *Executable
	use     objectUse
	reg     [NumRegs]taint
	hdr     [NumFields]taint
	mem     [][]label // per slot, nil until touched; 0 = untouched, else label+1
	guards  []guard
	guarded int
	keyed   uint64
	reject  string
	pin     string
}

// step shadows one instruction before the interpreter executes it.
// Operands a fault rejects are left alone: a failed run is never armed.
func (r *recorder) step(en *env, f *Function, pc int, in *Instr) {
	regs := &en.regs
	where := func() string { return fmt.Sprintf("%s %s+%d", in.Op, f.Name, pc) }
	switch in.Op {
	case OpMovImm, OpPktLen:
		r.set(in.Rd, taint{})
	case OpMov:
		r.set(in.Rd, r.reg[in.Rs1])
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr, OpEq, OpLt:
		r.set(in.Rd, r.reg[in.Rs1].join(r.reg[in.Rs2]))
	case OpBrz, OpBrnz:
		r.steer(where, "", r.reg[in.Rs1])
	case OpLoad, OpLoadW, OpStore, OpStoreW:
		at := r.steer(where, "address ", r.reg[in.Rs1])
		width := int64(1)
		if in.Op == OpLoadW || in.Op == OpStoreW {
			width = 8
		}
		switch addr := regs[in.Rs1] + in.Imm; {
		case in.Op == OpStore || in.Op == OpStoreW:
			r.write(where, in.Sym, addr, width, r.reg[in.Rs2].l)
		case r.use.dead[f][pc]:
			r.set(in.Rd, taint{}) // the value reaches nothing: not a read
		default:
			r.set(in.Rd, r.read(where, in.Sym, addr, width, at))
		}
	case OpHdrGet:
		if in.Imm >= 0 && in.Imm < NumFields {
			t := r.hdr[in.Imm]
			if t.l >= fromPayload {
				t.l = fromHeader + label(in.Imm)
			}
			r.set(in.Rd, t)
		}
	case OpHdrSet:
		if in.Imm >= 0 && in.Imm < NumFields {
			r.hdr[in.Imm] = r.reg[in.Rs1]
		}
	case OpPktLoad:
		at := r.steer(where, "address ", r.reg[in.Rs1])
		src := uint64(body)
		if a := regs[in.Rs1] + in.Imm; at.l == clean && a >= 0 && a < 63 {
			src = 1 << a
		}
		r.set(in.Rd, taint{fromPayload, src})
	case OpEmit, OpHash:
		at := r.steer(where, "address ", r.reg[in.Rs1])
		r.steer(where, "length ", r.reg[in.Rs2])
		if t := r.read(where, in.Sym, regs[in.Rs1], regs[in.Rs2], at); in.Op == OpHash {
			r.set(in.Rd, t)
		}
	case OpMemcpy, OpGray:
		at := r.steer(where, "address ", r.reg[in.Rd].join(r.reg[in.Rs1]))
		r.steer(where, "length ", r.reg[in.Rs2])
		n, src := regs[in.Rs2], fromPayload
		if in.Sym2 != PayloadObject {
			src = r.read(where, in.Sym2, regs[in.Rs1], n, at).l
		}
		if in.Op == OpGray {
			n /= 4
		}
		r.write(where, in.Sym, regs[in.Rd], n, src)
	}
}

func (r *recorder) set(rd Reg, t taint) {
	if rd != RegZero {
		r.reg[rd] = t
	}
}

// steer enforces rule (a) on a value that steers the run — a branch
// condition, an address, a length — and returns its taint as the key
// leaves it. A value parsed into header slots from at most maxKeyBytes
// payload bytes at constant offsets adds them to the key, and is clean.
func (r *recorder) steer(where func() string, what string, t taint) taint {
	switch {
	case t.l < fromPayload:
		return t
	case t.l > fromPayload && t.src&body == 0 && bits.OnesCount64(r.keyed|t.src) <= maxKeyBytes:
		r.keyed |= t.src
	case r.reject == "":
		r.reject = fmt.Sprintf("%s %sdepends on %s", where(), what, t.l)
	}
	return taint{}
}

// span resolves object bytes [addr, addr+n) to their slot, allocating
// its shadow on first touch; ok is false when the access faults.
func (r *recorder) span(sym string, addr, n int64) (i int, ok bool) {
	i, ok = r.e.slotIndex[sym]
	if !ok || addr < 0 || n < 0 || addr+n > int64(len(r.e.slots[i].mem)) {
		return 0, false
	}
	if r.mem[i] == nil {
		r.mem[i] = make([]label, len(r.e.slots[i].mem))
	}
	return i, true
}

// read returns the taint of object bytes [addr, addr+n) read at an
// address tainted at, and enforces rule (b) on the bytes of written-to
// objects that the run has not written.
func (r *recorder) read(where func() string, sym string, addr, n int64, at taint) taint {
	i, ok := r.span(sym, addr, n)
	if !ok {
		return taint{}
	}
	slot, sh, l := &r.e.slots[i], r.mem[i], clean
	for b := addr; b < addr+n; b++ {
		switch {
		case sh[b] != 0:
			l = max(l, sh[b]-1)
		case !r.use.written[i]:
			// Still its Init: a link-time constant.
		case at.l != clean:
			if r.reject == "" {
				r.reject = fmt.Sprintf("%s reads %s at a non-constant address", where(), sym)
			}
			return taint{l: max(l, persistent)}
		case r.guarded == maxGuardBytes:
			if r.reject == "" {
				r.reject = fmt.Sprintf("%s reads more than %d bytes of object state", where(), maxGuardBytes)
			}
			return taint{l: max(l, persistent)}
		default:
			if k := len(r.guards) - 1; k >= 0 && r.guards[k].slot == slot && r.guards[k].off+len(r.guards[k].val) == int(b) {
				r.guards[k].val = append(r.guards[k].val, slot.mem[b])
			} else {
				r.guards = append(r.guards, guard{slot: slot, off: int(b), val: []byte{slot.mem[b]}})
			}
			r.guarded++
			sh[b] = persistent + 1
			l = max(l, persistent)
		}
	}
	if l >= fromPayload {
		return taint{l, body} // which bytes is not tracked through memory
	}
	return taint{l: l}
}

// write labels object bytes [addr, addr+n) and enforces rule (c).
func (r *recorder) write(where func() string, sym string, addr, n int64, l label) {
	i, ok := r.span(sym, addr, n)
	if !ok {
		return
	}
	for b := addr; b < addr+n; b++ {
		r.mem[i][b] = l + 1
	}
	if reader := r.use.uncovered[i]; reader != "" && r.pin == "" {
		r.pin = fmt.Sprintf("%s writes %s, which %s reads before writing", where(), sym, reader)
	}
}
