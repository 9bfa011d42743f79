package mcc

// This file implements the compiled execution backend: at link time
// every Sym/Sym2 is resolved to its object slot and each function body
// is compiled into a flat closure array. Straight-line runs of
// ALU/header ops are fused into superinstructions that charge the step
// counter once per basic block, and bounds/field-range checks are
// hoisted to compile time where operands are immediates. The backend
// must be observationally identical to the interpreter — same status,
// response bytes, ExecStats (instruction and per-level access counts),
// and error sentinels, bit for bit — which the differential tests in
// diff_test.go enforce.

import (
	"slices"

	"lambdanic/internal/nicsim"
)

// closure executes one compiled instruction (or fused block) and
// returns the next pc, or retPC when the function returned.
type closure func(*env) (int, error)

// uop is a decoded side-effect-only component of a superinstruction:
// no control flow, no faulting, its step charge accounted at block
// level. Fused runs execute as a flat []uop walked by an inline switch
// — one indirect call per block instead of one per instruction, which
// is where the compiled engine's throughput comes from.
type uop struct {
	kind         uint8
	rd, rs1, rs2 uint8
	imm          int64
	slot         *objectSlot
	lvl          nicsim.MemLevel
}

// uop kinds. The ALU kinds mirror the opcode set one-for-one; the
// remaining kinds are the non-faulting forms compileFused proves safe
// at compile time.
const (
	uNop uint8 = iota
	uMovImm
	uMov
	uAdd
	uSub
	uMul
	uAnd
	uOr
	uXor
	uShl
	uShr
	uEq
	uLt
	uHdrGet
	uHdrSet
	uPktLen
	uEmitByte
	uAccess // load with a discarded destination: only the access counts
	uLoad
	uLoadW
	uStore
	uStoreW
)

// runUop executes one micro-op. This is the out-of-line twin of the
// switch inlined in fuseBlock's hot loop, used by the step-limit
// fallback path and by single-op slots; the differential fuzzer drives
// both copies against the interpreter.
func runUop(e *env, u *uop) {
	switch u.kind {
	case uMovImm:
		e.regs[u.rd%NumRegs] = u.imm
	case uMov:
		e.regs[u.rd%NumRegs] = e.regs[u.rs1%NumRegs]
	case uAdd:
		e.regs[u.rd%NumRegs] = e.regs[u.rs1%NumRegs] + e.regs[u.rs2%NumRegs]
	case uSub:
		e.regs[u.rd%NumRegs] = e.regs[u.rs1%NumRegs] - e.regs[u.rs2%NumRegs]
	case uMul:
		e.regs[u.rd%NumRegs] = e.regs[u.rs1%NumRegs] * e.regs[u.rs2%NumRegs]
	case uAnd:
		e.regs[u.rd%NumRegs] = e.regs[u.rs1%NumRegs] & e.regs[u.rs2%NumRegs]
	case uOr:
		e.regs[u.rd%NumRegs] = e.regs[u.rs1%NumRegs] | e.regs[u.rs2%NumRegs]
	case uXor:
		e.regs[u.rd%NumRegs] = e.regs[u.rs1%NumRegs] ^ e.regs[u.rs2%NumRegs]
	case uShl:
		e.regs[u.rd%NumRegs] = e.regs[u.rs1%NumRegs] << uint64(e.regs[u.rs2%NumRegs]&63)
	case uShr:
		e.regs[u.rd%NumRegs] = int64(uint64(e.regs[u.rs1%NumRegs]) >> uint64(e.regs[u.rs2%NumRegs]&63))
	case uEq:
		e.regs[u.rd%NumRegs] = boolTo64(e.regs[u.rs1%NumRegs] == e.regs[u.rs2%NumRegs])
	case uLt:
		e.regs[u.rd%NumRegs] = boolTo64(e.regs[u.rs1%NumRegs] < e.regs[u.rs2%NumRegs])
	case uHdrGet:
		e.regs[u.rd%NumRegs] = e.headers[u.imm]
	case uHdrSet:
		e.headers[u.imm] = e.regs[u.rs1%NumRegs]
	case uPktLen:
		e.regs[u.rd%NumRegs] = int64(len(e.payload))
	case uEmitByte:
		e.resp = append(e.resp, byte(e.regs[u.rs1%NumRegs]))
	case uAccess:
		e.stats.AddAccess(u.lvl, 1)
	case uLoad:
		e.stats.AddAccess(u.lvl, 1)
		e.regs[u.rd%NumRegs] = int64(u.slot.mem[u.imm])
	case uLoadW:
		e.stats.AddAccess(u.lvl, 1)
		e.regs[u.rd%NumRegs] = int64(le64(u.slot.mem[u.imm:]))
	case uStore:
		e.stats.AddAccess(u.lvl, 1)
		u.slot.mem[u.imm] = byte(e.regs[u.rs2%NumRegs])
	case uStoreW:
		e.stats.AddAccess(u.lvl, 1)
		putLE64(u.slot.mem[u.imm:], uint64(e.regs[u.rs2%NumRegs]))
	}
}

// retPC is the sentinel next-pc meaning "OpRet executed"; the status
// register is in env.ret.
const retPC = -1

// compiledFunc is one function's closure array.
type compiledFunc struct {
	name   string
	code   []closure
	fusion *Fusion
}

// Fusion describes which instruction runs of a function were fused
// into superinstructions (for DisassembleFused and tests).
type Fusion struct {
	Runs []FusedRun
}

// FusedRun is one fused straight-line block: Len component
// instructions starting at Start.
type FusedRun struct {
	Start, Len int
}

// Fusion returns the fusion layout the compiled engine chose for the
// named function, or nil when nothing was fused (or the function is
// unknown).
func (e *Executable) Fusion(fn string) *Fusion {
	if cf := e.funcs[fn]; cf != nil {
		return cf.fusion
	}
	return nil
}

// run executes a compiled function to completion, returning its status
// register. Mirrors env.run's depth handling exactly.
func (cf *compiledFunc) run(e *env) (int64, error) {
	if e.depth >= maxCallDepth {
		return 0, ErrCallDepth
	}
	e.depth++
	code := cf.code
	pc := 0
	for pc < len(code) {
		next, err := code[pc](e)
		if err != nil {
			e.depth--
			return 0, err
		}
		if next == retPC {
			e.depth--
			return e.ret, nil
		}
		pc = next
	}
	e.depth--
	// Falling off the end is an implicit StatusForward.
	return StatusForward, nil
}

// compileProgram builds the closure arrays and, when the reduced match
// stage is recognized, the WorkloadID jump table. Runs for every Link
// (the interpreter engine simply never calls into it).
func compileProgram(e *Executable) {
	e.funcs = make(map[string]*compiledFunc, len(e.prog.Funcs))
	for _, f := range e.prog.Funcs {
		e.funcs[f.Name] = &compiledFunc{name: f.Name}
	}
	for _, f := range e.prog.Funcs {
		compileFunc(e, e.funcs[f.Name], f)
	}
	e.dispatch = buildJumpTable(e)
}

// compileFunc compiles one body. Maximal runs of fusable instructions
// not crossing a branch target become superinstructions stored at the
// run's leader; interior slots keep their single-instruction closures
// (sequential flow never enters them, but they stay executable).
func compileFunc(e *Executable, cf *compiledFunc, f *Function) {
	body := f.Body
	isTarget := branchTargets(body)
	cf.code = make([]closure, len(body))
	fu := &Fusion{}
	pc := 0
	for pc < len(body) {
		// Extend a fusable straight-line run from pc.
		n := 0
		for pc+n < len(body) {
			if n > 0 && isTarget[pc+n] > 0 {
				break
			}
			if _, ok := compileFused(e, &body[pc+n]); !ok {
				break
			}
			n++
		}
		if n == 0 {
			cf.code[pc] = compileSlow(e, &body[pc], pc)
			pc++
			continue
		}
		ops := make([]uop, n)
		for i := 0; i < n; i++ {
			ops[i], _ = compileFused(e, &body[pc+i])
		}
		if n >= 2 {
			cf.code[pc] = fuseBlock(ops, pc+n)
			fu.Runs = append(fu.Runs, FusedRun{Start: pc, Len: n})
			for i := 1; i < n; i++ {
				cf.code[pc+i] = singleOp(ops[i], pc+i+1)
			}
		} else {
			cf.code[pc] = singleOp(ops[0], pc+1)
		}
		pc += n
	}
	if len(fu.Runs) > 0 {
		cf.fusion = fu
	}
}

// fuseBlock wraps a run of decoded micro-ops into one superinstruction
// that charges the run's step cost once and executes it with an inline
// switch (no per-instruction dispatch). Decoded no-ops are stripped
// from the hot stream (their charge is part of the block count). Runs
// made entirely of register-file ops take a specialized loop over a
// local copy of the register file. If the block would cross the step
// limit it falls back to per-op charging over the raw decoded run so
// the reported instruction count (exactly limit+1) and the partial
// side effects match the interpreter tripping mid-block.
func fuseBlock(raw []uop, next int) closure {
	n := uint64(len(raw))
	packed := make([]uop, 0, len(raw))
	regOnly := true
	for _, u := range raw {
		if u.kind == uNop {
			continue
		}
		if u.kind > uLt { // uMovImm..uLt touch only the register file
			regOnly = false
		}
		packed = append(packed, u)
	}
	if regOnly && len(packed) >= 4 {
		return fuseRegBlock(raw, packed, n, next)
	}
	return func(e *env) (int, error) {
		if e.steps+n > e.exe.stepLimit {
			return fuseSlow(e, raw, next)
		}
		e.steps += n
		e.stats.Instructions += n
		ops := packed
		for i := range ops {
			u := &ops[i]
			// Inline twin of runUop — keep the two in sync.
			switch u.kind {
			case uMovImm:
				e.regs[u.rd%NumRegs] = u.imm
			case uMov:
				e.regs[u.rd%NumRegs] = e.regs[u.rs1%NumRegs]
			case uAdd:
				e.regs[u.rd%NumRegs] = e.regs[u.rs1%NumRegs] + e.regs[u.rs2%NumRegs]
			case uSub:
				e.regs[u.rd%NumRegs] = e.regs[u.rs1%NumRegs] - e.regs[u.rs2%NumRegs]
			case uMul:
				e.regs[u.rd%NumRegs] = e.regs[u.rs1%NumRegs] * e.regs[u.rs2%NumRegs]
			case uAnd:
				e.regs[u.rd%NumRegs] = e.regs[u.rs1%NumRegs] & e.regs[u.rs2%NumRegs]
			case uOr:
				e.regs[u.rd%NumRegs] = e.regs[u.rs1%NumRegs] | e.regs[u.rs2%NumRegs]
			case uXor:
				e.regs[u.rd%NumRegs] = e.regs[u.rs1%NumRegs] ^ e.regs[u.rs2%NumRegs]
			case uShl:
				e.regs[u.rd%NumRegs] = e.regs[u.rs1%NumRegs] << uint64(e.regs[u.rs2%NumRegs]&63)
			case uShr:
				e.regs[u.rd%NumRegs] = int64(uint64(e.regs[u.rs1%NumRegs]) >> uint64(e.regs[u.rs2%NumRegs]&63))
			case uEq:
				e.regs[u.rd%NumRegs] = boolTo64(e.regs[u.rs1%NumRegs] == e.regs[u.rs2%NumRegs])
			case uLt:
				e.regs[u.rd%NumRegs] = boolTo64(e.regs[u.rs1%NumRegs] < e.regs[u.rs2%NumRegs])
			case uHdrGet:
				e.regs[u.rd%NumRegs] = e.headers[u.imm]
			case uHdrSet:
				e.headers[u.imm] = e.regs[u.rs1%NumRegs]
			case uPktLen:
				e.regs[u.rd%NumRegs] = int64(len(e.payload))
			case uEmitByte:
				e.resp = append(e.resp, byte(e.regs[u.rs1%NumRegs]))
			case uAccess:
				e.stats.AddAccess(u.lvl, 1)
			case uLoad:
				e.stats.AddAccess(u.lvl, 1)
				e.regs[u.rd%NumRegs] = int64(u.slot.mem[u.imm])
			case uLoadW:
				e.stats.AddAccess(u.lvl, 1)
				e.regs[u.rd%NumRegs] = int64(le64(u.slot.mem[u.imm:]))
			case uStore:
				e.stats.AddAccess(u.lvl, 1)
				u.slot.mem[u.imm] = byte(e.regs[u.rs2%NumRegs])
			case uStoreW:
				e.stats.AddAccess(u.lvl, 1)
				putLE64(u.slot.mem[u.imm:], uint64(e.regs[u.rs2%NumRegs]))
			}
		}
		return next, nil
	}
}

// fuseSlow is the step-limit-crossing path shared by all block shapes:
// per-op charging over the raw decoded run, tripping at exactly the
// instruction the interpreter would trip on.
func fuseSlow(e *env, raw []uop, next int) (int, error) {
	for i := range raw {
		if err := e.charge(1); err != nil {
			return 0, err
		}
		runUop(e, &raw[i])
	}
	return next, nil
}

// regPair is two chained register ops executed as one dispatch: op2
// consumes op1's result while it is still in a local, and when op2
// overwrites op1's destination the intermediate store is dead and
// elided. Unpaired ops ride along with k2 = uNop.
type regPair struct {
	k1, rd1, a1, b1 uint8
	k2, rd2, b2     uint8
	flags           uint8
	imm             int64
}

const (
	pairStoreT uint8 = 1 << iota // regs[rd1] = t before op2 (rd1 stays live)
	pairYReg                     // op2 = t OP regs[b2]
	pairSwap                     // op2 = regs[b2] OP t
)

// deadStoreElim removes register writes that are provably overwritten
// before any read inside the same block (classic backward-liveness DSE,
// applied to reg-only runs, which are pure regs→regs functions). Every
// register is live at block exit, so final register state — and with it
// the differential parity against the interpreter — is unchanged. The
// block still pre-charges the raw instruction count: the simulated NIC
// pays for every instruction; only host-side execution skips dead work.
func deadStoreElim(packed []uop) []uop {
	var live [NumRegs]bool
	for i := range live {
		live[i] = true
	}
	kept := make([]uop, 0, len(packed))
	for i := len(packed) - 1; i >= 0; i-- {
		u := &packed[i]
		if !live[u.rd%NumRegs] {
			continue
		}
		live[u.rd%NumRegs] = false
		switch u.kind {
		case uMov:
			live[u.rs1%NumRegs] = true
		case uAdd, uSub, uMul, uAnd, uOr, uXor, uShl, uShr, uEq, uLt:
			live[u.rs1%NumRegs] = true
			live[u.rs2%NumRegs] = true
		}
		kept = append(kept, *u)
	}
	// kept is in reverse order.
	for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
		kept[i], kept[j] = kept[j], kept[i]
	}
	return kept
}

// packRegPairs greedily combines adjacent register ops where the
// second reads the first's destination. All other dataflow keeps both
// halves' sequential semantics: op2's register operand can never alias
// op1's destination (it would be the chained operand), so reading it
// after op1 is equivalent.
func packRegPairs(packed []uop) []regPair {
	pairs := make([]regPair, 0, len(packed))
	for i := 0; i < len(packed); i++ {
		u := &packed[i]
		pr := regPair{k1: u.kind, rd1: u.rd, a1: u.rs1, b1: u.rs2, imm: u.imm, k2: uNop, flags: pairStoreT}
		if i+1 < len(packed) {
			v := &packed[i+1]
			chained := false
			switch {
			case v.kind == uMov && v.rs1 == u.rd:
				chained = true
			case v.kind >= uAdd && v.kind <= uLt && v.rs1 == u.rd && v.rs2 == u.rd:
				chained = true
			case v.kind >= uAdd && v.kind <= uLt && v.rs1 == u.rd:
				chained = true
				pr.flags |= pairYReg
				pr.b2 = v.rs2
			case v.kind >= uAdd && v.kind <= uLt && v.rs2 == u.rd:
				chained = true
				pr.flags |= pairSwap
				pr.b2 = v.rs1
			}
			if chained {
				pr.k2, pr.rd2 = v.kind, v.rd
				if u.rd == v.rd {
					pr.flags &^= pairStoreT // op2 overwrites it: dead store
				}
				pairs = append(pairs, pr)
				i++
				continue
			}
		}
		pairs = append(pairs, pr)
	}
	return pairs
}

// fuseRegBlock specializes runs that only touch the register file
// (moves, immediates, ALU): the loop runs over a local copy of the
// registers, so the per-op accesses stay on one stack frame instead of
// going through the env pointer, chained ops execute in result-producing
// pairs, and the switch carries only the register kinds.
func fuseRegBlock(raw, packed []uop, n uint64, next int) closure {
	pairs := packRegPairs(deadStoreElim(packed))
	return func(e *env) (int, error) {
		if e.steps+n > e.exe.stepLimit {
			return fuseSlow(e, raw, next)
		}
		e.steps += n
		e.stats.Instructions += n
		regs := e.regs
		for i := range pairs {
			p := &pairs[i]
			var t int64
			switch p.k1 {
			case uMovImm:
				t = p.imm
			case uMov:
				t = regs[p.a1%NumRegs]
			case uAdd:
				t = regs[p.a1%NumRegs] + regs[p.b1%NumRegs]
			case uSub:
				t = regs[p.a1%NumRegs] - regs[p.b1%NumRegs]
			case uMul:
				t = regs[p.a1%NumRegs] * regs[p.b1%NumRegs]
			case uAnd:
				t = regs[p.a1%NumRegs] & regs[p.b1%NumRegs]
			case uOr:
				t = regs[p.a1%NumRegs] | regs[p.b1%NumRegs]
			case uXor:
				t = regs[p.a1%NumRegs] ^ regs[p.b1%NumRegs]
			case uShl:
				t = regs[p.a1%NumRegs] << uint64(regs[p.b1%NumRegs]&63)
			case uShr:
				t = int64(uint64(regs[p.a1%NumRegs]) >> uint64(regs[p.b1%NumRegs]&63))
			case uEq:
				t = boolTo64(regs[p.a1%NumRegs] == regs[p.b1%NumRegs])
			case uLt:
				t = boolTo64(regs[p.a1%NumRegs] < regs[p.b1%NumRegs])
			}
			if p.flags&pairStoreT != 0 {
				regs[p.rd1%NumRegs] = t
			}
			if p.k2 == uNop {
				continue
			}
			x, y := t, t
			if p.flags&pairYReg != 0 {
				y = regs[p.b2%NumRegs]
			} else if p.flags&pairSwap != 0 {
				x, y = regs[p.b2%NumRegs], t
			}
			switch p.k2 {
			case uMov:
				regs[p.rd2%NumRegs] = t
			case uAdd:
				regs[p.rd2%NumRegs] = x + y
			case uSub:
				regs[p.rd2%NumRegs] = x - y
			case uMul:
				regs[p.rd2%NumRegs] = x * y
			case uAnd:
				regs[p.rd2%NumRegs] = x & y
			case uOr:
				regs[p.rd2%NumRegs] = x | y
			case uXor:
				regs[p.rd2%NumRegs] = x ^ y
			case uShl:
				regs[p.rd2%NumRegs] = x << uint64(y&63)
			case uShr:
				regs[p.rd2%NumRegs] = int64(uint64(x) >> uint64(y&63))
			case uEq:
				regs[p.rd2%NumRegs] = boolTo64(x == y)
			case uLt:
				regs[p.rd2%NumRegs] = boolTo64(x < y)
			}
		}
		e.regs = regs
		return next, nil
	}
}

// singleOp wraps one micro-op as a standalone closure.
func singleOp(u uop, next int) closure {
	return func(e *env) (int, error) {
		if err := e.charge(1); err != nil {
			return 0, err
		}
		runUop(e, &u)
		return next, nil
	}
}

// aluKind maps the fusable ALU opcodes onto their uop kinds.
var aluKind = map[Opcode]uint8{
	OpAdd: uAdd, OpSub: uSub, OpMul: uMul, OpAnd: uAnd, OpOr: uOr,
	OpXor: uXor, OpShl: uShl, OpShr: uShr, OpEq: uEq, OpLt: uLt,
}

// compileFused decodes instructions that can join a superinstruction:
// no control flow, and provably no fault — which for memory ops means
// an immediate address (RegZero base) whose bounds check passes at
// compile time. Writes to RegZero decode to uNop (the register is
// hardwired zero and ALU/move ops have no other side effects).
func compileFused(e *Executable, in *Instr) (uop, bool) {
	u := uop{rd: uint8(in.Rd), rs1: uint8(in.Rs1), rs2: uint8(in.Rs2), imm: in.Imm}
	switch in.Op {
	case OpNop:
		return u, true
	case OpMovImm:
		if in.Rd != RegZero {
			u.kind = uMovImm
		}
		return u, true
	case OpMov:
		if in.Rd != RegZero {
			u.kind = uMov
		}
		return u, true
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr, OpEq, OpLt:
		if in.Rd != RegZero {
			u.kind = aluKind[in.Op]
		}
		return u, true
	case OpHdrGet:
		if in.Imm < 0 || in.Imm >= NumFields {
			return u, false // faults: slow path
		}
		if in.Rd != RegZero {
			u.kind = uHdrGet
		}
		return u, true
	case OpHdrSet:
		if in.Imm < 0 || in.Imm >= NumFields {
			return u, false
		}
		u.kind = uHdrSet
		return u, true
	case OpPktLen:
		if in.Rd != RegZero {
			u.kind = uPktLen
		}
		return u, true
	case OpEmitByte:
		u.kind = uEmitByte
		return u, true
	case OpLoad, OpLoadW, OpStore, OpStoreW:
		// Direct-addressed near-memory access (memory stratification
		// rewrites the base to RegZero): the bounds check hoists to
		// compile time when the whole address is the immediate.
		if in.Rs1 != RegZero {
			return u, false
		}
		slot := e.slot(in.Sym)
		if slot == nil {
			return u, false
		}
		width := int64(1)
		if in.Op == OpLoadW || in.Op == OpStoreW {
			width = 8
		}
		if in.Imm < 0 || in.Imm+width > int64(len(slot.mem)) {
			return u, false // faults at runtime: slow path
		}
		u.slot, u.lvl = slot, slot.level
		switch in.Op {
		case OpLoad:
			u.kind = uLoad
		case OpLoadW:
			u.kind = uLoadW
		case OpStore:
			u.kind = uStore
		default:
			u.kind = uStoreW
		}
		if (in.Op == OpLoad || in.Op == OpLoadW) && in.Rd == RegZero {
			u.kind = uAccess
		}
		return u, true
	}
	return u, false
}

// compileSlow compiles the instructions that keep per-op charging:
// control flow, calls, dynamic-address memory ops, bulk assists, and
// any op whose fault path survived to runtime.
func compileSlow(e *Executable, in *Instr, pc int) closure {
	next := pc + 1
	rd, rs1, rs2, imm := in.Rd, in.Rs1, in.Rs2, in.Imm
	switch in.Op {
	case OpJmp:
		tgt := int(imm)
		return func(e *env) (int, error) {
			if err := e.charge(1); err != nil {
				return 0, err
			}
			return tgt, nil
		}
	case OpBrz:
		tgt := int(imm)
		return func(e *env) (int, error) {
			if err := e.charge(1); err != nil {
				return 0, err
			}
			if e.regs[rs1] == 0 {
				return tgt, nil
			}
			return next, nil
		}
	case OpBrnz:
		tgt := int(imm)
		return func(e *env) (int, error) {
			if err := e.charge(1); err != nil {
				return 0, err
			}
			if e.regs[rs1] != 0 {
				return tgt, nil
			}
			return next, nil
		}
	case OpHdrGet, OpHdrSet:
		// Only reached with an out-of-range field immediate.
		return faultClosure(errHdrRange)
	case OpLoad, OpLoadW:
		slot := e.slot(in.Sym)
		if slot == nil {
			return faultClosure(errUnknownObject)
		}
		lvl := slot.level
		wide := in.Op == OpLoadW
		return func(e *env) (int, error) {
			if err := e.charge(1); err != nil {
				return 0, err
			}
			addr := e.regs[rs1] + imm
			width := int64(1)
			if wide {
				width = 8
			}
			if addr < 0 || addr+width > int64(len(slot.mem)) {
				return 0, slot.oobErr
			}
			e.stats.AddAccess(lvl, 1)
			if rd != RegZero {
				if wide {
					e.regs[rd] = int64(le64(slot.mem[addr:]))
				} else {
					e.regs[rd] = int64(slot.mem[addr])
				}
			}
			return next, nil
		}
	case OpStore, OpStoreW:
		slot := e.slot(in.Sym)
		if slot == nil {
			return faultClosure(errUnknownObject)
		}
		lvl := slot.level
		wide := in.Op == OpStoreW
		return func(e *env) (int, error) {
			if err := e.charge(1); err != nil {
				return 0, err
			}
			addr := e.regs[rs1] + imm
			width := int64(1)
			if wide {
				width = 8
			}
			if addr < 0 || addr+width > int64(len(slot.mem)) {
				return 0, slot.oobErr
			}
			e.stats.AddAccess(lvl, 1)
			if wide {
				putLE64(slot.mem[addr:], uint64(e.regs[rs2]))
			} else {
				slot.mem[addr] = byte(e.regs[rs2])
			}
			return next, nil
		}
	case OpPktLoad:
		return func(e *env) (int, error) {
			if err := e.charge(1); err != nil {
				return 0, err
			}
			addr := e.regs[rs1] + imm
			if addr < 0 || addr >= int64(len(e.payload)) {
				return 0, errPayloadOOB
			}
			e.stats.AddAccess(e.payloadLevel, 1)
			if rd != RegZero {
				e.regs[rd] = int64(e.payload[addr])
			}
			return next, nil
		}
	case OpEmit:
		slot := e.slot(in.Sym)
		if slot == nil {
			return faultClosure(errUnknownObject)
		}
		lvl := slot.level
		return func(e *env) (int, error) {
			if err := e.charge(1); err != nil {
				return 0, err
			}
			off, n := e.regs[rs1], e.regs[rs2]
			if off < 0 || n < 0 || off+n > int64(len(slot.mem)) {
				return 0, slot.oobErr
			}
			if err := e.charge(1 + bursts(n)); err != nil {
				return 0, err
			}
			e.stats.AddAccess(lvl, bursts(n))
			e.resp = append(e.resp, slot.mem[off:off+n]...)
			return next, nil
		}
	case OpCall:
		callee := e.funcs[in.Sym]
		if callee == nil {
			return faultClosure(errUnknownFunc)
		}
		return func(e *env) (int, error) {
			if err := e.charge(1); err != nil {
				return 0, err
			}
			if _, err := callee.run(e); err != nil {
				return 0, err
			}
			return next, nil
		}
	case OpRet:
		return func(e *env) (int, error) {
			if err := e.charge(1); err != nil {
				return 0, err
			}
			e.ret = e.regs[rs1]
			return retPC, nil
		}
	case OpMemcpy:
		return compileMemcpy(e, in, next)
	case OpGray:
		return compileGray(e, in, next)
	case OpHash:
		slot := e.slot(in.Sym)
		if slot == nil {
			return faultClosure(errUnknownObject)
		}
		lvl := slot.level
		return func(e *env) (int, error) {
			if err := e.charge(1); err != nil {
				return 0, err
			}
			off, n := e.regs[rs1], e.regs[rs2]
			if off < 0 || n < 0 || off+n > int64(len(slot.mem)) {
				return 0, slot.oobErr
			}
			if err := e.charge(bulkSetup + uint64(n+7)/8); err != nil {
				return 0, err
			}
			e.stats.AddAccess(lvl, bursts(n))
			if rd != RegZero {
				e.regs[rd] = int64(fnv1a(slot.mem[off : off+n]))
			}
			return next, nil
		}
	default:
		return faultClosure(errInvalidOp)
	}
}

// faultClosure charges the instruction, then fails with the pre-built
// error — the behavior the interpreter has for the same fault.
func faultClosure(err error) closure {
	return func(e *env) (int, error) {
		if cerr := e.charge(1); cerr != nil {
			return 0, cerr
		}
		return 0, err
	}
}

// bulkSrc resolves a memcpy/gray source at compile time.
func bulkSrc(e *Executable, sym2 string) (slot *objectSlot, payload bool, ok bool) {
	if sym2 == PayloadObject {
		return nil, true, true
	}
	s := e.slot(sym2)
	return s, false, s != nil
}

func compileMemcpy(e *Executable, in *Instr, next int) closure {
	rd, rs1, rs2 := in.Rd, in.Rs1, in.Rs2
	dst := e.slot(in.Sym)
	srcSlot, fromPayload, ok := bulkSrc(e, in.Sym2)
	if dst == nil || !ok {
		return faultClosure(errUnknownObject)
	}
	return func(e *env) (int, error) {
		if err := e.charge(1); err != nil {
			return 0, err
		}
		n := e.regs[rs2]
		if n < 0 {
			return 0, errMemcpyNegLen
		}
		src, slvl := e.payload, e.payloadLevel
		if !fromPayload {
			src, slvl = srcSlot.mem, srcSlot.level
		}
		doff, soff := e.regs[rd], e.regs[rs1]
		if doff < 0 || soff < 0 || doff+n > int64(len(dst.mem)) || soff+n > int64(len(src)) {
			return 0, dst.oobErr
		}
		if err := e.charge(bulkSetup + bursts(n)); err != nil {
			return 0, err
		}
		e.stats.AddAccess(slvl, bursts(n))
		e.stats.AddAccess(dst.level, bursts(n))
		copy(dst.mem[doff:doff+n], src[soff:soff+n])
		return next, nil
	}
}

func compileGray(e *Executable, in *Instr, next int) closure {
	rd, rs1, rs2 := in.Rd, in.Rs1, in.Rs2
	dst := e.slot(in.Sym)
	srcSlot, fromPayload, ok := bulkSrc(e, in.Sym2)
	if dst == nil || !ok {
		return faultClosure(errUnknownObject)
	}
	return func(e *env) (int, error) {
		if err := e.charge(1); err != nil {
			return 0, err
		}
		n := e.regs[rs2]
		if n < 0 || n%4 != 0 {
			return 0, errGrayLen
		}
		pixels := n / 4
		src, slvl := e.payload, e.payloadLevel
		if !fromPayload {
			src, slvl = srcSlot.mem, srcSlot.level
		}
		doff, soff := e.regs[rd], e.regs[rs1]
		if doff < 0 || soff < 0 || soff+n > int64(len(src)) || doff+pixels > int64(len(dst.mem)) {
			return 0, dst.oobErr
		}
		if err := e.charge(bulkSetup + uint64(pixels)); err != nil {
			return 0, err
		}
		e.stats.AddAccess(slvl, bursts(n))
		e.stats.AddAccess(dst.level, bursts(pixels))
		GrayPixels(dst.mem[doff:doff+pixels], src[soff:soff+n])
		return next, nil
	}
}

// jumpTable is the compiled form of a recognized reduced match stage:
// instead of walking the generated if-else chain, dispatch indexes a
// map keyed on the WorkloadID header (paper §6.4 — the match stage
// costs O(1) regardless of how many lambdas the image carries). Step
// charges replay exactly what the chain walk would have charged, so
// ExecStats stay bit-identical to the interpreter.
type jumpTable struct {
	parsers []*compiledFunc
	entries []MatchEntry
	targets []*compiledFunc
	byID    map[int64]int
	// dense is the hot-path index: dense[id] = entry index + 1 (0 =
	// miss) for ids below denseDispatchMax, skipping the map lookup.
	dense []int32
	// missCharge is the chain cost when no entry matches: key
	// extraction, every compare triplet, and the fall-through epilogue.
	missCharge uint64
}

// denseDispatchMax bounds the dense dispatch array; workload IDs at or
// above it fall back to the map.
const denseDispatchMax = 1024

func (jt *jumpTable) lookup(key int64) (int, bool) {
	if key >= 0 && key < int64(len(jt.dense)) {
		idx := jt.dense[key]
		return int(idx) - 1, idx > 0
	}
	idx, ok := jt.byID[key]
	return idx, ok
}

// buildJumpTable recognizes the reduced match stage. It only activates
// when the __match body is byte-for-byte what GenerateMatch produces
// for the attached plan (a hand-edited match falls back to compiled
// chain execution) and all tables merged into a single WorkloadID
// group.
func buildJumpTable(e *Executable) *jumpTable {
	p := e.prog
	if p.Match == nil || !p.Match.Reduced {
		return nil
	}
	mf := p.Func(MatchFunction)
	if mf == nil {
		return nil
	}
	regen, err := GenerateMatch(p.Match)
	if err != nil || !slices.Equal(regen.Body, mf.Body) {
		return nil
	}
	groups := groupMatchTables(p.Match)
	if len(groups) != 1 || groups[0].field != FieldWorkloadID {
		return nil
	}
	jt := &jumpTable{byID: make(map[int64]int, len(groups[0].entries))}
	for _, pn := range p.Match.Parsers {
		if p.Match.UsedParsers != nil && !p.Match.UsedParsers[pn] {
			continue
		}
		cf := e.funcs[pn]
		if cf == nil {
			return nil
		}
		jt.parsers = append(jt.parsers, cf)
	}
	for i, ent := range groups[0].entries {
		cf := e.funcs[ent.Action]
		if cf == nil {
			return nil
		}
		jt.entries = append(jt.entries, ent)
		jt.targets = append(jt.targets, cf)
		jt.byID[ent.Value] = i
	}
	size := int64(0)
	for _, ent := range jt.entries {
		if ent.Value >= 0 && ent.Value < denseDispatchMax && ent.Value+1 > size {
			size = ent.Value + 1
		}
	}
	jt.dense = make([]int32, size)
	for i, ent := range jt.entries {
		if ent.Value >= 0 && ent.Value < size {
			jt.dense[ent.Value] = int32(i) + 1
		}
	}
	jt.missCharge = 1 + 3*uint64(len(jt.entries)) + 2
	return jt
}

// run dispatches one request through the jump table with the exact
// observable behavior of executing the generated __match function:
// same depth accounting, same parser execution, same step charges
// (chargeExact reproduces the chain-walk trip point), and the same
// scratch-register state entering the lambda (r2 = key, r5 = matched
// value, r6 = compare result).
func (jt *jumpTable) run(e *env) (int64, error) {
	if e.depth >= maxCallDepth {
		return 0, ErrCallDepth
	}
	e.depth++
	defer func() { e.depth-- }()

	for _, pf := range jt.parsers {
		if err := e.charge(1); err != nil { // the call instruction
			return 0, err
		}
		if _, err := pf.run(e); err != nil {
			return 0, err
		}
	}
	key := e.headers[FieldWorkloadID]
	if idx, ok := jt.lookup(key); ok {
		// Chain cost to reach entry idx and call it: one key
		// extraction, three ops per skipped entry, this entry's
		// compare triplet, and the call.
		if err := e.chargeExact(3*uint64(idx) + 5); err != nil {
			return 0, err
		}
		e.regs[2], e.regs[5], e.regs[6] = key, jt.entries[idx].Value, 1
		if _, err := jt.targets[idx].run(e); err != nil {
			return 0, err
		}
		if err := e.chargeExact(2); err != nil { // movi + ret epilogue
			return 0, err
		}
		e.regs[1] = StatusForward
		return StatusForward, nil
	}
	if err := e.chargeExact(jt.missCharge); err != nil {
		return 0, err
	}
	e.regs[2] = key
	if n := len(jt.entries); n > 0 {
		e.regs[5], e.regs[6] = jt.entries[n-1].Value, 0
	}
	e.regs[1] = StatusToHost
	return StatusToHost, nil
}
