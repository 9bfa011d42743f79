package mcc

import "fmt"

// This file implements the compiler's static memory assertions: "the
// compiler can insert static and dynamic assertions to ensure that a
// lambda does not access the physical memory of other lambdas" (paper
// §4.2.1 D2; §7 "λ-NIC enforces this policy using compile-time
// assertions"). Accesses whose addresses are statically known —
// established by a light constant propagation over each basic block —
// are bounds-checked against their object at compile time; everything
// else remains guarded by the interpreter's dynamic checks.

// Violation is one statically provable out-of-bounds access.
type Violation struct {
	Func string
	PC   int
	Msg  string
}

// Error renders the violation.
func (v Violation) Error() string {
	return fmt.Sprintf("mcc: static assertion: %s+%d: %s", v.Func, v.PC, v.Msg)
}

// StaticCheck runs the compile-time assertions over every function and
// returns all provable violations.
func StaticCheck(p *Program) []Violation {
	var out []Violation
	for _, f := range p.Funcs {
		out = append(out, staticCheckFunc(p, f)...)
	}
	return out
}

// known tracks statically known register values within a basic block.
type known struct {
	val [NumRegs]int64
	ok  [NumRegs]bool
}

func (k *known) reset() {
	*k = known{}
	k.ok[RegZero] = true // hardwired zero
}

func (k *known) get(r Reg) (int64, bool) {
	if r == RegZero {
		return 0, true
	}
	return k.val[r], k.ok[r]
}

func (k *known) set(r Reg, v int64) {
	if r == RegZero {
		return
	}
	k.val[r], k.ok[r] = v, true
}

func (k *known) clear(r Reg) {
	if r == RegZero {
		return
	}
	k.ok[r] = false
}

// apply advances the known values past one instruction.
func (k *known) apply(in *Instr) {
	switch in.Op {
	case OpMovImm:
		k.set(in.Rd, in.Imm)
	case OpMov:
		if v, ok := k.get(in.Rs1); ok {
			k.set(in.Rd, v)
		} else {
			k.clear(in.Rd)
		}
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr, OpEq, OpLt:
		a, okA := k.get(in.Rs1)
		c, okC := k.get(in.Rs2)
		if okA && okC {
			k.set(in.Rd, evalALU(in.Op, a, c))
		} else {
			k.clear(in.Rd)
		}
	case OpLoad, OpLoadW, OpHash, OpHdrGet, OpPktLoad, OpPktLen:
		k.clear(in.Rd)
	case OpCall:
		// Callees share the register file: all knowledge dies.
		k.reset()
	}
}

// branchTargets marks the instructions a branch can jump to. They start
// fresh blocks: constant knowledge does not flow across them
// (conservative).
func branchTargets(body []Instr) []bool {
	isTarget := make([]bool, len(body)+1)
	for _, in := range body {
		switch in.Op {
		case OpJmp, OpBrz, OpBrnz:
			if in.Imm >= 0 && in.Imm <= int64(len(body)) {
				isTarget[in.Imm] = true
			}
		}
	}
	return isTarget
}

func staticCheckFunc(p *Program, f *Function) []Violation {
	isTarget := branchTargets(f.Body)
	var out []Violation
	var k known
	k.reset()
	violate := func(pc int, format string, args ...any) {
		out = append(out, Violation{Func: f.Name, PC: pc, Msg: fmt.Sprintf(format, args...)})
	}
	objSize := func(name string) (int, bool) {
		if name == PayloadObject {
			return 0, false // payload size is dynamic
		}
		o := p.Object(name)
		if o == nil {
			return 0, false
		}
		return o.Size, true
	}
	checkAccess := func(pc int, sym string, base Reg, off int64, width int64) {
		v, ok := k.get(base)
		if !ok {
			return
		}
		size, ok := objSize(sym)
		if !ok {
			return
		}
		addr := v + off
		if addr < 0 || addr+width > int64(size) {
			violate(pc, "access %s[%d:%d] outside object of %d bytes", sym, addr, addr+width, size)
		}
	}

	for pc := 0; pc < len(f.Body); pc++ {
		if isTarget[pc] {
			k.reset()
		}
		in := &f.Body[pc]
		switch in.Op {
		case OpLoad:
			checkAccess(pc, in.Sym, in.Rs1, in.Imm, 1)
		case OpLoadW:
			checkAccess(pc, in.Sym, in.Rs1, in.Imm, 8)
		case OpStore:
			checkAccess(pc, in.Sym, in.Rs1, in.Imm, 1)
		case OpStoreW:
			checkAccess(pc, in.Sym, in.Rs1, in.Imm, 8)
		case OpEmit:
			off, okO := k.get(in.Rs1)
			n, okN := k.get(in.Rs2)
			if okO && okN {
				if size, ok := objSize(in.Sym); ok && (off < 0 || n < 0 || off+n > int64(size)) {
					violate(pc, "emit %s[%d:%d] outside object of %d bytes", in.Sym, off, off+n, size)
				}
			}
		case OpMemcpy, OpGray:
			doff, okD := k.get(in.Rd)
			soff, okS := k.get(in.Rs1)
			n, okN := k.get(in.Rs2)
			if okD && okN {
				outBytes := n
				if in.Op == OpGray {
					outBytes = n / 4
				}
				if size, ok := objSize(in.Sym); ok && (doff < 0 || n < 0 || doff+outBytes > int64(size)) {
					violate(pc, "%s writes %s[%d:%d] outside object of %d bytes", in.Op, in.Sym, doff, doff+outBytes, size)
				}
			}
			if okS && okN {
				if size, ok := objSize(in.Sym2); ok && (soff < 0 || n < 0 || soff+n > int64(size)) {
					violate(pc, "%s reads %s[%d:%d] outside object of %d bytes", in.Op, in.Sym2, soff, soff+n, size)
				}
			}
		case OpHash:
			off, okO := k.get(in.Rs1)
			n, okN := k.get(in.Rs2)
			if okO && okN {
				if size, ok := objSize(in.Sym); ok && (off < 0 || n < 0 || off+n > int64(size)) {
					violate(pc, "hash %s[%d:%d] outside object of %d bytes", in.Sym, off, off+n, size)
				}
			}
		}
		k.apply(in)
	}
	return out
}

func evalALU(op Opcode, a, b int64) int64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << uint64(b&63)
	case OpShr:
		return int64(uint64(a) >> uint64(b&63))
	case OpEq:
		return boolTo64(a == b)
	case OpLt:
		return boolTo64(a < b)
	default:
		return 0
	}
}

// objectUse is what the replay proof (replay.go) knows statically about
// each object of a program, indexed like Program.Objects.
type objectUse struct {
	// written marks objects some instruction stores into. The others
	// hold their Init forever: reading them reads a link-time constant.
	written []bool
	// uncovered names, per object, the first read that stores earlier
	// in its basic block do not cover byte for byte ("" when there is
	// none). No execution can observe what an earlier one left in an
	// object without such a read, so a replayed request may skip its
	// stores there.
	uncovered []string
}

// useOfObjects computes the objectUse of p with the same per-block
// constant propagation as StaticCheck. Calls and branch targets end a
// block: coverage, like constant knowledge, does not flow across them.
func useOfObjects(p *Program) objectUse {
	index := make(map[string]int, len(p.Objects))
	for i, o := range p.Objects {
		index[o.Name] = i
	}
	lastSym, lastIdx := "", -1
	lookup := func(sym string) int { // runs of one symbol are the common case
		if sym != lastSym {
			i, ok := index[sym]
			if !ok {
				i = -1
			}
			lastSym, lastIdx = sym, i
		}
		return lastIdx
	}
	u := objectUse{written: make([]bool, len(p.Objects)), uncovered: make([]string, len(p.Objects))}
	covered := make([][][2]int64, len(p.Objects)) // this block's stores, per object
	var dirty []int
	endBlock := func() {
		for _, i := range dirty {
			covered[i] = covered[i][:0]
		}
		dirty = dirty[:0]
	}
	// Once an object has an uncovered read, its coverage no longer
	// matters: read and write skip computing the span.
	var k known
	read := func(sym string, f *Function, pc int, span func() span) {
		if i := lookup(sym); i >= 0 && u.uncovered[i] == "" {
			if s := span(); !s.ok || !coveredBy(covered[i], s.lo, s.hi) {
				u.uncovered[i] = fmt.Sprintf("%s %s+%d", f.Body[pc].Op, f.Name, pc)
			}
		}
	}
	write := func(sym string, span func() span) {
		i := lookup(sym)
		if i < 0 {
			return
		}
		u.written[i] = true
		if u.uncovered[i] != "" {
			return
		}
		c, s := covered[i], span()
		switch {
		case !s.ok || coveredBy(c, s.lo, s.hi):
		case len(c) > 0 && c[len(c)-1][1] == s.lo:
			c[len(c)-1][1] = s.hi // extends the last store
		default:
			if len(c) == 0 {
				dirty = append(dirty, i)
			}
			covered[i] = append(c, [2]int64{s.lo, s.hi})
		}
	}
	for _, f := range p.Funcs {
		isTarget := branchTargets(f.Body)
		for pc := range f.Body {
			in := &f.Body[pc]
			if pc == 0 || isTarget[pc] {
				k.reset()
				endBlock()
			}
			width := int64(1)
			if in.Op == OpLoadW || in.Op == OpStoreW {
				width = 8
			}
			at := func() span { return k.at(in.Rs1, in.Imm, width) }
			switch in.Op {
			case OpLoad, OpLoadW:
				read(in.Sym, f, pc, at)
			case OpStore, OpStoreW:
				write(in.Sym, at)
			case OpEmit, OpHash:
				read(in.Sym, f, pc, func() span { return k.sized(in.Rs1, in.Rs2, 1) })
			case OpMemcpy, OpGray:
				div := int64(1)
				if in.Op == OpGray {
					div = 4
				}
				read(in.Sym2, f, pc, func() span { return k.sized(in.Rs1, in.Rs2, 1) })
				write(in.Sym, func() span { return k.sized(in.Rd, in.Rs2, div) })
			case OpCall:
				endBlock()
			}
			k.apply(in)
		}
	}
	return u
}

// span is the byte range [lo, hi) of an object an instruction touches;
// ok when the operands bounding it are known constants.
type span struct {
	lo, hi int64
	ok     bool
}

// at is the span of a width-byte access at base+imm.
func (k *known) at(base Reg, imm, width int64) span {
	off, ok := k.get(base)
	return span{off + imm, off + imm + width, ok}
}

// sized is the span of size/div bytes at base.
func (k *known) sized(base, size Reg, div int64) span {
	off, okO := k.get(base)
	n, okN := k.get(size)
	return span{off, off + n/div, okO && okN}
}

// coveredBy reports whether the ranges cover every byte of [lo, hi).
func coveredBy(ranges [][2]int64, lo, hi int64) bool {
	for lo < hi {
		next := lo
		for _, r := range ranges {
			if r[0] <= lo && lo < r[1] && r[1] > next {
				next = r[1]
			}
		}
		if next == lo {
			return false
		}
		lo = next
	}
	return true
}
