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

// known tracks what is statically known about register values within a
// basic block: each holds m·v+c for an opaque value v (its value at
// block entry, or a result the block cannot compute), or the constant c
// when v is 0. writes, when set, maps a function to the registers it or
// its callees write: a call forgets those only, not every register.
type known struct {
	r      [NumRegs]affine
	next   uint32 // the last opaque value handed out
	writes map[string]uint16
}

// affine is m·v+c, or the constant c when v is 0.
type affine struct {
	v    uint32
	m, c int64
}

func (k *known) reset() {
	for r := range k.r {
		k.fresh(Reg(r))
	}
}

// fresh makes r an opaque value. RegZero stays the constant 0.
func (k *known) fresh(r Reg) {
	k.next++
	k.set(r, affine{v: k.next, m: 1})
}

func (k *known) set(r Reg, a affine) {
	if r != RegZero {
		k.r[r] = a
	}
}

func (k *known) get(r Reg) (int64, bool) { return k.r[r].c, k.r[r].v == 0 }

// plus returns a + s·b when that is affine in one opaque value.
func plus(a, b affine, s int64) (affine, bool) {
	if a.v != b.v && a.v != 0 && b.v != 0 {
		return affine{}, false
	}
	sum := affine{v: max(a.v, b.v), m: a.m + s*b.m, c: a.c + s*b.c}
	if sum.m == 0 {
		sum.v = 0
	}
	return sum, true
}

// apply advances the known values past one instruction.
func (k *known) apply(in *Instr) {
	switch in.Op {
	case OpMovImm:
		k.set(in.Rd, affine{c: in.Imm})
	case OpMov:
		k.set(in.Rd, k.r[in.Rs1])
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr, OpEq, OpLt:
		a, b := k.r[in.Rs1], k.r[in.Rs2]
		if b.v != 0 && in.Op == OpMul {
			a, b = b, a
		}
		r, ok := affine{c: evalALU(in.Op, a.c, b.c)}, a.v == 0 && b.v == 0
		switch {
		case ok:
		case in.Op == OpAdd:
			r, ok = plus(a, b, 1)
		case in.Op == OpSub:
			r, ok = plus(a, b, -1)
		case in.Op == OpMul && b.v == 0:
			r, ok = plus(affine{}, a, b.c)
		}
		if ok {
			k.set(in.Rd, r)
		} else {
			k.fresh(in.Rd)
		}
	case OpLoad, OpLoadW, OpHash, OpHdrGet, OpPktLoad, OpPktLen:
		k.fresh(in.Rd)
	case OpCall:
		w, ok := k.writes[in.Sym]
		if !ok {
			k.reset()
		}
		for r := Reg(0); r < NumRegs; r++ {
			if w&(1<<r) != 0 {
				k.fresh(r)
			}
		}
	}
}

// branchTargets counts the branches to each instruction. Targets start
// fresh blocks: constant knowledge does not flow across them
// (conservative).
func branchTargets(body []Instr) []int {
	n := make([]int, len(body)+1)
	for _, in := range body {
		switch in.Op {
		case OpJmp, OpBrz, OpBrnz:
			if in.Imm >= 0 && in.Imm <= int64(len(body)) {
				n[in.Imm]++
			}
		}
	}
	return n
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
		if isTarget[pc] > 0 {
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
	// dead marks, per function and pc, the loads whose value reaches
	// nothing (deadLoads): they are not reads.
	dead map[*Function][]bool
}

// useOfObjects computes the objectUse of p with the same per-block
// value tracking as StaticCheck, widened three ways, each sound on its
// own. A call keeps the block going: coverage, and what is known of the
// registers the callee does not write. A branch target whose only
// predecessor is a forward branch starts from what was known at the
// branch. Spans are affine in one opaque value, so `gray o[0], …, r4`
// with r4 = 4·r3 covers `emit o[0 : r3]`.
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
	u := objectUse{written: make([]bool, len(p.Objects)), uncovered: make([]string, len(p.Objects)), dead: deadLoads(p)}
	covered := make([][]span, len(p.Objects)) // this block's stores, per object
	var dirty []int
	endBlock := func() {
		for _, i := range dirty {
			covered[i] = covered[i][:0]
		}
		dirty = dirty[:0]
	}
	// Once an object has an uncovered read, its coverage no longer
	// matters: read and write skip computing the span.
	k := known{writes: calleeWrites(p)}
	read := func(sym string, f *Function, pc int, span func() span) {
		if i := lookup(sym); i >= 0 && u.uncovered[i] == "" {
			if s := span(); !s.ok || !coveredBy(covered[i], s) {
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
		case !s.ok || coveredBy(c, s):
		case len(c) > 0 && c[len(c)-1].hi == s.lo && s.hi.v == 0:
			c[len(c)-1].hi = s.hi // extends the last store
		default:
			if len(c) == 0 {
				dirty = append(dirty, i)
			}
			covered[i] = append(c, s)
		}
	}
	for _, f := range p.Funcs {
		isTarget := branchTargets(f.Body)
		from := make(map[int64][NumRegs]affine) // at targets only one forward branch reaches
		for pc := range f.Body {
			in := &f.Body[pc]
			if pc == 0 || isTarget[pc] > 0 {
				endBlock()
				if r, ok := from[int64(pc)]; ok {
					k.r = r
				} else {
					k.reset()
				}
			}
			width := int64(1)
			if in.Op == OpLoadW || in.Op == OpStoreW {
				width = 8
			}
			at := func() span { return k.at(in.Rs1, in.Imm, width) }
			switch in.Op {
			case OpLoad, OpLoadW:
				if !u.dead[f][pc] {
					read(in.Sym, f, pc, at)
				}
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
			case OpJmp, OpBrz, OpBrnz:
				if t := in.Imm; t > int64(pc) && isTarget[t] == 1 && (f.Body[t-1].Op == OpJmp || f.Body[t-1].Op == OpRet) {
					from[t] = k.r
				}
			}
			k.apply(in)
		}
	}
	return u
}

// span is the byte range [lo, hi) of an object an instruction touches;
// ok when the operands bounding it are affine in at most one opaque
// value.
type span struct {
	lo, hi affine
	ok     bool
}

// at is the span of a width-byte access at base+imm.
func (k *known) at(base Reg, imm, width int64) span {
	lo, _ := plus(k.r[base], affine{c: imm}, 1)
	hi, _ := plus(lo, affine{c: width}, 1)
	return span{lo, hi, true}
}

// sized is the span of size/div bytes at base; div must divide size
// exactly.
func (k *known) sized(base, size Reg, div int64) span {
	lo, n := k.r[base], k.r[size]
	if n.m%div != 0 || n.c%div != 0 {
		return span{}
	}
	hi, ok := plus(lo, affine{v: n.v, m: n.m / div, c: n.c / div}, 1)
	return span{lo, hi, ok}
}

// coveredBy reports whether the spans cover every byte of s: a union of
// constant spans covers a constant one; a symbolic one needs a single
// span around it in the same opaque values.
func coveredBy(spans []span, s span) bool {
	if s.lo.v != 0 || s.hi.v != 0 {
		le := func(a, b affine) bool { return a.v == b.v && a.m == b.m && a.c <= b.c }
		for _, c := range spans {
			if le(c.lo, s.lo) && le(s.hi, c.hi) {
				return true
			}
		}
		return false
	}
	for lo, hi := s.lo.c, s.hi.c; lo < hi; {
		next := lo
		for _, c := range spans {
			if c.lo.v == 0 && c.hi.v == 0 && c.lo.c <= lo && lo < c.hi.c && c.hi.c > next {
				next = c.hi.c
			}
		}
		if next == lo {
			return false
		}
		lo = next
	}
	return true
}

// calleeWrites maps every function to the registers it or its callees
// write (p has no recursion: Validate rejects it).
func calleeWrites(p *Program) map[string]uint16 {
	out := make(map[string]uint16, len(p.Funcs))
	var visit func(f *Function) uint16
	visit = func(f *Function) uint16 {
		if w, ok := out[f.Name]; ok {
			return w
		}
		var w uint16
		for _, in := range f.Body {
			if in.Op == OpCall {
				if g := p.Func(in.Sym); g != nil {
					w |= visit(g)
				}
			} else if defines(in.Op) {
				w |= 1 << in.Rd
			}
		}
		out[f.Name] = w
		return w
	}
	for _, f := range p.Funcs {
		visit(f)
	}
	return out
}

// defines reports whether an opcode writes its Rd.
func defines(op Opcode) bool {
	switch op {
	case OpMovImm, OpMov, OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr, OpEq, OpLt,
		OpLoad, OpLoadW, OpHdrGet, OpPktLoad, OpPktLen, OpHash:
		return true
	}
	return false
}

// deadLoads marks, per function and pc, the loads whose value reaches no
// branch condition, address, length, stored value, emitted byte, hash,
// header slot or returned status — directly or through other registers,
// in the function or, since callers and callees share the register
// file, across calls. It is strong liveness: an ALU operand is live only
// when the result is. Functions no call reaches return to the engine,
// which reads only the status register.
func deadLoads(p *Program) map[*Function][]bool {
	const zero = 1 << RegZero
	bit := func(r Reg) uint16 { return 1 << r &^ zero }
	liveIn := make(map[string]uint16, len(p.Funcs))  // at entry
	liveOut := make(map[string]uint16, len(p.Funcs)) // after its return, at any call site
	before := make(map[*Function][]uint16, len(p.Funcs))
	for _, f := range p.Funcs {
		before[f] = make([]uint16, len(f.Body))
	}
	// transfer is live-before of f's instruction pc, given live-after.
	transfer := func(f *Function, pc int, out uint16) uint16 {
		in := &f.Body[pc]
		switch in.Op {
		case OpMov, OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr, OpEq, OpLt:
			if out&bit(in.Rd) != 0 {
				out = out&^bit(in.Rd) | bit(in.Rs1)
				if in.Op != OpMov {
					out |= bit(in.Rs2)
				}
			}
			return out
		case OpLoad, OpLoadW, OpPktLoad:
			return out&^bit(in.Rd) | bit(in.Rs1)
		case OpHash:
			return out&^bit(in.Rd) | bit(in.Rs1) | bit(in.Rs2)
		case OpMovImm, OpHdrGet, OpPktLen:
			return out &^ bit(in.Rd)
		case OpStore, OpStoreW, OpEmit:
			return out | bit(in.Rs1) | bit(in.Rs2)
		case OpMemcpy, OpGray:
			return out | bit(in.Rd) | bit(in.Rs1) | bit(in.Rs2)
		case OpBrz, OpBrnz, OpHdrSet, OpEmitByte:
			return out | bit(in.Rs1)
		case OpRet:
			return liveOut[f.Name] | bit(in.Rs1)
		case OpCall:
			return liveIn[in.Sym]
		}
		return out
	}
	for changed := true; changed; {
		changed = false
		for _, f := range p.Funcs {
			n, b := len(f.Body), before[f]
			// Backward over the body until the loops settle.
			for again := true; again; {
				again = false
				for pc := n - 1; pc >= 0; pc-- {
					in := &f.Body[pc]
					out := liveOut[f.Name] // falling off the end
					if pc+1 < n && in.Op != OpJmp && in.Op != OpRet {
						out = b[pc+1]
					}
					if in.Op == OpJmp || in.Op == OpBrz || in.Op == OpBrnz {
						if t := in.Imm; t >= 0 && t < int64(n) {
							if in.Op == OpJmp {
								out = 0
							}
							out |= b[t]
						}
					}
					if in.Op == OpCall && liveOut[in.Sym]|out != liveOut[in.Sym] {
						liveOut[in.Sym] |= out
						changed = true
					}
					if v := transfer(f, pc, out); v != b[pc] {
						b[pc], again = v, true
					}
				}
			}
			entry := liveOut[f.Name]
			if n > 0 {
				entry = b[0]
			}
			if entry != liveIn[f.Name] {
				liveIn[f.Name], changed = entry, true
			}
		}
	}
	dead := make(map[*Function][]bool, len(p.Funcs))
	for _, f := range p.Funcs {
		d := make([]bool, len(f.Body))
		for pc, in := range f.Body {
			if in.Op != OpLoad && in.Op != OpLoadW {
				continue
			}
			out := liveOut[f.Name]
			if pc+1 < len(f.Body) {
				out = before[f][pc+1]
			}
			d[pc] = out&bit(in.Rd) == 0
		}
		dead[f] = d
	}
	return dead
}
