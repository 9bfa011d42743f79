package mcc

// Differential fuzzing of the optimizer (the passes behind Figure 9,
// §5.1): a random naive program and its Optimize output — once per pass
// and once with every pass on — are linked alike and streamed the same
// requests. On every request the naive program completes within its
// step limit they must agree on the reply bytes, the error class and
// the object memory afterwards, and the optimized run may not retire
// more instructions; the optimized program may not be larger. The
// generator builds each pass's precondition: every lambda calls its own
// copy of a helper, identical or differing in one immediate, for
// coalescing; an unreduced match stage — one WorkloadID table per
// lambda, a table of shadowed and extra entries, and bounds-checked
// parsers, some whose fields nothing reads — for match reduction; and
// objects with hot, cold and automatic hints, one past the CTM budget,
// reached through zero-base address setups, for stratification.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lambdanic/internal/nicsim"
)

var fuzzLevels = []nicsim.MemLevel{nicsim.MemLocal, nicsim.MemCTM, nicsim.MemIMEM, nicsim.MemEMEM}

var fuzzObjects = []struct {
	name string
	size int
}{
	{"o0", 16},
	{"o1", 64},
	{"o2", 256},
}

// genBody emits a random function body. Calls go strictly to
// higher-indexed functions so the call graph stays acyclic (Validate
// rejects recursion).
func genBody(r *rand.Rand, fi int, names []string) []Instr {
	n := 5 + r.Intn(30)
	body := make([]Instr, n)
	reg := func() Reg { return Reg(r.Intn(NumRegs)) }
	obj := func() string { return fuzzObjects[r.Intn(len(fuzzObjects))].name }
	src2 := func() string {
		if r.Intn(3) == 0 {
			return PayloadObject
		}
		return obj()
	}
	ops := []Opcode{
		OpNop, OpMovImm, OpMov, OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpEq, OpLt, OpJmp, OpBrz, OpBrnz, OpLoad, OpStore,
		OpLoadW, OpStoreW, OpHdrGet, OpHdrSet, OpPktLoad, OpPktLen,
		OpEmit, OpEmitByte, OpCall, OpRet, OpMemcpy, OpGray, OpHash,
	}
	for i := range body {
		op := ops[r.Intn(len(ops))]
		if op == OpCall && fi >= len(names)-1 {
			op = OpNop
		}
		in := Instr{Op: op, Rd: reg(), Rs1: reg(), Rs2: reg()}
		switch op {
		case OpMovImm:
			in.Imm = int64(r.Intn(512) - 64)
		case OpJmp, OpBrz, OpBrnz:
			in.Imm = int64(r.Intn(n))
		case OpLoad, OpStore, OpLoadW, OpStoreW:
			in.Sym = obj()
			in.Imm = int64(r.Intn(300) - 8)
		case OpHdrGet, OpHdrSet:
			in.Imm = int64(r.Intn(NumFields+2) - 1)
		case OpPktLoad:
			in.Imm = int64(r.Intn(80) - 8)
		case OpEmit, OpHash:
			in.Sym = obj()
		case OpCall:
			in.Sym = names[fi+1+r.Intn(len(names)-1-fi)]
		case OpMemcpy, OpGray:
			in.Sym = obj()
			in.Sym2 = src2()
		}
		body[i] = in
	}
	return body
}

// splice inserts ins before body[at], moving the branch targets of
// body past it; ins holds no branch.
func splice(body []Instr, at int, ins ...Instr) []Instr {
	for i := range body {
		switch body[i].Op {
		case OpJmp, OpBrz, OpBrnz:
			if body[i].Imm >= int64(at) {
				body[i].Imm += int64(len(ins))
			}
		}
	}
	return append(body[:at:at], append(ins, body[at:]...)...)
}

// bigObject is sized past the CTM half the stratification pass budgets,
// so the pass places it in IMEM.
const bigObject = 128 << 10

// nearAccess is the shape memory stratification folds: a zero base
// register set up for one access of o. A quarter of them store the base
// register itself, which held another value, and overwrite it; the
// rest leave it dead, overwritten or read again. With tail the access
// is the last thing before a return.
func nearAccess(r *rand.Rand, o *Object, tail bool) []Instr {
	base, val := Reg(1+r.Intn(NumRegs-2)), Reg(1+r.Intn(NumRegs-2))
	imm := int64(r.Intn(min(o.Size, 64) - 7))
	if !tail && r.Intn(4) == 0 {
		return []Instr{{Op: OpMovImm, Rd: base, Imm: int64(1 + r.Intn(255))}, {Op: OpMovImm, Rd: base},
			{Op: []Opcode{OpStore, OpStoreW}[r.Intn(2)], Rs1: base, Rs2: base, Sym: o.Name, Imm: imm},
			{Op: OpMovImm, Rd: base, Imm: int64(r.Intn(64))}}
	}
	op := []Opcode{OpLoad, OpStore, OpLoadW, OpStoreW}[r.Intn(4)]
	ins := []Instr{{Op: OpMovImm, Rd: base}, {Op: op, Rd: val, Rs1: base, Rs2: val, Sym: o.Name, Imm: imm}}
	switch {
	case tail:
		return append(ins, Instr{Op: OpRet, Rs1: RegZero})
	case r.Intn(3) == 0:
		return append(ins, Instr{Op: OpMovImm, Rd: base, Imm: int64(r.Intn(64))})
	case r.Intn(2) == 0:
		return append(ins, Instr{Op: OpEmitByte, Rs1: base})
	}
	return ins
}

// prologue defines every register before a lambda reads one: registers
// are undefined at a lambda's entry (Reg), and the naive and reduced
// match stages leave different scratch values in them.
func prologue(r *rand.Rand) []Instr {
	ins := make([]Instr, RegZero)
	for i := range ins {
		ins[i] = Instr{Op: OpMovImm, Rd: Reg(i), Imm: int64(r.Intn(512) - 64)}
	}
	return ins
}

// genParser is a matchlambda-style parser: when the payload holds the
// header's extent, it assembles one or two big-endian fields into
// header slots; it never faults.
func genParser(r *rand.Rand, name string) (*Function, []int64) {
	slots := []int64{FieldPayloadLen, FieldSrcNode, FieldArg0, FieldArg1}
	b := NewBuilder(name).PktLen(2)
	type field struct{ slot, off, n int64 }
	var fs []field
	extent := int64(0)
	for k := 1 + r.Intn(2); k > 0; k-- {
		f := field{slots[r.Intn(len(slots))], int64(r.Intn(12)), int64(1 + r.Intn(4))}
		fs = append(fs, f)
		extent = max(extent, f.off+f.n)
	}
	b.MovImm(3, extent).Lt(4, 2, 3).Brnz(4, "absent")
	var written []int64
	for _, f := range fs {
		b.MovImm(5, 0).MovImm(6, 8)
		for i := int64(0); i < f.n; i++ {
			b.Shl(5, 5, 6).PktLoad(7, RegZero, f.off+i).Or(5, 5, 7)
		}
		b.HdrSet(f.slot, 5)
		written = append(written, f.slot)
	}
	return b.Label("absent").Ret(RegZero).MustBuild(), written
}

// genProgram builds a naive program: lambdas f0 (ID 1) and f1 (ID 2)
// and helper f2 from genBody, each lambda calling its own copy of a
// helper, zero-base accesses spliced in, and, in half the programs, a
// naive match stage in front.
func genProgram(t testing.TB, r *rand.Rand) *Program {
	t.Helper()
	p := NewProgram()
	hints := []AccessHint{HintAuto, HintHot, HintCold}
	for _, o := range fuzzObjects {
		init := make([]byte, o.size)
		r.Read(init)
		if err := p.AddObject(&Object{Name: o.name, Size: o.size, Init: init, Hint: hints[r.Intn(len(hints))]}); err != nil {
			t.Fatal(err)
		}
	}
	if r.Intn(3) == 0 {
		if err := p.AddObject(&Object{Name: "big", Size: bigObject, Hint: hints[r.Intn(2)]}); err != nil {
			t.Fatal(err)
		}
	}
	matched := r.Intn(2) == 0

	anyObject := func() *Object { return p.Objects[r.Intn(len(p.Objects))] }
	hotObject := func() *Object {
		for _, i := range r.Perm(len(p.Objects)) {
			if p.Objects[i].Hint == HintHot {
				return p.Objects[i]
			}
		}
		return anyObject()
	}

	// The helper: an observable prefix, then noise and near accesses,
	// half the time one of a hot object right before a return. The
	// callers set the last one's base register before the call and read
	// it after. The second lambda's copy differs in the prefix now and
	// then.
	helper := genBody(r, 2, []string{"f0", "f1", "f2"})
	seen := Reg(r.Intn(NumRegs))
	for k := r.Intn(3); k > 0; k-- {
		ins := nearAccess(r, anyObject(), false)
		seen = ins[0].Rd
		helper = splice(helper, r.Intn(len(helper)+1), ins...)
	}
	if r.Intn(2) == 0 {
		ins := nearAccess(r, hotObject(), true)
		seen = ins[0].Rd
		helper = splice(helper, r.Intn(len(helper)+1), ins...)
	}
	k := int64(r.Intn(256))
	helper = splice(helper, 0, Instr{Op: OpMovImm, Rd: 9, Imm: k}, Instr{Op: OpEmitByte, Rs1: 9})
	copyB := append([]Instr(nil), helper...)
	if r.Intn(2) == 0 {
		copyB[0].Imm = k + 1
	}

	names := []string{"f0", "f1", "f2"}
	for fi, name := range names {
		body := genBody(r, fi, names)
		for k := r.Intn(3); k > 0; k-- {
			body = splice(body, r.Intn(len(body)+1), nearAccess(r, anyObject(), false)...)
		}
		if fi < 2 {
			body = splice(body, r.Intn(len(body)+1), Instr{Op: OpMovImm, Rd: seen, Imm: int64(1 + r.Intn(255))},
				Instr{Op: OpCall, Sym: []string{"h_a", "h_b"}[fi]}, Instr{Op: OpEmitByte, Rs1: seen})
			if matched {
				body = splice(body, 0, prologue(r)...)
			}
		}
		if err := p.AddFunc(&Function{Name: name, Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range []*Function{{Name: "h_a", Body: helper}, {Name: "h_b", Body: copyB}} {
		if err := p.AddFunc(h); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range names[:2] {
		if err := p.AddEntry(uint32(i+1), name); err != nil {
			t.Fatal(err)
		}
	}
	if !matched {
		return p
	}

	// A parser is used when some function reads a slot it writes. Now
	// and then a header has the same layout as the one before it, so
	// coalescing merges their parsers.
	read := map[int64]bool{}
	for _, f := range p.Funcs {
		for _, in := range f.Body {
			if in.Op == OpHdrGet {
				read[in.Imm] = true
			}
		}
	}
	plan := &MatchPlan{UsedParsers: map[string]bool{}}
	var last *Function
	var slots []int64
	for i := r.Intn(4); i > 0; i-- {
		name := fmt.Sprintf("__parse_h%d", i)
		var pf *Function
		if last != nil && r.Intn(3) == 0 {
			pf = &Function{Name: name, Body: append([]Instr(nil), last.Body...)}
		} else {
			pf, slots = genParser(r, name)
		}
		last = pf
		if err := p.AddFunc(pf); err != nil {
			t.Fatal(err)
		}
		plan.Parsers = append(plan.Parsers, pf.Name)
		for _, s := range slots {
			if read[s] {
				plan.UsedParsers[pf.Name] = true
			}
		}
	}
	plan.Tables = []MatchTable{
		{Name: "route_f0", Field: FieldWorkloadID, Entries: []MatchEntry{{Value: 1, Action: "f0"}}},
		{Name: "route_f1", Field: FieldWorkloadID, Entries: []MatchEntry{{Value: 2, Action: "f1"}}},
	}
	if r.Intn(2) == 0 {
		plan.Tables = append(plan.Tables, MatchTable{Name: "route_more", Field: FieldWorkloadID,
			Entries: []MatchEntry{{Value: 1, Action: "f1"}, {Value: 3, Action: "f0"}}})
	}
	p.Match = plan
	mf, err := GenerateMatch(plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddFunc(mf); err != nil {
		t.Fatal(err)
	}
	return p
}

// passConfigs are the optimizer configurations the differential test
// holds to the naive program: each pass alone, then all of them.
var passConfigs = []struct {
	name string
	cfg  OptimizeConfig
}{
	{"coalescing", OptimizeConfig{Coalesce: true}},
	{"match reduction", OptimizeConfig{ReduceMatch: true}},
	{"stratification", OptimizeConfig{Stratify: true}},
	{"all passes", AllPasses()},
}

// optimizeStats counts what optimizeDifferential saw.
type optimizeStats struct {
	linked   bool
	changed  [4]bool // per passConfigs entry
	compared int     // requests held to the properties
	skipped  int     // streams cut where the naive program hit its step limit
}

// optimizeDifferential generates the program of seed and holds every
// configuration of the optimizer to it, failing t on the first broken
// property.
func optimizeDifferential(t testing.TB, seed int64) optimizeStats {
	var st optimizeStats
	r := rand.New(rand.NewSource(seed))
	p := genProgram(t, r)
	limit := []uint64{300, 2000, 10000}[r.Intn(3)]
	type request struct {
		id      uint32
		payload []byte
		packets int
	}
	reqs := make([]request, 8)
	for i := range reqs {
		payload := make([]byte, r.Intn(65))
		r.Read(payload)
		reqs[i] = request{[]uint32{1, 2, 1, 3, 7, 2, 1, 2}[i], payload, 1 + 3*r.Intn(2)}
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
	}
	for ci, pc := range passConfigs {
		opt, _, err := Optimize(p, pc.cfg)
		if err != nil {
			fail("%s: Optimize: %v\n%s", pc.name, err, p.Disassemble())
		}
		if n, o := p.StaticInstructions(), opt.StaticInstructions(); o > n {
			fail("%s grew the program from %d to %d instructions", pc.name, n, o)
		}
		st.changed[ci] = opt.Disassemble() != p.Disassemble()
		naive, nerr := link(p, limit, true)
		optimized, oerr := link(opt, limit, true)
		if nerr != nil {
			continue // StaticCheck rejected the naive program
		}
		if oerr != nil {
			fail("%s: only the optimized program fails to link: %v", pc.name, oerr)
		}
		st.linked = true
		for i, rq := range reqs {
			req := &nicsim.Request{LambdaID: rq.id, Payload: rq.payload, Packets: rq.packets}
			want, werr := naive.Execute(req)
			if errors.Is(werr, ErrStepLimit) {
				st.skipped++ // object memory diverges from here on
				break
			}
			st.compared++
			got, gerr := optimized.Execute(req)
			switch {
			case (gerr == nil) != (werr == nil) || gerr != nil && !sameFaultClass(gerr, werr):
				fail("%s request %d: error %v, naive %v\nnaive:\n%s\noptimized:\n%s", pc.name, i, gerr, werr, p.Disassemble(), opt.Disassemble())
			case !bytes.Equal(got.Payload, want.Payload):
				fail("%s request %d: reply %x, naive %x\nnaive:\n%s\noptimized:\n%s", pc.name, i, got.Payload, want.Payload, p.Disassemble(), opt.Disassemble())
			case got.Stats.Instructions > want.Stats.Instructions:
				fail("%s request %d: %d instructions, naive %d", pc.name, i, got.Stats.Instructions, want.Stats.Instructions)
			}
			for s := range naive.slots {
				if !bytes.Equal(naive.slots[s].mem, optimized.slots[s].mem) {
					fail("%s request %d: object %s differs\nnaive:\n%s\noptimized:\n%s", pc.name, i, naive.slots[s].name, p.Disassemble(), opt.Disassemble())
				}
			}
		}
	}
	return st
}

func TestDifferentialFuzz(t *testing.T) {
	programs := 300
	if testing.Short() {
		programs = 60
	}
	linked, compared, skipped := 0, 0, 0
	var changed [4]int
	for seed := 0; seed < programs; seed++ {
		st := optimizeDifferential(t, int64(seed))
		for i, c := range st.changed {
			if c {
				changed[i]++
			}
		}
		if st.linked {
			linked++
		}
		compared += st.compared
		skipped += st.skipped
	}
	for i, pc := range passConfigs {
		if changed[i] == 0 {
			t.Errorf("%s changed none of %d programs; the generator misses its precondition", pc.name, programs)
		}
	}
	t.Logf("%d programs, %d linked; changed by coalescing %d, match reduction %d, stratification %d, all passes %d; %d requests compared, %d streams cut at the naive step limit",
		programs, linked, changed[0], changed[1], changed[2], changed[3], compared, skipped)
}

// FuzzOptimize is TestDifferentialFuzz with the seed drawn by the fuzzer.
func FuzzOptimize(f *testing.F) {
	for _, s := range []int64{0, 1, 7, 42, 1234} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		optimizeDifferential(t, seed)
	})
}
