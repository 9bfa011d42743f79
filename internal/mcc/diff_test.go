package mcc

// Differential fuzzing of the two execution engines (the tentpole
// invariant): for randomly generated programs, the closure-compiled
// engine and the reference interpreter must agree on status, response
// bytes, ExecStats.Instructions, per-level access counts, persistent
// object memory, and fault sentinels — including step-limit trips that
// land inside fused blocks, out-of-bounds accesses, and call-depth
// overflows.

import (
	"bytes"
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

func genProgram(t *testing.T, r *rand.Rand) *Program {
	t.Helper()
	p := NewProgram()
	for _, o := range fuzzObjects {
		init := make([]byte, o.size)
		r.Read(init)
		if err := p.AddObject(&Object{
			Name:  o.name,
			Size:  o.size,
			Init:  init,
			Level: fuzzLevels[r.Intn(len(fuzzLevels))],
		}); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{"f0", "f1", "f2"}
	for i, name := range names {
		if err := p.AddFunc(&Function{Name: name, Body: genBody(r, i, names)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddEntry(1, "f0"); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEntry(2, "f1"); err != nil {
		t.Fatal(err)
	}
	// Every fourth program gets a reduced match stage so the jump
	// table's charging is fuzzed too.
	if r.Intn(4) == 0 {
		p.Match = &MatchPlan{
			Tables: []MatchTable{
				{Name: "r0", Field: FieldWorkloadID, Entries: []MatchEntry{{Value: 1, Action: "f0"}}},
				{Name: "r1", Field: FieldWorkloadID, Entries: []MatchEntry{{Value: 2, Action: "f1"}}},
			},
			Reduced: true,
		}
		mf, err := GenerateMatch(p.Match)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AddFunc(mf); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestDifferentialFuzz(t *testing.T) {
	programs := 300
	if testing.Short() {
		programs = 60
	}
	// Small limits force trips inside fused blocks and dispatch chains;
	// the large one lets loops run (or spin to the limit).
	limits := []uint64{23, 157, 10000}
	linked, skipped := 0, 0
	for seed := 0; seed < programs; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		p := genProgram(t, r)
		limit := limits[seed%len(limits)]
		ce, cerr := linkEngine(p, limit, EngineCompiled)
		ie, ierr := linkEngine(p, limit, EngineInterp)
		if (cerr == nil) != (ierr == nil) {
			t.Fatalf("seed %d: link divergence: compiled=%v interp=%v", seed, cerr, ierr)
		}
		if cerr != nil {
			skipped++ // StaticCheck rejected the program in both engines
			continue
		}
		linked++
		for reqn := 0; reqn < 5; reqn++ {
			payload := make([]byte, r.Intn(65))
			r.Read(payload)
			req := &nicsim.Request{
				LambdaID: []uint32{1, 2, 1, 7, 1}[reqn],
				Payload:  payload,
				Packets:  1 + 3*(reqn%2),
			}
			cresp, cerr := ce.Execute(req)
			iresp, ierr := ie.Execute(req)
			if (cerr == nil) != (ierr == nil) {
				t.Fatalf("seed %d req %d: error divergence: compiled=%v interp=%v\n%s",
					seed, reqn, cerr, ierr, p.Disassemble())
			}
			if cerr != nil && !sameFaultClass(cerr, ierr) {
				t.Fatalf("seed %d req %d: fault class divergence: compiled=%v interp=%v\n%s",
					seed, reqn, cerr, ierr, p.Disassemble())
			}
			if cresp.Stats != iresp.Stats {
				t.Fatalf("seed %d req %d (err=%v): stats divergence:\ncompiled %+v\ninterp   %+v\n%s",
					seed, reqn, cerr, cresp.Stats, iresp.Stats, p.Disassemble())
			}
			if !bytes.Equal(cresp.Payload, iresp.Payload) {
				t.Fatalf("seed %d req %d: response divergence:\ncompiled %x\ninterp   %x\n%s",
					seed, reqn, cresp.Payload, iresp.Payload, p.Disassemble())
			}
		}
		// Persistent object memory must have evolved identically.
		for i := range ce.slots {
			if !bytes.Equal(ce.slots[i].mem, ie.slots[i].mem) {
				t.Fatalf("seed %d: object %s memory divergence", seed, ce.slots[i].name)
			}
		}
	}
	if linked == 0 {
		t.Fatal("every generated program was rejected; generator too hot")
	}
	t.Logf("fuzzed %d programs (%d rejected by StaticCheck), 5 requests each", linked, skipped)
}
