package mcc

// The replay proof's soundness generator. Random programs in the shape
// the proof reasons about — a header parser every lambda calls first,
// branches on the parsed fields, bulk copies and emits sized by them
// with helper calls between, guard reads with write-backs, loads whose
// value goes nowhere, and genBody's noise around them — run one request
// stream on two images of the same program: a compiled one, which
// replays, and an EngineInterp one, which never does. Requests share
// keys (length, level, header bytes) and differ in body bytes. The
// lambdas' Native function answers with the reference image's reply to
// the same request, so a replay is wrong exactly when its stats, reply
// length or error differ from the reference's, or when a store it
// skipped shows in a later execution or in object memory at the end.

import (
	"bytes"
	"math/rand"
	"testing"

	"lambdanic/internal/nicsim"
)

// parseFunc reads payload[0:4] and payload[4:8], big-endian, into arg0
// and arg1 when the payload holds eight bytes.
func parseFunc() *Function {
	b := NewBuilder("parse").PktLen(1).MovImm(2, 8).Lt(3, 1, 2).Brnz(3, "short").MovImm(5, 8)
	for f, field := range []int64{FieldArg0, FieldArg1} {
		b.MovImm(4, 0)
		for i := int64(0); i < 4; i++ {
			b.Shl(4, 4, 5).PktLoad(6, RegZero, int64(4*f)+i).Or(4, 4, 6)
		}
		b.HdrSet(field, 4)
	}
	return b.Label("short").Ret(RegZero).MustBuild()
}

// motif returns one pattern a replay rule is about. Its branch targets
// are relative to its first instruction; one past its last is the
// instruction after it. helper names a function to call between a bulk
// write and the emit that reads it back ("" for none).
func motif(r *rand.Rand, helper string) []Instr {
	reg := func() Reg { return Reg(1 + r.Intn(NumRegs-2)) }
	obj := func() string { return fuzzObjects[r.Intn(len(fuzzObjects))].name }
	a, b, c := reg(), reg(), reg()
	field := int64(FieldArg0 + r.Intn(2))
	off := int64(8 * r.Intn(2))
	switch r.Intn(5) {
	case 0: // a parsed field steers
		return []Instr{{Op: OpHdrGet, Rd: a, Imm: field}, {Op: OpMovImm, Rd: b, Imm: 3},
			{Op: OpAnd, Rd: a, Rs1: a, Rs2: b}, {Op: OpBrz, Rs1: a, Imm: 5}, {Op: OpEmitByte, Rs1: a}}
	case 1: // a bulk write and an emit sized by a parsed field
		op, k, src := OpMemcpy, int64(1), obj()
		if r.Intn(2) == 0 {
			op, k = OpGray, 4
		}
		if r.Intn(3) == 0 {
			src = PayloadObject
		}
		dst := obj()
		ins := []Instr{{Op: OpHdrGet, Rd: a, Imm: field}, {Op: OpMovImm, Rd: b, Imm: 15},
			{Op: OpAnd, Rd: a, Rs1: a, Rs2: b}, {Op: OpMovImm, Rd: b, Imm: k}, {Op: OpMul, Rd: b, Rs1: a, Rs2: b},
			{Op: OpMovImm, Rd: c, Imm: 0}, {Op: op, Rd: c, Rs1: c, Rs2: b, Sym: dst, Sym2: src}}
		if helper != "" {
			ins = append(ins, Instr{Op: OpCall, Sym: helper})
		}
		return append(ins, Instr{Op: OpEmit, Rs1: c, Rs2: a, Sym: dst})
	case 2: // state that steers: counted up here, or read only (a guard)
		o := obj()
		ins := []Instr{{Op: OpLoadW, Rd: a, Rs1: RegZero, Imm: off, Sym: o}, {Op: OpMovImm, Rd: b, Imm: int64(r.Intn(2))},
			{Op: OpAdd, Rd: a, Rs1: a, Rs2: b}, {Op: OpStoreW, Rs1: RegZero, Rs2: a, Imm: off, Sym: o},
			{Op: OpBrz, Rs1: a, Imm: 6}, {Op: OpEmitByte, Rs1: b}}
		if r.Intn(2) == 0 {
			ins[3] = Instr{Op: OpNop}
		}
		return ins
	case 3: // a load whose value goes nowhere
		return []Instr{{Op: OpLoad, Rd: a, Rs1: RegZero, Imm: off, Sym: obj()}, {Op: OpAdd, Rd: b, Rs1: b, Rs2: a}}
	default: // a parsed field kept as state
		return []Instr{{Op: OpHdrGet, Rd: a, Imm: field}, {Op: OpStoreW, Rs1: RegZero, Rs2: a, Imm: off, Sym: obj()}}
	}
}

// genReplayProgram builds lambdas 1 and 2 (f0, f1) and their helper f2
// from motifs and genBody segments; the lambdas call parse first.
func genReplayProgram(t *testing.T, r *rand.Rand) *Program {
	t.Helper()
	p := NewProgram()
	for _, o := range fuzzObjects {
		init := make([]byte, o.size)
		r.Read(init)
		if err := p.AddObject(&Object{Name: o.name, Size: o.size, Init: init, Level: fuzzLevels[r.Intn(len(fuzzLevels))]}); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{"f0", "f1", "f2"}
	for fi, name := range names {
		var body []Instr
		if fi < 2 {
			body = append(body, Instr{Op: OpCall, Sym: "parse"})
		}
		for seg := 1 + r.Intn(3); seg > 0; seg-- {
			var ins []Instr
			if r.Intn(3) > 0 {
				helper := ""
				if fi < 2 && r.Intn(2) == 0 {
					helper = "f2"
				}
				ins = motif(r, helper)
			} else {
				ins = genBody(r, fi, names)
				ins = ins[:min(len(ins), 1+r.Intn(8))]
			}
			for i := range ins {
				switch ins[i].Op {
				case OpJmp, OpBrz, OpBrnz:
					ins[i].Imm = min(ins[i].Imm, int64(len(ins))) + int64(len(body))
				}
			}
			body = append(body, ins...)
		}
		if err := p.AddFunc(&Function{Name: name, Body: append(body, Instr{Op: OpRet, Rs1: RegZero})}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddFunc(parseFunc()); err != nil {
		t.Fatal(err)
	}
	for i, name := range names[:2] {
		if err := p.AddEntry(uint32(i+1), name); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// replayDifferential runs one generated program against its reference
// image, failing t on the first divergence, and reports whether the
// program linked and how many requests it replayed. hdr seeds the
// header bytes of the request templates.
func replayDifferential(t *testing.T, seed int64, hdr []byte) (linked bool, replays int) {
	r := rand.New(rand.NewSource(seed))
	p := genReplayProgram(t, r)
	var reply []byte
	var replyErr error
	oracle := func([]byte) ([]byte, error) { return reply, replyErr }
	p.Native = map[uint32]func([]byte) ([]byte, error){1: oracle, 2: oracle}
	limit := []uint64{157, 10000}[r.Intn(2)]
	exe, err := Link(p, LinkOptions{StepLimit: limit})
	if err != nil {
		return false, 0 // StaticCheck rejected it
	}
	ref, err := Link(p, LinkOptions{StepLimit: limit, Engine: EngineInterp})
	if err != nil {
		t.Fatalf("seed %d: only the reference image fails to link: %v", seed, err)
	}
	// Templates of 0, 8 and 24 bytes; a request copies one, redraws its
	// body bytes and, now and then, a header byte.
	var templates [3][]byte
	for i, n := range []int{0, 8, 24} {
		templates[i] = make([]byte, n)
		r.Read(templates[i])
		copy(templates[i], hdr)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if i == n/2 {
			exe.Reset()
			ref.Reset()
		}
		payload := bytes.Clone(templates[r.Intn(len(templates))])
		for b := range payload {
			if b >= 8 || r.Intn(16) == 0 {
				payload[b] = byte(r.Intn(256))
			}
		}
		req := &nicsim.Request{LambdaID: []uint32{1, 2, 1, 7}[r.Intn(4)], Payload: payload, Packets: 1 + 3*r.Intn(2)}
		want, werr := ref.Execute(req)
		reply, replyErr = want.Payload, werr
		got, gerr := exe.Serve(req)
		if (gerr == nil) != (werr == nil) || gerr != nil && !sameFaultClass(gerr, werr) ||
			got.Stats != want.Stats || got.Size != want.Size || got.Payload != nil && !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("seed %d request %d (lambda %d, %x, %d packets): replaying image %+v size %d %x %v, reference %+v size %d %x %v\n%s",
				seed, i, req.LambdaID, payload, req.Packets, got.Stats, got.Size, got.Payload, gerr,
				want.Stats, want.Size, want.Payload, werr, p.Disassemble())
		}
		if got.Payload == nil && got.Size > 0 {
			replays++
		}
	}
	for i := range exe.slots {
		if exe.uses().uncovered[i] != "" && !bytes.Equal(exe.slots[i].mem, ref.slots[i].mem) {
			t.Fatalf("seed %d: object %s differs at the end\n%s", seed, exe.slots[i].name, p.Disassemble())
		}
	}
	return true, replays
}

// TestReplayDifferential runs the generator over 3 000 programs (300
// under -short) and wants a share of them to replay: a generator whose
// programs never arm proves nothing.
func TestReplayDifferential(t *testing.T) {
	seeds := 3000
	if testing.Short() {
		seeds = 300
	}
	linked, armed, replays := 0, 0, 0
	for seed := 0; seed < seeds; seed++ {
		ok, n := replayDifferential(t, int64(seed), []byte{0, 0, 0, byte(seed), 0, 0, 0, byte(seed >> 8)})
		if ok {
			linked++
		}
		if n > 0 {
			armed++
		}
		replays += n
	}
	if armed < linked/10 {
		t.Fatalf("%d of %d linked programs replayed a request; the generator is too cold", armed, linked)
	}
	t.Logf("%d seeds: %d programs linked, %d replayed at least one request, %d replays, 0 divergences", seeds, linked, armed, replays)
}

// FuzzReplay is TestReplayDifferential with the seed and the header
// bytes of the request templates drawn by the fuzzer.
func FuzzReplay(f *testing.F) {
	for _, s := range []int64{0, 1, 7, 42, 1234} {
		f.Add(s, []byte{0, 0, 0, 3, 0, 0, 0, 2})
	}
	f.Fuzz(func(t *testing.T, seed int64, hdr []byte) {
		replayDifferential(t, seed, hdr)
	})
}
