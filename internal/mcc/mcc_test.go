package mcc

import (
	"errors"
	"strings"
	"testing"

	"lambdanic/internal/nicsim"
)

// mustLink is a test helper wrapping Link.
func mustLink(t *testing.T, p *Program) *Executable {
	t.Helper()
	e, err := Link(p)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return e
}

// singleEntry builds a program with one lambda (ID 1) from a function
// and optional objects.
func singleEntry(t *testing.T, f *Function, objs ...*Object) *Program {
	t.Helper()
	p := NewProgram()
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := p.AddObject(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddEntry(1, f.Name); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuilderLabelResolution(t *testing.T) {
	b := NewBuilder("count")
	// r0 = 3; loop: r0--; if r0 != 0 goto loop; ret r0
	b.MovImm(0, 3)
	b.MovImm(1, 1)
	b.Label("loop")
	b.Sub(0, 0, 1)
	b.Brnz(0, "loop")
	b.Ret(0)
	f, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if f.Body[3].Imm != 2 {
		t.Errorf("branch target = %d, want 2", f.Body[3].Imm)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Jmp("nowhere")
	if _, err := b.Build(); err == nil {
		t.Fatal("Build with undefined label succeeded")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Label("x")
	b.Nop()
	b.Label("x")
	if _, err := b.Build(); err == nil {
		t.Fatal("Build with duplicate label succeeded")
	}
}

func TestInterpArithmetic(t *testing.T) {
	b := NewBuilder("alu")
	b.MovImm(1, 10)
	b.MovImm(2, 3)
	b.Add(3, 1, 2) // 13
	b.Mul(3, 3, 2) // 39
	b.Sub(3, 3, 1) // 29
	b.MovImm(4, 1)
	b.Shl(3, 3, 4) // 58
	b.Shr(3, 3, 4) // 29
	b.EmitByte(3)
	b.Ret(3)
	p := singleEntry(t, b.MustBuild())
	e := mustLink(t, p)
	status, resp, _, err := e.RunStandalone("alu", nil, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if status != 29 || len(resp) != 1 || resp[0] != 29 {
		t.Errorf("status=%d resp=%v, want 29/[29]", status, resp)
	}
}

func TestInterpLoop(t *testing.T) {
	// Sum 1..10 via branch ops.
	b := NewBuilder("sum")
	b.MovImm(1, 10) // i
	b.MovImm(2, 0)  // acc
	b.MovImm(3, 1)
	b.Label("loop")
	b.Add(2, 2, 1)
	b.Sub(1, 1, 3)
	b.Brnz(1, "loop")
	b.Ret(2)
	p := singleEntry(t, b.MustBuild())
	e := mustLink(t, p)
	status, _, stats, err := e.RunStandalone("sum", nil, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if status != 55 {
		t.Errorf("sum = %d, want 55", status)
	}
	// 3 setup + 10 iterations x 3 + ret = 34 instructions.
	if stats.Instructions != 34 {
		t.Errorf("Instructions = %d, want 34", stats.Instructions)
	}
}

func TestInterpMemoryAndLevels(t *testing.T) {
	b := NewBuilder("mem")
	b.MovImm(1, 0)
	b.MovImm(2, 0x41)
	b.Store("buf", 1, 0, 2)
	b.Load(3, "buf", 1, 0)
	b.EmitByte(3)
	b.Ret(3)
	obj := &Object{Name: "buf", Size: 16, Level: nicsim.MemIMEM}
	p := singleEntry(t, b.MustBuild(), obj)
	e := mustLink(t, p)
	_, resp, stats, err := e.RunStandalone("mem", nil, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if string(resp) != "A" {
		t.Errorf("resp = %q, want A", resp)
	}
	if got := stats.Accesses(nicsim.MemIMEM); got != 2 {
		t.Errorf("IMEM accesses = %d, want 2", got)
	}
}

func TestInterpWordOps(t *testing.T) {
	b := NewBuilder("word")
	b.MovImm(1, 0)
	b.MovImm(2, 0x1122334455667788)
	b.StoreW("buf", 1, 0, 2)
	b.LoadW(3, "buf", 1, 0)
	b.Ret(3)
	p := singleEntry(t, b.MustBuild(), &Object{Name: "buf", Size: 8})
	e := mustLink(t, p)
	status, _, _, err := e.RunStandalone("word", nil, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if status != 0x1122334455667788 {
		t.Errorf("round-trip = %#x", status)
	}
}

func TestInterpOutOfBounds(t *testing.T) {
	// The address comes from a header, so the static assertions cannot
	// prove it bad; the dynamic check must catch it.
	b := NewBuilder("oob")
	b.HdrGet(1, FieldArg0)
	b.Load(2, "buf", 1, 0)
	b.Ret(2)
	p := singleEntry(t, b.MustBuild(), &Object{Name: "buf", Size: 8})
	e := mustLink(t, p)
	_, _, _, err := e.RunStandalone("oob", nil, map[int]int64{FieldArg0: 100})
	if !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("err = %v, want ErrOutOfBounds", err)
	}
}

func TestInterpStepLimit(t *testing.T) {
	b := NewBuilder("spin")
	b.Label("loop")
	b.Jmp("loop")
	p := singleEntry(t, b.MustBuild())
	e, err := link(p, 1000, true)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = e.RunStandalone("spin", nil, nil)
	if !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

func TestInterpHeadersAndPayload(t *testing.T) {
	b := NewBuilder("hdr")
	b.HdrGet(1, FieldArg0)
	b.PktLoad(2, RegZero, 1) // payload[1]
	b.Add(3, 1, 2)
	b.PktLen(4)
	b.Add(3, 3, 4)
	b.Ret(3)
	p := singleEntry(t, b.MustBuild())
	e := mustLink(t, p)
	status, _, _, err := e.RunStandalone("hdr", []byte{9, 7, 5}, map[int]int64{FieldArg0: 100})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if status != 100+7+3 {
		t.Errorf("status = %d, want 110", status)
	}
}

func TestInterpZeroRegister(t *testing.T) {
	b := NewBuilder("zr")
	b.MovImm(RegZero, 42) // must be discarded
	b.Mov(1, RegZero)
	b.Ret(1)
	p := singleEntry(t, b.MustBuild())
	e := mustLink(t, p)
	status, _, _, err := e.RunStandalone("zr", nil, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if status != 0 {
		t.Errorf("RegZero read = %d, want 0", status)
	}
}

func TestInterpCallAndSharedState(t *testing.T) {
	helper := NewBuilder("helper")
	helper.MovImm(5, 7)
	helper.Ret(5)
	main := NewBuilder("main")
	main.Call("helper")
	main.Ret(5) // registers are shared across calls (NPU style)
	p := NewProgram()
	if err := p.AddFunc(helper.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := p.AddFunc(main.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEntry(1, "main"); err != nil {
		t.Fatal(err)
	}
	e := mustLink(t, p)
	status, _, _, err := e.RunStandalone("main", nil, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if status != 7 {
		t.Errorf("status = %d, want 7", status)
	}
}

func TestValidateRejectsRecursion(t *testing.T) {
	a := NewBuilder("a")
	a.Call("b")
	a.Ret(0)
	bf := NewBuilder("b")
	bf.Call("a")
	bf.Ret(0)
	p := NewProgram()
	if err := p.AddFunc(a.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := p.AddFunc(bf.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEntry(1, "a"); err != nil {
		t.Fatal(err)
	}
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Errorf("Validate = %v, want recursion error", err)
	}
}

func TestValidateRejectsUnknownSymbols(t *testing.T) {
	b := NewBuilder("f")
	b.Load(1, "ghost", 0, 0)
	b.Ret(1)
	p := singleEntry(t, b.MustBuild())
	// Remove the object check path by not adding "ghost".
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted unknown object")
	}

	b2 := NewBuilder("g")
	b2.Call("phantom")
	b2.Ret(0)
	p2 := NewProgram()
	if err := p2.AddFunc(b2.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := p2.Validate(); err == nil {
		t.Error("Validate accepted unknown call target")
	}
}

func TestBulkMemcpyAndCosts(t *testing.T) {
	b := NewBuilder("cp")
	b.MovImm(1, 0)   // src off
	b.MovImm(2, 128) // len
	b.MovImm(3, 0)   // dst off
	b.Memcpy("dst", 3, "src", 1, 2)
	b.MovImm(4, 0)
	b.MovImm(5, 128)
	b.Emit("dst", 4, 5)
	b.Ret(2)
	src := &Object{Name: "src", Size: 128, Init: []byte(strings.Repeat("x", 128)), Level: nicsim.MemEMEM}
	dst := &Object{Name: "dst", Size: 128, Level: nicsim.MemCTM}
	p := singleEntry(t, b.MustBuild(), src, dst)
	e := mustLink(t, p)
	_, resp, stats, err := e.RunStandalone("cp", nil, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(resp) != 128 || resp[0] != 'x' {
		t.Errorf("copy failed: %d bytes", len(resp))
	}
	// 128 bytes = 2 bursts at each side.
	if got := stats.Accesses(nicsim.MemEMEM); got != 2 {
		t.Errorf("EMEM accesses = %d, want 2", got)
	}
	// dst: 2 write bursts + 2 emit read bursts.
	if got := stats.Accesses(nicsim.MemCTM); got != 4 {
		t.Errorf("CTM accesses = %d, want 4", got)
	}
}

func TestBulkGrayFromPayload(t *testing.T) {
	b := NewBuilder("gray")
	b.PktLen(2)    // bytes
	b.MovImm(1, 0) // src off
	b.MovImm(3, 0) // dst off
	b.Gray("out", 3, PayloadObject, 1, 2)
	b.MovImm(4, 2)
	b.Shr(5, 2, 4) // pixels = bytes/4
	b.Emit("out", 3, 5)
	b.Ret(5)
	p := singleEntry(t, b.MustBuild(), &Object{Name: "out", Size: 64})
	e := mustLink(t, p)
	// Two pixels: pure red and pure green.
	payload := []byte{255, 0, 0, 255, 0, 255, 0, 255}
	status, resp, stats, err := e.RunStandalone("gray", payload, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if status != 2 || len(resp) != 2 {
		t.Fatalf("pixels = %d resp = %v", status, resp)
	}
	// (77*255)>>8 = 76 for red; (150*255)>>8 = 149 for green.
	if resp[0] != 76 || resp[1] != 149 {
		t.Errorf("gray = %v, want [76 149]", resp)
	}
	if stats.Instructions < uint64(2) {
		t.Error("gray charged no per-pixel instructions")
	}
}

func TestBulkGrayRejectsPartialPixel(t *testing.T) {
	b := NewBuilder("gray")
	b.MovImm(2, 3) // not a multiple of 4
	b.Gray("out", 3, PayloadObject, 1, 2)
	b.Ret(2)
	p := singleEntry(t, b.MustBuild(), &Object{Name: "out", Size: 64})
	e := mustLink(t, p)
	if _, _, _, err := e.RunStandalone("gray", []byte{1, 2, 3}, nil); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("err = %v, want ErrOutOfBounds", err)
	}
}

func TestBulkHashDeterministic(t *testing.T) {
	b := NewBuilder("h")
	b.MovImm(1, 0)
	b.MovImm(2, 8)
	b.Hash(3, "key", 1, 2)
	b.Ret(3)
	p := singleEntry(t, b.MustBuild(), &Object{Name: "key", Size: 8, Init: []byte("abcdefgh")})
	e := mustLink(t, p)
	s1, _, _, err := e.RunStandalone("h", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, _, err := e.RunStandalone("h", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 || s1 == 0 {
		t.Errorf("hash not deterministic or zero: %d vs %d", s1, s2)
	}
}

func TestObjectStatePersistsAcrossRuns(t *testing.T) {
	// A counter lambda: increments a persistent word (paper §4.1:
	// "global objects that persist state across runs").
	b := NewBuilder("counter")
	b.MovImm(1, 0)
	b.LoadW(2, "state", 1, 0)
	b.MovImm(3, 1)
	b.Add(2, 2, 3)
	b.StoreW("state", 1, 0, 2)
	b.Ret(2)
	p := singleEntry(t, b.MustBuild(), &Object{Name: "state", Size: 8})
	e := mustLink(t, p)
	for want := int64(1); want <= 3; want++ {
		got, _, _, err := e.RunStandalone("counter", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("run %d: counter = %d", want, got)
		}
	}
	e.Reset()
	got, _, _, err := e.RunStandalone("counter", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("after Reset counter = %d, want 1", got)
	}
}

func TestExecuteViaNICInterface(t *testing.T) {
	b := NewBuilder("echo")
	b.PktLen(2)
	b.MovImm(1, 0)
	b.MovImm(3, 0)
	b.Memcpy("buf", 3, PayloadObject, 1, 2)
	b.Emit("buf", 3, 2)
	b.Ret(2)
	p := singleEntry(t, b.MustBuild(), &Object{Name: "buf", Size: 256})
	e := mustLink(t, p)
	if !e.Handles(1) || e.Handles(2) {
		t.Error("Handles wrong")
	}
	resp, err := e.Execute(&nicsim.Request{LambdaID: 1, Payload: []byte("ping"), Packets: 1})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if string(resp.Payload) != "ping" {
		t.Errorf("resp = %q", resp.Payload)
	}
	// Single-packet payload reads charge CTM.
	if resp.Stats.Accesses(nicsim.MemCTM) == 0 {
		t.Error("no CTM accesses for single-packet payload")
	}
	// Multi-packet payloads are RDMA-committed to EMEM.
	resp2, err := e.Execute(&nicsim.Request{LambdaID: 1, Payload: []byte("pingpong"), Packets: 3})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if resp2.Stats.Accesses(nicsim.MemEMEM) == 0 {
		t.Error("no EMEM accesses for multi-packet payload")
	}
}

func TestExecuteUnknownEntry(t *testing.T) {
	b := NewBuilder("f")
	b.Ret(0)
	p := singleEntry(t, b.MustBuild())
	e := mustLink(t, p)
	if _, err := e.Execute(&nicsim.Request{LambdaID: 99}); !errors.Is(err, ErrNoEntry) {
		t.Errorf("err = %v, want ErrNoEntry", err)
	}
}

func TestLinkRejectsEmptyProgram(t *testing.T) {
	if _, err := Link(NewProgram()); err == nil {
		t.Error("Link accepted program with no entries")
	}
}

func TestMemoryBytesByLevel(t *testing.T) {
	b := NewBuilder("f")
	b.Ret(0)
	p := singleEntry(t, b.MustBuild(),
		&Object{Name: "a", Size: 100, Level: nicsim.MemCTM},
		&Object{Name: "b", Size: 200, Level: nicsim.MemEMEM},
		&Object{Name: "c", Size: 300}, // unassigned -> EMEM
	)
	e := mustLink(t, p)
	mem := e.MemoryBytes()
	if mem[nicsim.MemCTM] != 100 || mem[nicsim.MemEMEM] != 500 {
		t.Errorf("MemoryBytes = %v", mem)
	}
}
