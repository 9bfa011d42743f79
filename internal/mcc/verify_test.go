package mcc

import (
	"errors"
	"strings"
	"testing"
)

func TestStaticCheckCatchesConstantOOBStore(t *testing.T) {
	b := NewBuilder("bad")
	b.MovImm(1, 100) // beyond the 8-byte object
	b.MovImm(2, 1)
	b.Store("buf", 1, 0, 2)
	b.Ret(2)
	p := singleEntry(t, b.MustBuild(), &Object{Name: "buf", Size: 8})
	violations := StaticCheck(p)
	if len(violations) != 1 {
		t.Fatalf("violations = %d, want 1: %v", len(violations), violations)
	}
	if !strings.Contains(violations[0].Msg, "buf[100:101]") {
		t.Errorf("message = %q", violations[0].Msg)
	}
	// Link refuses the program.
	if _, err := Link(p); err == nil {
		t.Error("Link accepted statically invalid program")
	}
}

func TestStaticCheckCatchesNegativeOffset(t *testing.T) {
	b := NewBuilder("bad")
	b.MovImm(1, 5)
	b.Load(2, "buf", 1, -10) // addr = -5
	b.Ret(2)
	p := singleEntry(t, b.MustBuild(), &Object{Name: "buf", Size: 8})
	if len(StaticCheck(p)) != 1 {
		t.Error("negative constant address not caught")
	}
}

func TestStaticCheckConstantPropagationThroughALU(t *testing.T) {
	// addr = (4 + 4) * 2 = 16, width 8 -> [16:24] of a 16-byte object.
	b := NewBuilder("bad")
	b.MovImm(1, 4)
	b.MovImm(2, 4)
	b.Add(3, 1, 2)
	b.MovImm(4, 2)
	b.Mul(3, 3, 4)
	b.LoadW(5, "buf", 3, 0)
	b.Ret(5)
	p := singleEntry(t, b.MustBuild(), &Object{Name: "buf", Size: 16})
	if len(StaticCheck(p)) != 1 {
		t.Error("ALU-propagated OOB address not caught")
	}
}

func TestStaticCheckEmitAndBulk(t *testing.T) {
	// Constant emit past the object end.
	b := NewBuilder("bademit")
	b.MovImm(1, 4)
	b.MovImm(2, 10)
	b.Emit("buf", 1, 2) // [4:14] of 8
	b.Ret(2)
	p := singleEntry(t, b.MustBuild(), &Object{Name: "buf", Size: 8})
	if len(StaticCheck(p)) != 1 {
		t.Error("OOB emit not caught")
	}

	// Constant memcpy writing past the destination.
	b2 := NewBuilder("badcpy")
	b2.MovImm(1, 0)  // src off
	b2.MovImm(2, 64) // len
	b2.MovImm(3, 8)  // dst off
	b2.Memcpy("dst", 3, "src", 1, 2)
	b2.Ret(2)
	p2 := singleEntry(t, b2.MustBuild(),
		&Object{Name: "src", Size: 64},
		&Object{Name: "dst", Size: 32})
	if len(StaticCheck(p2)) != 1 {
		t.Error("OOB memcpy not caught")
	}
}

func TestStaticCheckUnknownAddressesSkipped(t *testing.T) {
	// Addresses from headers are dynamic: the static pass must not
	// flag them (the interpreter's dynamic check guards them instead).
	b := NewBuilder("dyn")
	b.HdrGet(1, FieldArg0)
	b.Load(2, "buf", 1, 0)
	b.Ret(2)
	p := singleEntry(t, b.MustBuild(), &Object{Name: "buf", Size: 8})
	if got := StaticCheck(p); len(got) != 0 {
		t.Errorf("dynamic access flagged: %v", got)
	}
}

func TestStaticCheckKnowledgeDiesAtBranchTargets(t *testing.T) {
	// r1 is 0 on the fall-through path but unknown at the loop target,
	// where it may have been incremented; the access must not be
	// flagged even though one constant path would be in bounds.
	b := NewBuilder("loopy")
	b.MovImm(1, 0)
	b.Label("loop")
	b.Load(2, "buf", 1, 0)
	b.MovImm(3, 1)
	b.Add(1, 1, 3)
	b.MovImm(4, 4)
	b.Lt(5, 1, 4)
	b.Brnz(5, "loop")
	b.Ret(2)
	p := singleEntry(t, b.MustBuild(), &Object{Name: "buf", Size: 2})
	// The loop walks past the 2-byte object at runtime, but statically
	// the address at the target is unknown — no false positive, and the
	// dynamic check still catches it.
	if got := StaticCheck(p); len(got) != 0 {
		t.Errorf("loop access flagged statically: %v", got)
	}
	e, err := Link(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := e.RunStandalone("loopy", nil, nil); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("dynamic check missed the overflow: %v", err)
	}
}

func TestStaticCheckKnowledgeDiesAtCalls(t *testing.T) {
	helper := NewBuilder("helper")
	helper.MovImm(1, 100) // clobbers r1 with an OOB value
	helper.Ret(1)
	main := NewBuilder("main")
	main.MovImm(1, 0)
	main.Call("helper")
	main.Load(2, "buf", 1, 0) // r1 is 100 at runtime, unknown statically
	main.Ret(2)
	p := NewProgram()
	if err := p.AddFunc(helper.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := p.AddFunc(main.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := p.AddObject(&Object{Name: "buf", Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEntry(1, "main"); err != nil {
		t.Fatal(err)
	}
	if got := StaticCheck(p); len(got) != 0 {
		t.Errorf("post-call access flagged: %v", got)
	}
}

func TestStaticCheckCleanPrograms(t *testing.T) {
	// The whole benchmark program must pass the static assertions (it
	// links, which runs them).
	p := buildMatchProgram(t)
	if got := StaticCheck(p); len(got) != 0 {
		t.Errorf("benchmark program has violations: %v", got)
	}
}

func TestDisassembleFunction(t *testing.T) {
	b := NewBuilder("demo")
	b.MovImm(1, 5)
	b.Label("loop")
	b.MovImm(2, 1)
	b.Sub(1, 1, 2)
	b.Brnz(1, "loop")
	b.Load(3, "buf", RegZero, 2)
	b.Ret(3)
	f := b.MustBuild()
	out := f.Disassemble()
	for _, want := range []string{"demo:", "movi r1, 5", "L0:", "brnz r1, L0", "ld r3, buf[rz+2]", "ret r3"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

func TestDisassembleProgram(t *testing.T) {
	p := buildMatchProgram(t)
	out := p.Disassemble()
	for _, want := range []string{".object obj_a", ".entry 1 -> lambda_a", "__match:", "call lambda_a"} {
		if !strings.Contains(out, want) {
			t.Errorf("program disassembly missing %q", want)
		}
	}
}
