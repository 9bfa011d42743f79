package mcc

import (
	"errors"
	"strings"
	"testing"

	"lambdanic/internal/nicsim"
)

// linkBoth links the same program under both engines. Object memory is
// per-executable, so the two images evolve independently.
func linkBoth(t *testing.T, p *Program, stepLimit uint64) (compiled, interp *Executable) {
	t.Helper()
	c, err := linkEngine(p, stepLimit, EngineCompiled)
	if err != nil {
		t.Fatalf("Link compiled: %v", err)
	}
	i, err := linkEngine(p, stepLimit, EngineInterp)
	if err != nil {
		t.Fatalf("Link interp: %v", err)
	}
	return c, i
}

// execBoth runs the request through both engines and asserts identical
// observable behavior: status header via response payload, ExecStats,
// and error sentinel class.
func execBoth(t *testing.T, compiled, interp *Executable, req *nicsim.Request) (nicsim.Response, error) {
	t.Helper()
	cr, cerr := compiled.Execute(req)
	ir, ierr := interp.Execute(req)
	if (cerr == nil) != (ierr == nil) {
		t.Fatalf("error divergence: compiled=%v interp=%v", cerr, ierr)
	}
	if cerr != nil && !sameFaultClass(cerr, ierr) {
		t.Fatalf("fault class divergence: compiled=%v interp=%v", cerr, ierr)
	}
	if string(cr.Payload) != string(ir.Payload) {
		t.Fatalf("response divergence: compiled=%q interp=%q", cr.Payload, ir.Payload)
	}
	if cr.Stats != ir.Stats {
		t.Fatalf("stats divergence: compiled=%+v interp=%+v", cr.Stats, ir.Stats)
	}
	return cr, cerr
}

// sameFaultClass compares errors by sentinel.
func sameFaultClass(a, b error) bool {
	for _, sentinel := range []error{ErrStepLimit, ErrCallDepth, ErrOutOfBounds, ErrNoEntry, errHdrRange, errUnknownObject, errUnknownFunc, errInvalidOp} {
		if errors.Is(a, sentinel) || errors.Is(b, sentinel) {
			return errors.Is(a, sentinel) && errors.Is(b, sentinel)
		}
	}
	return a.Error() == b.Error()
}

func reducedMatchProgram(t *testing.T) *Program {
	t.Helper()
	p := NewProgram()
	add := func(f *Function) {
		if err := p.AddFunc(f); err != nil {
			t.Fatal(err)
		}
	}
	// Lambda A: arithmetic + emit; observes the scratch registers the
	// match chain leaves behind (r2 = key) like a real generated lambda
	// could.
	la := NewBuilder("lambda_a")
	la.MovImm(3, 10)
	la.Add(3, 3, 2) // r2 holds the matched key
	la.EmitByte(3)
	la.MovImm(1, StatusForward)
	la.Ret(1)
	add(la.MustBuild())
	// Lambda B: stateful counter in an object.
	lb := NewBuilder("lambda_b")
	lb.MovImm(4, 0)
	lb.Load(5, "ctr", 4, 0)
	lb.MovImm(6, 1)
	lb.Add(5, 5, 6)
	lb.Store("ctr", 4, 0, 5)
	lb.EmitByte(5)
	lb.MovImm(1, StatusForward)
	lb.Ret(1)
	add(lb.MustBuild())
	if err := p.AddObject(&Object{Name: "ctr", Size: 8, Level: nicsim.MemCTM}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEntry(1, "lambda_a"); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEntry(2, "lambda_b"); err != nil {
		t.Fatal(err)
	}
	p.Match = &MatchPlan{
		Tables: []MatchTable{
			{Name: "ra", Field: FieldWorkloadID, Entries: []MatchEntry{{Value: 1, Action: "lambda_a"}}},
			{Name: "rb", Field: FieldWorkloadID, Entries: []MatchEntry{{Value: 2, Action: "lambda_b"}}},
		},
		Reduced: true,
	}
	mf, err := GenerateMatch(p.Match)
	if err != nil {
		t.Fatal(err)
	}
	add(mf)
	return p
}

func TestDispatchKinds(t *testing.T) {
	// Direct dispatch: no match stage.
	bd := NewBuilder("f")
	bd.MovImm(1, StatusForward)
	bd.Ret(1)
	direct := link(t, singleEntry(t, bd.MustBuild()))
	if got := direct.DispatchKind(); got != "direct" {
		t.Fatalf("DispatchKind = %q, want direct", got)
	}
	if direct.Engine() != EngineCompiled {
		t.Fatalf("default engine = %v, want compiled", direct.Engine())
	}

	// Reduced match stage: jump table.
	jt := link(t, reducedMatchProgram(t))
	if got := jt.DispatchKind(); got != "jump-table" {
		t.Fatalf("DispatchKind = %q, want jump-table", got)
	}

	// Interpreter engine reports itself.
	ie, err := LinkInterp(reducedMatchProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := ie.DispatchKind(); got != "interp" {
		t.Fatalf("DispatchKind = %q, want interp", got)
	}
}

// A __match body that no longer matches what GenerateMatch would emit
// for the plan must not be replaced by the jump table: the edited code
// is the source of truth and executes as a compiled chain.
func TestJumpTableRejectsHandEditedMatch(t *testing.T) {
	p := reducedMatchProgram(t)
	mf := p.Func(MatchFunction)
	mf.Body = append([]Instr{{Op: OpNop}}, mf.Body...)
	// Fix up branch targets shifted by the prepended nop.
	for i := 1; i < len(mf.Body); i++ {
		switch mf.Body[i].Op {
		case OpJmp, OpBrz, OpBrnz:
			mf.Body[i].Imm++
		}
	}
	exe := link(t, p)
	if got := exe.DispatchKind(); got != "match-chain" {
		t.Fatalf("DispatchKind = %q, want match-chain", got)
	}
	// And it still agrees with the interpreter.
	ie, err := LinkInterp(p)
	if err != nil {
		t.Fatal(err)
	}
	execBoth(t, exe, ie, &nicsim.Request{LambdaID: 2, Packets: 1})
}

func TestJumpTableParity(t *testing.T) {
	p := reducedMatchProgram(t)
	compiled, interp := linkBoth(t, p, defaultStepLimit)
	// Hits on both lambdas (lambda_b is stateful: the counter advances
	// in lockstep in both images), then a miss.
	for _, id := range []uint32{1, 2, 2, 2, 1, 99} {
		resp, err := execBoth(t, compiled, interp, &nicsim.Request{LambdaID: id, Packets: 1})
		if err != nil {
			t.Fatalf("lambda %d: %v", id, err)
		}
		if id == 99 && len(resp.Payload) != 0 {
			t.Fatalf("miss emitted payload %q", resp.Payload)
		}
	}
}

// Tiny step limits must trip at the exact same instruction count in
// both engines, whether the limit lands inside a fused block, inside
// the jump-table dispatch chain, or inside a lambda.
func TestStepLimitParity(t *testing.T) {
	p := reducedMatchProgram(t)
	for limit := uint64(1); limit <= 40; limit++ {
		compiled, interp := linkBoth(t, p, limit)
		for _, id := range []uint32{1, 2, 99} {
			req := &nicsim.Request{LambdaID: id, Packets: 1}
			cr, cerr := compiled.Execute(req)
			ir, ierr := interp.Execute(req)
			if (cerr == nil) != (ierr == nil) || (cerr != nil && !sameFaultClass(cerr, ierr)) {
				t.Fatalf("limit %d id %d: compiled err %v, interp err %v", limit, id, cerr, ierr)
			}
			if cr.Stats != ir.Stats {
				t.Fatalf("limit %d id %d: stats %+v vs %+v", limit, id, cr.Stats, ir.Stats)
			}
			if cerr != nil && cr.Stats.Instructions != limit+1 {
				t.Fatalf("limit %d id %d: tripped at %d instructions, want limit+1", limit, id, cr.Stats.Instructions)
			}
		}
	}
}

func TestCompiledCallDepthParity(t *testing.T) {
	p := NewProgram()
	const chain = maxCallDepth + 4
	for i := chain - 1; i >= 0; i-- {
		b := NewBuilder(funcName(i))
		if i+1 < chain {
			b.Call(funcName(i + 1))
		}
		b.MovImm(1, StatusForward)
		b.Ret(1)
		if err := p.AddFunc(b.MustBuild()); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddEntry(1, funcName(0)); err != nil {
		t.Fatal(err)
	}
	compiled, interp := linkBoth(t, p, defaultStepLimit)
	_, err := execBoth(t, compiled, interp, &nicsim.Request{LambdaID: 1, Packets: 1})
	if !errors.Is(err, ErrCallDepth) {
		t.Fatalf("err = %v, want ErrCallDepth", err)
	}
}

func funcName(i int) string {
	return "chain_" + string(rune('a'+i/10)) + string(rune('a'+i%10))
}

// Pooled execution must leave no state behind: two identical requests
// observe identical stats and payloads even though the second reuses
// the first's env and response buffer.
func TestExecutePooledReuse(t *testing.T) {
	exe := link(t, reducedMatchProgram(t))
	req := &nicsim.Request{LambdaID: 1, Packets: 1}
	var first []byte
	var firstStats nicsim.ExecStats
	if err := exe.ExecutePooled(req, func(r nicsim.Response) {
		first = append([]byte(nil), r.Payload...)
		firstStats = r.Stats
	}); err != nil {
		t.Fatal(err)
	}
	if err := exe.ExecutePooled(req, func(r nicsim.Response) {
		if string(r.Payload) != string(first) {
			t.Fatalf("pooled rerun payload %q, want %q", r.Payload, first)
		}
		if r.Stats != firstStats {
			t.Fatalf("pooled rerun stats %+v, want %+v", r.Stats, firstStats)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// Reset must restore object contents in place: compiled closures hold
// slot pointers into the original backing arrays.
func TestResetPreservesCompiledSlots(t *testing.T) {
	compiled, interp := linkBoth(t, reducedMatchProgram(t), defaultStepLimit)
	req := &nicsim.Request{LambdaID: 2, Packets: 1}
	before, err := execBoth(t, compiled, interp, req)
	if err != nil {
		t.Fatal(err)
	}
	execBoth(t, compiled, interp, req) // counter = 2 in both images
	compiled.Reset()
	interp.Reset()
	after, err := execBoth(t, compiled, interp, req)
	if err != nil {
		t.Fatal(err)
	}
	if string(after.Payload) != string(before.Payload) {
		t.Fatalf("post-Reset payload %q, want %q", after.Payload, before.Payload)
	}
}

func TestDisassembleFusedRoundTrip(t *testing.T) {
	b := NewBuilder("fusetest")
	b.MovImm(2, 7)
	b.MovImm(3, 5)
	b.Add(4, 2, 3)
	b.HdrGet(5, FieldArg0)
	b.Brz(5, "skip") // breaks the run
	b.Xor(4, 4, 2)
	b.Mul(4, 4, 3)
	b.Label("skip")
	b.EmitByte(4)
	b.Ret(4)
	exe := link(t, singleEntry(t, b.MustBuild()))
	f := exe.Program().Func("fusetest")
	fu := exe.Fusion("fusetest")
	if fu == nil || len(fu.Runs) == 0 {
		t.Fatal("no fusion recorded for a straight-line prefix")
	}
	fused := f.DisassembleFused(fu)
	if !strings.Contains(fused, "fuse{") {
		t.Fatalf("fused listing missing markers:\n%s", fused)
	}
	// Stripping the fusion markers must recover the plain listing
	// exactly — traces stay debuggable.
	var kept []string
	for _, line := range strings.Split(fused, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "fuse{") || trimmed == "}" {
			continue
		}
		kept = append(kept, line)
	}
	if got, want := strings.Join(kept, "\n"), f.Disassemble(); got != want {
		t.Fatalf("round-trip mismatch:\n--- stripped fused ---\n%s\n--- plain ---\n%s", got, want)
	}
	// Fused runs never cross a branch target.
	for _, r := range fu.Runs {
		for i := range f.Body {
			switch f.Body[i].Op {
			case OpJmp, OpBrz, OpBrnz:
				tgt := int(f.Body[i].Imm)
				if tgt > r.Start && tgt < r.Start+r.Len {
					t.Fatalf("branch target %d inside fused run %+v", tgt, r)
				}
			}
		}
	}
}

// Dynamic-address loads keep their runtime bounds checks and fail with
// the object's pre-built sentinel error in both engines.
func TestCompiledOutOfBoundsParity(t *testing.T) {
	b := NewBuilder("oob")
	b.HdrGet(2, FieldArg0) // attacker-controlled offset
	b.Load(3, "buf", 2, 0)
	b.EmitByte(3)
	b.Ret(3)
	p := singleEntry(t, b.MustBuild(), &Object{Name: "buf", Size: 8})
	compiled, interp := linkBoth(t, p, defaultStepLimit)
	// In range.
	if _, err := execBoth(t, compiled, interp, &nicsim.Request{LambdaID: 1, Packets: 1}); err != nil {
		t.Fatal(err)
	}
	// RunStandalone with an out-of-range header drives the fault.
	_, _, cstats, cerr := compiled.RunStandalone("oob", nil, map[int]int64{FieldArg0: 99})
	_, _, istats, ierr := interp.RunStandalone("oob", nil, map[int]int64{FieldArg0: 99})
	if !errors.Is(cerr, ErrOutOfBounds) || !errors.Is(ierr, ErrOutOfBounds) {
		t.Fatalf("want ErrOutOfBounds from both, got compiled=%v interp=%v", cerr, ierr)
	}
	if cstats != istats {
		t.Fatalf("fault stats diverge: %+v vs %+v", cstats, istats)
	}
	if cerr.Error() != ierr.Error() {
		t.Fatalf("fault messages diverge: %q vs %q", cerr, ierr)
	}
}
