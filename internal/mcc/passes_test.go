package mcc

import (
	"testing"
	"testing/quick"

	"lambdanic/internal/cluster"
	"lambdanic/internal/nicsim"
)

// nicsimTestCfg returns the default NIC configuration for cycle
// comparisons.
func nicsimTestCfg() cluster.NICConfig { return cluster.Default().NIC }

// helperBody builds a helper function with the given name whose body is
// identical across names (so duplicates coalesce), padded to n
// instructions.
func helperBody(name string, n int) *Function {
	b := NewBuilder(name)
	b.MovImm(4, 1)
	b.MovImm(5, 2)
	b.Add(6, 4, 5)
	for len(b.body) < n-1 {
		b.Nop()
	}
	b.Ret(6)
	return b.MustBuild()
}

// buildMatchProgram assembles a program with two lambdas that each
// carry a private copy of the same helper, plus a naive match stage
// with one table per lambda and two parsers (one unused).
func buildMatchProgram(t *testing.T) *Program {
	t.Helper()
	p := NewProgram()

	// Parsers: ethernet-ish and an unused tunnel header.
	pe := NewBuilder("__parse_lambda_hdr")
	pe.PktLen(2)
	pe.HdrSet(FieldPayloadLen, 2)
	pe.Ret(2)
	pt := NewBuilder("__parse_tunnel_hdr")
	for i := 0; i < 10; i++ {
		pt.Nop()
	}
	pt.Ret(0)

	for _, f := range []*Function{pe.MustBuild(), pt.MustBuild(),
		helperBody("helper_copy_a", 40), helperBody("helper_copy_b", 40)} {
		if err := p.AddFunc(f); err != nil {
			t.Fatal(err)
		}
	}

	la := NewBuilder("lambda_a")
	la.Call("helper_copy_a")
	la.MovImm(1, 0)
	la.Load(2, "obj_a", 1, 0)
	la.EmitByte(2)
	la.Ret(2)
	lb := NewBuilder("lambda_b")
	lb.Call("helper_copy_b")
	lb.MovImm(1, 0)
	lb.Load(2, "obj_b", 1, 0)
	lb.EmitByte(2)
	lb.Ret(2)
	if err := p.AddFunc(la.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := p.AddFunc(lb.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := p.AddObject(&Object{Name: "obj_a", Size: 64, Init: []byte{7}, Hint: HintHot}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddObject(&Object{Name: "obj_b", Size: 64, Init: []byte{9}, Hint: HintHot}); err != nil {
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
			{Name: "route_a", Field: FieldWorkloadID, Entries: []MatchEntry{{Value: 1, Action: "lambda_a"}}},
			{Name: "route_b", Field: FieldWorkloadID, Entries: []MatchEntry{{Value: 2, Action: "lambda_b"}}},
		},
		Parsers:     []string{"__parse_lambda_hdr", "__parse_tunnel_hdr"},
		UsedParsers: map[string]bool{"__parse_lambda_hdr": true},
	}
	mf, err := GenerateMatch(p.Match)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddFunc(mf); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("program invalid: %v", err)
	}
	return p
}

func execLambda(t *testing.T, p *Program, id uint32) []byte {
	t.Helper()
	e, err := Link(p)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	resp, err := e.Execute(&nicsim.Request{LambdaID: id, Payload: []byte("xy"), Packets: 1})
	if err != nil {
		t.Fatalf("Execute(%d): %v", id, err)
	}
	return resp.Payload
}

func TestCoalescingDeduplicatesHelpers(t *testing.T) {
	p := buildMatchProgram(t)
	before := p.StaticInstructions()
	opt, results, err := Optimize(p, OptimizeConfig{Coalesce: true})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	after := opt.StaticInstructions()
	if after >= before {
		t.Errorf("coalescing did not shrink program: %d -> %d", before, after)
	}
	// One 40-instruction helper copy must be gone.
	if saved := before - after; saved != 40 {
		t.Errorf("saved = %d, want 40 (one duplicate helper)", saved)
	}
	if len(results) != 2 || results[1].Pass != "lambda coalescing" {
		t.Errorf("results = %+v", results)
	}
	// The original program is untouched.
	if p.StaticInstructions() != before {
		t.Error("Optimize modified its input")
	}
	// Behaviour preserved.
	if got := execLambda(t, opt, 1); len(got) != 1 || got[0] != 7 {
		t.Errorf("lambda_a output = %v", got)
	}
	if got := execLambda(t, opt, 2); len(got) != 1 || got[0] != 9 {
		t.Errorf("lambda_b output = %v", got)
	}
}

func TestMatchReductionMergesTablesAndDropsParsers(t *testing.T) {
	p := buildMatchProgram(t)
	before := p.StaticInstructions()
	opt, _, err := Optimize(p, OptimizeConfig{ReduceMatch: true})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	after := opt.StaticInstructions()
	if after >= before {
		t.Errorf("match reduction did not shrink program: %d -> %d", before, after)
	}
	if opt.Func("__parse_tunnel_hdr") != nil {
		t.Error("unused parser survived match reduction")
	}
	if opt.Func("__parse_lambda_hdr") == nil {
		t.Error("used parser was removed")
	}
	if !opt.Match.Reduced {
		t.Error("plan not marked reduced")
	}
	// Dispatch still works for both lambdas.
	if got := execLambda(t, opt, 1); len(got) != 1 || got[0] != 7 {
		t.Errorf("lambda_a output = %v", got)
	}
	if got := execLambda(t, opt, 2); len(got) != 1 || got[0] != 9 {
		t.Errorf("lambda_b output = %v", got)
	}
}

func TestStratificationPlacesAndFolds(t *testing.T) {
	p := buildMatchProgram(t)
	before := p.StaticInstructions()
	opt, _, err := Optimize(p, OptimizeConfig{Stratify: true})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	// Small objects move off EMEM.
	for _, name := range []string{"obj_a", "obj_b"} {
		o := opt.Object(name)
		if o.EffectiveLevel() == nicsim.MemEMEM {
			t.Errorf("%s still in EMEM after stratification", name)
		}
	}
	// The movi-0/load pattern in each lambda folds: 2 instructions.
	if saved := before - opt.StaticInstructions(); saved != 2 {
		t.Errorf("fold saved = %d, want 2", saved)
	}
	// Behaviour preserved.
	if got := execLambda(t, opt, 1); len(got) != 1 || got[0] != 7 {
		t.Errorf("lambda_a output = %v", got)
	}
}

func TestStratificationRespectsColdHint(t *testing.T) {
	b := NewBuilder("f")
	b.Ret(0)
	p := singleEntry(t, b.MustBuild(),
		&Object{Name: "cold", Size: 8, Hint: HintCold},
		&Object{Name: "hot", Size: 8, Hint: HintHot},
	)
	opt, _, err := Optimize(p, OptimizeConfig{Stratify: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.Object("cold").EffectiveLevel(); got != nicsim.MemEMEM {
		t.Errorf("cold object placed in %v, want EMEM", got)
	}
	if got := opt.Object("hot").EffectiveLevel(); got != nicsim.MemLocal {
		t.Errorf("hot object placed in %v, want LMEM", got)
	}
}

func TestAllPassesMonotoneShrink(t *testing.T) {
	p := buildMatchProgram(t)
	_, results, err := Optimize(p, AllPasses())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("len(results) = %d, want 4", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Instructions > results[i-1].Instructions {
			t.Errorf("pass %q grew the program: %d -> %d",
				results[i].Pass, results[i-1].Instructions, results[i].Instructions)
		}
	}
}

func TestOptimizePreservesBehaviorProperty(t *testing.T) {
	// Property: for random request payloads and both lambda IDs, the
	// optimized program produces byte-identical responses.
	base := buildMatchProgram(t)
	opt, _, err := Optimize(base, AllPasses())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	eBase, err := Link(base)
	if err != nil {
		t.Fatal(err)
	}
	eOpt, err := Link(opt)
	if err != nil {
		t.Fatal(err)
	}
	f := func(id uint8, payload []byte) bool {
		lambda := uint32(id%2) + 1
		req := &nicsim.Request{LambdaID: lambda, Payload: payload, Packets: 1}
		r1, err1 := eBase.Execute(req)
		r2, err2 := eOpt.Execute(req)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return string(r1.Payload) == string(r2.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOptimizedProgramIsCheaperDynamically(t *testing.T) {
	// The optimized image must also retire fewer dynamic instructions
	// (shorter match path) and stall less on memory (near placement).
	base := buildMatchProgram(t)
	opt, _, err := Optimize(base, AllPasses())
	if err != nil {
		t.Fatal(err)
	}
	eBase, err := Link(base)
	if err != nil {
		t.Fatal(err)
	}
	eOpt, err := Link(opt)
	if err != nil {
		t.Fatal(err)
	}
	req := &nicsim.Request{LambdaID: 2, Payload: []byte("q"), Packets: 1}
	rBase, err := eBase.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	rOpt, err := eOpt.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	cfg := nicsimTestCfg()
	if rOpt.Stats.Instructions >= rBase.Stats.Instructions {
		t.Errorf("dynamic instructions: opt %d >= base %d", rOpt.Stats.Instructions, rBase.Stats.Instructions)
	}
	if rOpt.Stats.Cycles(cfg) >= rBase.Stats.Cycles(cfg) {
		t.Errorf("cycles: opt %d >= base %d", rOpt.Stats.Cycles(cfg), rBase.Stats.Cycles(cfg))
	}
}

func TestGenerateMatchFallThroughToHost(t *testing.T) {
	p := buildMatchProgram(t)
	e, err := Link(p)
	if err != nil {
		t.Fatal(err)
	}
	// Force execution with an ID the match stage does not know; the
	// match function returns StatusToHost. (The NIC normally filters
	// these via Handles, so call the match function directly.)
	status, _, _, err := e.RunStandalone(MatchFunction, nil, map[int]int64{FieldWorkloadID: 777})
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusToHost {
		t.Errorf("status = %d, want StatusToHost", status)
	}
}
