package mcc

import (
	"errors"
	"testing"

	"lambdanic/internal/nicsim"
)

// linkBoth links the same program twice: an image that replays and one
// that never does. Object memory is per-executable, so the two images
// evolve independently.
func linkBoth(t *testing.T, p *Program, stepLimit uint64) (replaying, ref *Executable) {
	t.Helper()
	r, err := link(p, stepLimit, true)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	x, err := link(p, stepLimit, false)
	if err != nil {
		t.Fatalf("LinkNoReplay: %v", err)
	}
	return r, x
}

// execBoth runs the request through both images and asserts identical
// observable behavior: response payload, ExecStats, and error sentinel
// class.
func execBoth(t *testing.T, replaying, ref *Executable, req *nicsim.Request) (nicsim.Response, error) {
	t.Helper()
	rr, rerr := replaying.Execute(req)
	xr, xerr := ref.Execute(req)
	if (rerr == nil) != (xerr == nil) {
		t.Fatalf("error divergence: replaying=%v executing=%v", rerr, xerr)
	}
	if rerr != nil && !sameFaultClass(rerr, xerr) {
		t.Fatalf("fault class divergence: replaying=%v executing=%v", rerr, xerr)
	}
	if string(rr.Payload) != string(xr.Payload) {
		t.Fatalf("response divergence: replaying=%q executing=%q", rr.Payload, xr.Payload)
	}
	if rr.Stats != xr.Stats {
		t.Fatalf("stats divergence: replaying=%+v executing=%+v", rr.Stats, xr.Stats)
	}
	return rr, rerr
}

// sameFaultClass compares errors by sentinel.
func sameFaultClass(a, b error) bool {
	for _, sentinel := range []error{ErrStepLimit, ErrCallDepth, ErrOutOfBounds, ErrNoEntry, errHdrRange, errInvalidOp} {
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

// A step limit trips at exactly limit+1 instructions wherever it lands
// — in the match stage or in a lambda — and a request that fits under
// it runs to its unlimited stats.
func TestStepLimitParity(t *testing.T) {
	p := reducedMatchProgram(t)
	full := map[uint32]nicsim.Response{}
	unlimited := mustLink(t, p)
	for _, id := range []uint32{1, 2, 99} {
		resp, err := unlimited.Execute(&nicsim.Request{LambdaID: id, Packets: 1})
		if err != nil {
			t.Fatal(err)
		}
		full[id] = resp
	}
	for limit := uint64(1); limit <= 40; limit++ {
		exe, err := link(p, limit, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []uint32{1, 2, 99} {
			resp, err := exe.Execute(&nicsim.Request{LambdaID: id, Packets: 1})
			want := full[id]
			switch {
			case want.Stats.Instructions > limit:
				if !errors.Is(err, ErrStepLimit) || resp.Stats.Instructions != limit+1 {
					t.Fatalf("limit %d id %d: %v after %d instructions, want ErrStepLimit after limit+1", limit, id, err, resp.Stats.Instructions)
				}
			case err != nil || resp.Stats != want.Stats || string(resp.Payload) != string(want.Payload):
				t.Fatalf("limit %d id %d: %+v %q %v, want %+v %q", limit, id, resp.Stats, resp.Payload, err, want.Stats, want.Payload)
			}
			exe.Reset() // lambda_b's counter starts over, as in the unlimited image
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
	_, err := mustLink(t, p).Execute(&nicsim.Request{LambdaID: 1, Packets: 1})
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
	exe := mustLink(t, reducedMatchProgram(t))
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

// Reset must restore object contents in place: a replay guard holds
// its slot, so the backing arrays survive.
func TestResetPreservesCompiledSlots(t *testing.T) {
	exe := mustLink(t, reducedMatchProgram(t))
	mem := &exe.slot("ctr").mem[0]
	req := &nicsim.Request{LambdaID: 2, Packets: 1}
	before, err := exe.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	exe.Execute(req) // counter = 2
	exe.Reset()
	after, err := exe.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(after.Payload) != string(before.Payload) {
		t.Fatalf("post-Reset payload %q, want %q", after.Payload, before.Payload)
	}
	if &exe.slot("ctr").mem[0] != mem {
		t.Fatal("Reset replaced the object's backing array")
	}
}

// Dynamic-address loads keep their runtime bounds checks and fail with
// the object's pre-built sentinel error: the same value every time.
func TestCompiledOutOfBoundsParity(t *testing.T) {
	b := NewBuilder("oob")
	b.HdrGet(2, FieldArg0) // attacker-controlled offset
	b.Load(3, "buf", 2, 0)
	b.EmitByte(3)
	b.Ret(3)
	p := singleEntry(t, b.MustBuild(), &Object{Name: "buf", Size: 8})
	exe := mustLink(t, p)
	// In range.
	if _, err := exe.Execute(&nicsim.Request{LambdaID: 1, Packets: 1}); err != nil {
		t.Fatal(err)
	}
	// RunStandalone with an out-of-range header drives the fault.
	_, _, stats1, err1 := exe.RunStandalone("oob", nil, map[int]int64{FieldArg0: 99})
	_, _, stats2, err2 := exe.RunStandalone("oob", nil, map[int]int64{FieldArg0: -1})
	if !errors.Is(err1, ErrOutOfBounds) {
		t.Fatalf("err = %v, want ErrOutOfBounds", err1)
	}
	if err1 != exe.slot("buf").oobErr || err2 != err1 {
		t.Fatalf("faults %p %p, want the object's pre-built error %p both times", err1, err2, exe.slot("buf").oobErr)
	}
	if stats1 != stats2 || stats1.Instructions != 2 {
		t.Fatalf("fault stats %+v and %+v, want 2 instructions each", stats1, stats2)
	}
}
