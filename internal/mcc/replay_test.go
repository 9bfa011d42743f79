package mcc

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"lambdanic/internal/nicsim"
)

// replayProgram makes lambda i+1 of fs[i] over objs; lambda 1 answers
// natively with native.
func replayProgram(t *testing.T, native func([]byte) ([]byte, error), objs []*Object, fs ...*Function) *Program {
	t.Helper()
	p := NewProgram()
	for i, f := range fs {
		if err := p.AddFunc(f); err != nil {
			t.Fatal(err)
		}
		if err := p.AddEntry(uint32(i+1), f.Name); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range objs {
		if err := p.AddObject(o); err != nil {
			t.Fatal(err)
		}
	}
	p.Native = map[uint32]func([]byte) ([]byte, error){1: native}
	return p
}

// firstByte is the native twin of guardedEcho.
func firstByte(payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, errors.New("empty request")
	}
	return payload[:1], nil
}

// guardedEcho initialises state on its first run, like the runtime
// library, then echoes the request's first byte through scratch.
func guardedEcho() *Function {
	b := NewBuilder("f")
	b.MovImm(1, 0)
	b.LoadW(2, "state", 1, 0)
	b.Brnz(2, "warm")
	b.MovImm(2, 1)
	b.StoreW("state", 1, 0, 2)
	b.Label("warm")
	b.PktLoad(3, RegZero, 0)
	b.MovImm(4, 0)
	b.Store("scratch", 4, 0, 3)
	b.MovImm(5, 1)
	b.Emit("scratch", 4, 5)
	b.Ret(RegZero)
	return b.MustBuild()
}

func echoObjects() []*Object {
	return []*Object{{Name: "state", Size: 8}, {Name: "scratch", Size: 8}}
}

// TestReplayMatchesExecution streams requests through an image that
// replays and one that never does: the cold request executes, warm
// ones replay with the executing image's stats and reply,
// the skipped store is the only difference in memory, and Reset brings
// the cold key back by itself.
func TestReplayMatchesExecution(t *testing.T) {
	p := replayProgram(t, firstByte, echoObjects(), guardedEcho())
	replaying, ref := linkBoth(t, p, defaultStepLimit)
	if ref.replay != nil {
		t.Fatal("a LinkNoReplay image has a replay table")
	}
	run := func(b byte) nicsim.Response {
		t.Helper()
		req := &nicsim.Request{LambdaID: 1, Payload: []byte{b, 0}, Packets: 1}
		resp, err := execBoth(t, replaying, ref, req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	cold := run(10)
	warm := run(11) // records the warm key
	run(12)         // replays it
	if got := len(replaying.replay[1].recs); got != 2 {
		t.Fatalf("%d keys recorded, want the cold and the warm one", got)
	}
	if rec := replaying.replay[1].recs[1]; !rec.armed || rec.reason != "guard state[0:8]" {
		t.Fatalf("warm key armed=%v reason %q", rec.armed, rec.reason)
	}
	if cold.Stats == warm.Stats {
		t.Fatal("cold and warm requests cost the same; the guard is untested")
	}
	skipped := byte(11) // the replay skipped its store, unless the twin made it
	if raceEnabled {
		skipped = 12
	}
	if c, i := replaying.slot("scratch").mem[0], ref.slot("scratch").mem[0]; c != skipped || i != 12 {
		t.Fatalf("scratch[0] = %d replaying, %d executing; want %d and 12", c, i, skipped)
	}
	replaying.Reset()
	ref.Reset()
	if again := run(13); again.Stats != cold.Stats {
		t.Fatalf("first request after Reset cost %+v, want the cold %+v", again.Stats, cold.Stats)
	}
	if !bytes.Equal(replaying.slot("state").mem, ref.slot("state").mem) {
		t.Fatal("state differs after the cold request re-ran")
	}
}

// TestReplayRecordingReleasesEnv: a recorded request leaves no recorder
// in the cached env, so a recording's per-object shadows die with its
// request even when every later request replays.
func TestReplayRecordingReleasesEnv(t *testing.T) {
	e, err := Link(replayProgram(t, firstByte, echoObjects(), guardedEcho()))
	if err != nil {
		t.Fatal(err)
	}
	for b := byte(1); b <= 3; b++ { // cold, warm recorded, warm replayed
		if _, err := e.Serve(&nicsim.Request{LambdaID: 1, Payload: []byte{b}, Packets: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if e.ArmedKeys(1) == 0 {
		t.Fatal("no key armed; the recorder never ran")
	}
	en := e.envSlot.Load()
	if en == nil {
		t.Fatal("no env cached after Serve")
	}
	if en.rec != nil {
		t.Fatal("the cached env retains the recorder")
	}
}

// TestReplayRejections holds the proof's reason for every rule a key
// can break, on lambdas built to break exactly one.
func TestReplayRejections(t *testing.T) {
	echoOne := func(b *Builder) *Function {
		b.MovImm(9, 1)
		b.EmitByte(9)
		b.Ret(RegZero)
		return b.MustBuild()
	}
	one := func([]byte) ([]byte, error) { return []byte{1}, nil }
	zeros := func(n int) func([]byte) ([]byte, error) {
		return func(p []byte) ([]byte, error) { return make([]byte, max(n, len(p))), nil }
	}
	tbl := &Object{Name: "tbl", Size: 256}
	wide := NewBuilder("f") // parses payload[0:17] into arg0
	for i := int64(0); i < 17; i++ {
		wide.PktLoad(2, RegZero, i).Or(1, 1, 2)
	}
	emitBuf := func(b *Builder) *Function { // stores buf[0:8], calls g, emits buf[0:8]
		return b.MovImm(1, 0).MovImm(2, 8).StoreW("buf", 1, 0, RegZero).Call("g").Emit("buf", 1, 2).Ret(RegZero).MustBuild()
	}
	buf := &Object{Name: "buf", Size: 8}
	cases := []struct {
		name      string
		fs        []*Function
		objs      []*Object
		native    func([]byte) ([]byte, error)
		payload   []byte
		stepLimit uint64
		want      string
	}{{
		name: "input-independent",
		fs:   []*Function{echoOne(NewBuilder("f"))},
		want: "replayed: no guard", native: one,
	}, {
		name: "branch on a parsed header",
		fs: []*Function{echoOne(NewBuilder("f").PktLoad(1, RegZero, 0).HdrSet(FieldArg0, 1).
			HdrGet(2, FieldArg0).Brnz(2, "x").Label("x"))},
		want: "replayed: key header arg0", native: one,
	}, {
		name: "branch on a header parsed from the body",
		fs: []*Function{echoOne(NewBuilder("f").MovImm(1, 2).Memcpy("tbl", RegZero, PayloadObject, RegZero, 1).
			Load(2, "tbl", RegZero, 0).HdrSet(FieldArg0, 2).HdrGet(3, FieldArg0).Brnz(3, "x").Label("x"))},
		objs: []*Object{tbl},
		want: "executed: brnz f+5 depends on header arg0", native: one,
	}, {
		name: "branch on the payload",
		fs:   []*Function{echoOne(NewBuilder("f").PktLoad(1, RegZero, 0).Brnz(1, "x").Label("x"))},
		want: "executed: brnz f+1 depends on payload", native: one,
	}, {
		name:    "a header key of more than 16 bytes",
		fs:      []*Function{echoOne(wide.HdrSet(FieldArg0, 1).HdrGet(3, FieldArg0).Brnz(3, "x").Label("x"))},
		payload: make([]byte, 20),
		want:    "executed: brnz f+36 depends on header arg0", native: one,
	}, {
		name: "a call keeps what its callee does not write",
		fs:   []*Function{emitBuf(NewBuilder("f")), NewBuilder("g").MovImm(7, 1).Ret(RegZero).MustBuild()},
		objs: []*Object{buf},
		want: "replayed: no guard", native: zeros(8),
	}, {
		name: "a call forgets what its callee writes",
		fs:   []*Function{emitBuf(NewBuilder("f")), NewBuilder("g").MovImm(2, 8).Ret(RegZero).MustBuild()},
		objs: []*Object{buf},
		want: "executed: stw f+2 writes buf, which emit f+4 reads before writing", native: zeros(8),
	}, {
		name: "a bulk span in an opaque length",
		fs: []*Function{NewBuilder("f").HdrGet(5, FieldPayloadLen).MovImm(6, 4).Mul(6, 5, 6).
			Gray("out", RegZero, "img", RegZero, 6).Emit("out", RegZero, 5).Ret(RegZero).MustBuild()},
		objs: []*Object{{Name: "out", Size: 64}, {Name: "img", Size: 64}},
		want: "replayed: no guard", native: zeros(0),
	}, {
		name: "a load whose value reaches nothing",
		fs:   []*Function{echoOne(NewBuilder("f").Load(1, "priv", RegZero, 0).Add(2, 2, 1).Store("priv", RegZero, 0, RegZero))},
		objs: []*Object{{Name: "priv", Size: 8}},
		want: "replayed: no guard", native: one,
	}, {
		name: "a store of the value its guard holds is still a store",
		fs:   []*Function{echoOne(NewBuilder("f").LoadW(1, "st", RegZero, 0).Brnz(1, "x").Label("x").StoreW("st", RegZero, 0, RegZero))},
		objs: []*Object{{Name: "st", Size: 8}},
		want: "executed: stw f+2 writes st, which ldw f+0 reads before writing", native: one,
	}, {
		name: "payload-derived address",
		fs:   []*Function{echoOne(NewBuilder("f").PktLoad(1, RegZero, 0).Load(2, "tbl", 1, 0))},
		objs: []*Object{tbl},
		want: "executed: ld f+1 address depends on payload", native: one,
	}, {
		name: "payload-derived bulk length",
		fs:   []*Function{echoOne(NewBuilder("f").PktLoad(1, RegZero, 0).Memcpy("tbl", RegZero, PayloadObject, RegZero, 1))},
		objs: []*Object{tbl},
		want: "executed: memcpy f+1 length depends on payload", native: one,
	}, {
		name: "payload-derived emit length",
		fs:   []*Function{NewBuilder("f").PktLoad(1, RegZero, 0).Emit("tbl", RegZero, 1).Ret(RegZero).MustBuild()},
		objs: []*Object{tbl},
		want: "executed: emit f+1 length depends on payload",
		native: func(p []byte) ([]byte, error) {
			return make([]byte, p[0]), nil
		},
	}, {
		name: "mutable state at a non-constant address feeding a branch",
		fs: []*Function{
			echoOne(NewBuilder("f").LoadW(1, "idx", RegZero, 0).Load(2, "state", 1, 0).Brnz(2, "x").Label("x")),
			NewBuilder("g").StoreW("idx", RegZero, 0, RegZero).Store("state", RegZero, 0, RegZero).MustBuild(),
		},
		objs: []*Object{{Name: "idx", Size: 8}, {Name: "state", Size: 8}},
		want: "executed: ld f+1 reads state at a non-constant address", native: one,
	}, {
		name: "store to a shared object",
		fs: []*Function{
			echoOne(NewBuilder("f").Store("shared", RegZero, 0, RegZero)),
			NewBuilder("g").Load(1, "shared", RegZero, 0).EmitByte(1).MustBuild(),
		},
		objs: []*Object{{Name: "shared", Size: 8}},
		want: "executed: st f+0 writes shared, which ld g+0 reads before writing", native: one,
	}, {
		name: "private object read before written",
		fs: []*Function{echoOne(NewBuilder("f").Load(1, "priv", RegZero, 0).MovImm(2, 1).
			Add(1, 1, 2).Store("priv", RegZero, 0, 1))},
		objs: []*Object{{Name: "priv", Size: 8}},
		want: "executed: st f+3 writes priv, which ld f+0 reads before writing", native: one,
	}, {
		name: "run that fails",
		fs: []*Function{echoOne(NewBuilder("f").MovImm(1, 100).MovImm(2, 1).Label("loop").
			Sub(1, 1, 2).Brnz(1, "loop"))},
		stepLimit: 50,
		want:      "executed: the run fails: lambda 1: mcc: step limit exceeded", native: one,
	}, {
		name: "native reply differs",
		fs:   []*Function{echoOne(NewBuilder("f"))},
		want: "executed: the native reply differs from the IR's",
		native: func([]byte) ([]byte, error) {
			return []byte{2}, nil
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			limit := tc.stepLimit
			if limit == 0 {
				limit = defaultStepLimit
			}
			exe, err := link(replayProgram(t, tc.native, tc.objs, tc.fs...), limit, true)
			if err != nil {
				t.Fatal(err)
			}
			payload := tc.payload
			if payload == nil {
				payload = []byte{2, 0}
			}
			got := exe.Explain(&nicsim.Request{LambdaID: 1, Payload: payload, Packets: 1})
			if got != tc.want {
				t.Errorf("Explain = %q\nwant      %q", got, tc.want)
			}
		})
	}
}

// TestReplayTwinPanics corrupts an armed key's stats: under -race every
// replay also executes the IR, and the difference must surface.
func TestReplayTwinPanics(t *testing.T) {
	if !raceEnabled {
		t.Skip("the twin execution runs in race builds only")
	}
	exe := mustLink(t, replayProgram(t, firstByte, echoObjects(), guardedEcho()))
	req := &nicsim.Request{LambdaID: 1, Payload: []byte{1}, Packets: 1}
	for i := 0; i < 2; i++ {
		if _, err := exe.Execute(req); err != nil {
			t.Fatal(err)
		}
	}
	exe.replay[1].recs[1].stats.Instructions++
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "replayed f (payload 1 B, multi-packet false, guard state[0:8]) differs from the IR: Instructions") {
			t.Fatalf("panic %q, want the twin's report on Instructions", msg)
		}
	}()
	exe.Execute(req)
}
