package matchlambda

import (
	"errors"
	"testing"
	"testing/quick"

	"lambdanic/internal/mcc"
	"lambdanic/internal/nicsim"
)

// echoSpec builds a lambda that emits a fixed byte read from its
// object.
func echoSpec(t *testing.T, name string, id uint32, value byte, uses ...string) *LambdaSpec {
	t.Helper()
	obj := name + "_mem"
	b := mcc.NewBuilder(name)
	b.MovImm(1, 0)
	b.Load(2, obj, 1, 0)
	b.EmitByte(2)
	b.MovImm(3, mcc.StatusForward)
	b.Ret(3)
	return &LambdaSpec{
		Name:    name,
		ID:      id,
		Entry:   b.MustBuild(),
		Objects: []*mcc.Object{{Name: obj, Size: 4, Init: []byte{value}}},
		Uses:    uses,
	}
}

func stdHeaders() []HeaderSpec {
	return []HeaderSpec{
		{Name: "webreq", Fields: []FieldSpec{{Slot: mcc.FieldArg0, Offset: 0, Bytes: 2}}},
		{Name: "kvreq", Fields: []FieldSpec{
			{Slot: mcc.FieldArg0, Offset: 0, Bytes: 1},
			{Slot: mcc.FieldArg1, Offset: 1, Bytes: 4},
		}},
	}
}

func TestComposeAndDispatch(t *testing.T) {
	p, err := Compose([]*LambdaSpec{
		echoSpec(t, "alpha", 10, 'A', "webreq"),
		echoSpec(t, "beta", 20, 'B'),
	}, ComposeOptions{Headers: stdHeaders()})
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	e, err := mcc.Link(p)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	for _, tc := range []struct {
		id   uint32
		want byte
	}{{10, 'A'}, {20, 'B'}} {
		resp, err := e.Execute(&nicsim.Request{LambdaID: tc.id, Payload: []byte{0, 42}, Packets: 1})
		if err != nil {
			t.Fatalf("Execute(%d): %v", tc.id, err)
		}
		if len(resp.Payload) != 1 || resp.Payload[0] != tc.want {
			t.Errorf("lambda %d -> %v, want [%c]", tc.id, resp.Payload, tc.want)
		}
	}
}

func TestComposeNaivePlanShape(t *testing.T) {
	p, err := Compose([]*LambdaSpec{
		echoSpec(t, "alpha", 10, 'A', "webreq"),
		echoSpec(t, "beta", 20, 'B'),
	}, ComposeOptions{Headers: stdHeaders()})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Match.Tables); got != 2 {
		t.Errorf("naive tables = %d, want one per lambda", got)
	}
	if got := len(p.Match.Parsers); got != 2 {
		t.Errorf("parsers = %d, want one per known header", got)
	}
	if !p.Match.UsedParsers["__parse_webreq"] {
		t.Error("webreq parser not marked used")
	}
	if p.Match.UsedParsers["__parse_kvreq"] {
		t.Error("kvreq parser wrongly marked used")
	}
	if p.Func(mcc.MatchFunction) == nil {
		t.Error("__match not generated")
	}
}

func TestComposeValidation(t *testing.T) {
	if _, err := Compose(nil, ComposeOptions{}); err == nil {
		t.Error("Compose with no lambdas succeeded")
	}
	if _, err := Compose([]*LambdaSpec{{Name: "x"}}, ComposeOptions{}); err == nil {
		t.Error("Compose with entry-less lambda succeeded")
	}
	// Duplicate IDs rejected.
	_, err := Compose([]*LambdaSpec{
		echoSpec(t, "a", 1, 'a'),
		echoSpec(t, "b", 1, 'b'),
	}, ComposeOptions{})
	if err == nil {
		t.Error("Compose with duplicate IDs succeeded")
	}
}

func TestGeneratedParserExtractsFields(t *testing.T) {
	h := HeaderSpec{Name: "kvreq", Fields: []FieldSpec{
		{Slot: mcc.FieldArg0, Offset: 0, Bytes: 1},
		{Slot: mcc.FieldArg1, Offset: 1, Bytes: 4},
	}}
	// A lambda that echoes the parsed fields.
	b := mcc.NewBuilder("probe")
	b.HdrGet(1, mcc.FieldArg0)
	b.EmitByte(1)
	b.HdrGet(1, mcc.FieldArg1)
	b.EmitByte(1)
	b.Ret(1)
	p, err := Compose([]*LambdaSpec{{
		Name: "probe", ID: 5, Entry: b.MustBuild(), Uses: []string{"kvreq"},
	}}, ComposeOptions{Headers: []HeaderSpec{h}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := mcc.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	// payload: op=7, key=0x00000009
	resp, err := e.Execute(&nicsim.Request{LambdaID: 5, Payload: []byte{7, 0, 0, 0, 9}, Packets: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Payload) != 2 || resp.Payload[0] != 7 || resp.Payload[1] != 9 {
		t.Errorf("parsed fields = %v, want [7 9]", resp.Payload)
	}
}

func TestGeneratedParserShortPayloadSafe(t *testing.T) {
	h := HeaderSpec{Name: "wide", Fields: []FieldSpec{{Slot: mcc.FieldArg0, Offset: 0, Bytes: 8}}}
	b := mcc.NewBuilder("probe")
	b.HdrGet(1, mcc.FieldArg0)
	b.Ret(1)
	p, err := Compose([]*LambdaSpec{{Name: "probe", ID: 1, Entry: b.MustBuild(), Uses: []string{"wide"}}},
		ComposeOptions{Headers: []HeaderSpec{h}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := mcc.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	// Empty payload: parser must skip the field, not fault.
	if _, err := e.Execute(&nicsim.Request{LambdaID: 1, Payload: nil, Packets: 1}); err != nil {
		t.Fatalf("short payload: %v", err)
	}
}

func TestHeaderSpecValidate(t *testing.T) {
	bad := []HeaderSpec{
		{Name: ""},
		{Name: "h", Fields: []FieldSpec{{Slot: mcc.FieldWorkloadID, Offset: 0, Bytes: 1}}}, // reserved slot
		{Name: "h", Fields: []FieldSpec{{Slot: mcc.FieldArg0, Offset: 0, Bytes: 9}}},
		{Name: "h", Fields: []FieldSpec{{Slot: mcc.FieldArg0, Offset: -1, Bytes: 1}}},
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, h)
		}
	}
}

func TestMatchReductionOnComposedProgram(t *testing.T) {
	p, err := Compose([]*LambdaSpec{
		echoSpec(t, "alpha", 10, 'A', "webreq"),
		echoSpec(t, "beta", 20, 'B', "webreq"),
	}, ComposeOptions{Headers: stdHeaders()})
	if err != nil {
		t.Fatal(err)
	}
	before := p.StaticInstructions()
	opt, results, err := mcc.Optimize(p, mcc.AllPasses())
	if err != nil {
		t.Fatal(err)
	}
	if opt.StaticInstructions() >= before {
		t.Errorf("optimization did not shrink composed program: %d -> %d", before, opt.StaticInstructions())
	}
	if opt.Func("__parse_kvreq") != nil {
		t.Error("unused kvreq parser survived")
	}
	// Both lambdas still dispatch correctly.
	e, err := mcc.Link(opt)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Execute(&nicsim.Request{LambdaID: 20, Payload: []byte{1, 2}, Packets: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Payload) != 1 || resp.Payload[0] != 'B' {
		t.Errorf("beta -> %v", resp.Payload)
	}
	if len(results) != 4 {
		t.Errorf("results = %d, want 4 entries", len(results))
	}
}

func TestWireHeaderRoundTrip(t *testing.T) {
	h := WireHeader{
		Version:    Version1,
		Flags:      FlagResponse | 1<<1, // bit 1 is unassigned: it round-trips and reads as no error
		WorkloadID: 0xDEADBEEF,
		RequestID:  0x0123456789ABCDEF,
		Seq:        3,
		Total:      7,
		PayloadLen: 4096,
	}
	pkt := h.Encode(nil)
	pkt = append(pkt, []byte("payload")...)
	got, rest, err := DecodeWireHeader(pkt)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got != h {
		t.Errorf("round trip: got %+v, want %+v", got, h)
	}
	if string(rest) != "payload" {
		t.Errorf("rest = %q", rest)
	}
	if !got.IsResponse() || got.IsError() {
		t.Error("flag accessors wrong")
	}
}

func TestWireHeaderErrors(t *testing.T) {
	if _, _, err := DecodeWireHeader([]byte{1, 2, 3}); !errors.Is(err, ErrShortPacket) {
		t.Errorf("short: %v", err)
	}
	bad := make([]byte, WireHeaderSize)
	if _, _, err := DecodeWireHeader(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic: %v", err)
	}
	h := WireHeader{Version: 9}
	pkt := h.Encode(nil)
	if _, _, err := DecodeWireHeader(pkt); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version: %v", err)
	}
}

func TestWireHeaderRoundTripProperty(t *testing.T) {
	f := func(flags uint8, wid uint32, rid uint64, seq, total uint16, plen uint32, payload []byte) bool {
		h := WireHeader{
			Version: Version1, Flags: flags, WorkloadID: wid,
			RequestID: rid, Seq: seq, Total: total, PayloadLen: plen,
		}
		pkt := h.Encode(nil)
		pkt = append(pkt, payload...)
		got, rest, err := DecodeWireHeader(pkt)
		if err != nil {
			return false
		}
		return got == h && string(rest) == string(payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestComposedJumpTableDispatch closes the loop from Compose through
// the optimizer to a linked image: the reduced match stage the
// optimizer emits for a composed program dispatches every ID exactly as
// an image that never replays does — including the unknown-ID miss
// path.
func TestComposedJumpTableDispatch(t *testing.T) {
	build := func(t *testing.T) *mcc.Program {
		p, err := Compose([]*LambdaSpec{
			echoSpec(t, "alpha", 10, 'A', "webreq"),
			echoSpec(t, "beta", 20, 'B'),
			echoSpec(t, "gamma", 30, 'C', "kvreq"),
		}, ComposeOptions{Headers: stdHeaders()})
		if err != nil {
			t.Fatalf("Compose: %v", err)
		}
		opt, _, err := mcc.Optimize(p, mcc.AllPasses())
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		return opt
	}
	replaying, err := mcc.Link(build(t))
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	ref, err := mcc.LinkNoReplay(build(t))
	if err != nil {
		t.Fatalf("LinkNoReplay: %v", err)
	}
	for _, id := range []uint32{10, 20, 30, 99} {
		req := &nicsim.Request{LambdaID: id, Payload: []byte{0, 42, 0, 0, 0}, Packets: 1}
		got, gerr := replaying.Execute(req)
		want, werr := ref.Execute(req)
		// The unknown ID falls off the match chain and is forwarded to
		// the host (StatusToHost) rather than faulting, on both images.
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("id %d: error divergence: replaying=%v executing=%v", id, gerr, werr)
		}
		if gerr != nil {
			t.Fatalf("id %d: %v", id, gerr)
		}
		if string(got.Payload) != string(want.Payload) {
			t.Errorf("id %d: payload divergence: replaying=%q executing=%q", id, got.Payload, want.Payload)
		}
		if got.Stats != want.Stats {
			t.Errorf("id %d: stats divergence:\nreplaying %+v\nexecuting %+v", id, got.Stats, want.Stats)
		}
	}
}
