package workloads

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"lambdanic/internal/cluster"
	"lambdanic/internal/kvstore"
	"lambdanic/internal/mcc"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/transport"
)

// nicsimTestNIC returns the default NIC configuration for cycle math.
func nicsimTestNIC() cluster.NICConfig { return cluster.Default().NIC }

// compile builds and links the optimized image for a workload set.
func compile(t *testing.T, ws []*Workload) *mcc.Executable {
	t.Helper()
	exe, _, err := CompileOptimized(ws, NaiveProgramTarget)
	if err != nil {
		t.Fatalf("CompileOptimized: %v", err)
	}
	return exe
}

// execNIC runs one request through the image, warming the runtime
// library first (the paper measures warm lambdas).
func execNIC(t *testing.T, exe *mcc.Executable, id uint32, payload []byte) []byte {
	t.Helper()
	req := &nicsim.Request{LambdaID: id, Payload: payload, Packets: Packets(len(payload))}
	if _, err := exe.Execute(req); err != nil {
		t.Fatalf("warmup Execute(%d): %v", id, err)
	}
	resp, err := exe.Execute(req)
	if err != nil {
		t.Fatalf("Execute(%d): %v", id, err)
	}
	return resp.Payload
}

func TestNaiveProgramMatchesPaperSize(t *testing.T) {
	p, err := BuildNaiveProgram(DefaultSet(), NaiveProgramTarget)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.StaticInstructions(); got != NaiveProgramTarget {
		t.Errorf("naive size = %d, want %d (paper §6.4)", got, NaiveProgramTarget)
	}
	if NaiveProgramTarget > 16*1024 {
		t.Error("naive program exceeds the 16K instruction store")
	}
}

func TestFigure9Trajectory(t *testing.T) {
	// Paper Figure 9: 8,902 -> -5.11% -> -8.65% -> -9.56% (=8,050).
	// The reproduction must land within 0.25 percentage points of each
	// step.
	p, err := BuildNaiveProgram(DefaultSet(), NaiveProgramTarget)
	if err != nil {
		t.Fatal(err)
	}
	_, results, err := mcc.Optimize(p, mcc.AllPasses())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d entries", len(results))
	}
	wantPct := []float64{0, 5.11, 8.65, 9.56}
	for i, r := range results {
		gotPct := 100 * float64(NaiveProgramTarget-r.Instructions) / float64(NaiveProgramTarget)
		if diff := gotPct - wantPct[i]; diff < -0.25 || diff > 0.25 {
			t.Errorf("pass %q: -%.2f%%, want -%.2f%% ± 0.25", r.Pass, gotPct, wantPct[i])
		}
	}
}

func TestWebServerNICMatchesNative(t *testing.T) {
	exe := compile(t, DefaultSet())
	web := WebServer()
	for i := 0; i < webPages; i++ {
		payload := web.MakeRequest(i)
		nic := execNIC(t, exe, WebServerID, payload)
		native, err := web.Handle(payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(nic, native) {
			t.Errorf("page %d: NIC %q != native %q", i, nic, native)
		}
		if !strings.Contains(string(nic), "lambda-nic page") {
			t.Errorf("page %d content wrong: %q", i, nic)
		}
	}
}

func TestKVClientEmitsMemcachedCommand(t *testing.T) {
	exe := compile(t, DefaultSet())
	kv := KVGetClient()
	// Key 37 -> the lambda must construct "get user:0037\r\n".
	payload := kv.MakeRequest(37)
	out := execNIC(t, exe, KVGetClientID, payload)
	if got, want := string(out), "get user:0037\r\n"; got != want {
		t.Errorf("NIC kv command = %q, want %q", got, want)
	}
	// SET client uses its own verb.
	set := KVSetClient()
	out = execNIC(t, exe, KVSetClientID, set.MakeRequest(5))
	if got, want := string(out), "set user:0005\r\n"; got != want {
		t.Errorf("NIC kv set command = %q, want %q", got, want)
	}
}

func TestKVCommandDigitsProperty(t *testing.T) {
	exe := compile(t, DefaultSet())
	f := func(key uint16) bool {
		k := uint32(key) % kvKeySpace
		payload := kvRequestPayload(0, k)
		req := &nicsim.Request{LambdaID: KVGetClientID, Payload: payload, Packets: 1}
		resp, err := exe.Execute(req)
		if err != nil {
			return false
		}
		want := "get " + kvKeyName(k) + "\r\n"
		return string(resp.Payload) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKVNativeHandlersAgainstStore(t *testing.T) {
	n := transport.NewMemNetwork(1)
	sc, err := n.Listen("memcached")
	if err != nil {
		t.Fatal(err)
	}
	srv := kvstore.NewServer(kvstore.NewStore(), sc)
	defer srv.Close()
	cc, err := n.Listen("client")
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	deps := &Deps{KV: kvstore.NewClient(cc, transport.MemAddr("memcached"))}

	set, get := KVSetClient(), KVGetClient()
	if out, err := set.Handle(set.MakeRequest(9), deps); err != nil || string(out) != "STORED" {
		t.Fatalf("set: %q/%v", out, err)
	}
	out, err := get.Handle(get.MakeRequest(9), deps)
	if err != nil || string(out) != "value-9" {
		t.Fatalf("get: %q/%v", out, err)
	}
	// Missing key.
	out, err = get.Handle(get.MakeRequest(500), deps)
	if err != nil || string(out) != "MISS" {
		t.Fatalf("miss: %q/%v", out, err)
	}
}

func TestKVNativeWithoutDeps(t *testing.T) {
	get := KVGetClient()
	if _, err := get.Handle(get.MakeRequest(0), nil); err == nil {
		t.Error("handler without deps succeeded")
	}
	if _, err := get.Handle([]byte{1}, nil); err == nil {
		t.Error("short request accepted")
	}
}

func TestImageTransformerNICMatchesNative(t *testing.T) {
	// A small image keeps the test fast; the set must include the
	// matching spec so sizes line up.
	ws := []*Workload{WebServer(), KVGetClient(), KVSetClient(), ImageTransformer(8, 8)}
	exe := compile(t, ws)
	img := ImageTransformer(8, 8)
	payload := img.MakeRequest(3)
	nic := execNIC(t, exe, ImageTransformerID, payload)
	native, err := img.Handle(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nic, native) {
		t.Errorf("NIC grayscale (%d bytes) != native (%d bytes)", len(nic), len(native))
	}
	if len(nic) != 64 {
		t.Errorf("output = %d bytes, want 64 (8x8 gray)", len(nic))
	}
}

func TestImageTransformerRejectsTruncated(t *testing.T) {
	ws := []*Workload{WebServer(), KVGetClient(), KVSetClient(), ImageTransformer(8, 8)}
	exe := compile(t, ws)
	img := ImageTransformer(8, 8)
	payload := img.MakeRequest(0)[:40] // truncated mid-pixel data
	req := &nicsim.Request{LambdaID: ImageTransformerID, Payload: payload, Packets: 1}
	resp, err := exe.Execute(req)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(resp.Payload) != 0 {
		t.Errorf("truncated image produced %d bytes, want drop", len(resp.Payload))
	}
	// Native path errors explicitly.
	if _, err := img.Handle(payload, nil); err == nil {
		t.Error("native handler accepted truncated image")
	}
	// A forged header whose width*height*4 wraps to 0 is rejected, not
	// sized: 2³¹ x 2³¹ with no pixels once panicked in makeslice.
	forged := make([]byte, 16)
	binary.BigEndian.PutUint32(forged[0:4], 1<<31)
	binary.BigEndian.PutUint32(forged[4:8], 1<<31)
	if _, err := img.Handle(forged, nil); err == nil {
		t.Error("native handler accepted a 2^31 x 2^31 image in 8 bytes")
	}
}

func TestImageUsesIMEMPlacement(t *testing.T) {
	// §6.4: "the image variable within the image-transformer lambda is
	// mapped to IMEM".
	p, err := BuildNaiveProgram(DefaultSet(), NaiveProgramTarget)
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := mcc.Optimize(p, mcc.AllPasses())
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.Object("img_out").EffectiveLevel(); got != nicsim.MemIMEM {
		t.Errorf("img_out placed in %v, want IMEM", got)
	}
	if got := opt.Object("web_server_content").EffectiveLevel(); got != nicsim.MemLocal {
		t.Errorf("web_server_content placed in %v, want LMEM (hot)", got)
	}
}

func TestMultiPacketImageChargesEMEM(t *testing.T) {
	ws := []*Workload{WebServer(), KVGetClient(), KVSetClient(), ImageTransformer(64, 64)}
	exe := compile(t, ws)
	img := ImageTransformer(64, 64)
	payload := img.MakeRequest(0) // 16 KiB -> 12 packets
	req := &nicsim.Request{LambdaID: ImageTransformerID, Payload: payload, Packets: Packets(len(payload))}
	resp, err := exe.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Accesses(nicsim.MemEMEM) == 0 {
		t.Error("multi-packet image payload charged no EMEM accesses (RDMA path)")
	}
}

func TestDynamicCostOrdering(t *testing.T) {
	// The image transformer must cost far more cycles than the web
	// server; the kv clients sit in between or near web.
	exe := compile(t, []*Workload{WebServer(), KVGetClient(), KVSetClient(), ImageTransformer(64, 64)})
	cost := func(id uint32, payload []byte) uint64 {
		req := &nicsim.Request{LambdaID: id, Payload: payload, Packets: Packets(len(payload))}
		if _, err := exe.Execute(req); err != nil { // warm
			t.Fatal(err)
		}
		resp, err := exe.Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Stats.Cycles(nicsimTestNIC())
	}
	web := cost(WebServerID, WebServer().MakeRequest(0))
	img := cost(ImageTransformerID, ImageTransformer(64, 64).MakeRequest(0))
	if img < 10*web {
		t.Errorf("image cycles (%d) not ≫ web cycles (%d)", img, web)
	}
}

func TestWorkloadSetHelpers(t *testing.T) {
	ws := DefaultSet()
	if len(ws) != 4 {
		t.Fatalf("DefaultSet = %d workloads", len(ws))
	}
	byID := ByID(ws)
	if byID[WebServerID].Name != "web_server" || byID[ImageTransformerID].Name != "image_transformer" {
		t.Error("ByID mapping wrong")
	}
	if Packets(0) != 1 || Packets(1400) != 1 || Packets(1401) != 2 {
		t.Error("Packets wrong")
	}
}

func TestColdStartRunsRuntimeInit(t *testing.T) {
	exe := compile(t, DefaultSet())
	req := &nicsim.Request{LambdaID: WebServerID, Payload: WebServer().MakeRequest(0), Packets: 1}
	cold, err := exe.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := exe.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Instructions <= warm.Stats.Instructions {
		t.Errorf("cold (%d) not > warm (%d): one-time init missing",
			cold.Stats.Instructions, warm.Stats.Instructions)
	}
}

// TestHandlersDoNotRetainPayload holds every native handler and Bypass
// to transport.Handler's contract: the request payload aliases a pooled
// buffer that is recycled once the response is sent, so neither the
// response nor anything the lambda keeps may point into it. Two
// instances of each workload get the same requests; one has every
// payload overwritten as soon as its call returns, and must go on
// answering exactly like the one left alone.
func TestHandlersDoNotRetainPayload(t *testing.T) {
	n := transport.NewMemNetwork(1)
	kvDeps := func(name string) *Deps {
		sc, err := n.Listen(name + ":memcached")
		if err != nil {
			t.Fatal(err)
		}
		store, table := kvstore.NewStore(), kvstore.NewTable(kvstore.DefaultSlots)
		store.SetMirror(table)
		srv := kvstore.NewServer(store, sc)
		t.Cleanup(func() { srv.Close() })
		cc, err := n.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cc.Close() })
		return &Deps{KV: kvstore.NewClient(cc, sc.LocalAddr()), KVTable: table}
	}
	serve := func(w *Workload, payload []byte, deps *Deps) []byte {
		if w.Bypass != nil {
			if resp, ok := w.Bypass(payload, deps); ok {
				return resp
			}
		}
		resp, err := w.Handle(payload, deps)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		return resp
	}
	sets := [2][]*Workload{}
	for i := range sets {
		// SET before GET: they share a store, so the GETs read (on the
		// bypass, from the table mirror) what the SETs wrote.
		sets[i] = []*Workload{WebServer(), KVSetClient(), KVGetClient(), ImageTransformer(32, 32),
			BatchSweeper(), KVStoreLambda()}
	}
	poisonedDeps, cleanDeps := kvDeps("poisoned"), kvDeps("clean")
	for wi, w := range sets[0] {
		control := sets[1][wi]
		for i := 0; i < 8; i++ {
			payload := w.MakeRequest(i)
			want := serve(control, control.MakeRequest(i), cleanDeps)
			got := serve(w, payload, poisonedDeps)
			for j := range payload {
				payload[j] = 0xDB
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s request %d: response changed when its payload was recycled (or a kept payload was)", w.Name, i)
			}
		}
	}
}
