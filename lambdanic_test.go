package lambdanic

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPublicAPICustomLambda exercises the whole compiler path through
// the public façade: build a lambda with the IR builder, compose,
// optimize, link, execute.
func TestPublicAPICustomLambda(t *testing.T) {
	// A counter lambda: increments a persistent word and emits it.
	b := NewBuilder("counter")
	b.MovImm(1, 0)
	b.LoadW(2, "state", 1, 0)
	b.MovImm(3, 1)
	b.Add(2, 2, 3)
	b.StoreW("state", 1, 0, 2)
	b.EmitByte(2)
	b.MovImm(4, StatusForward)
	b.Ret(4)
	entry := b.MustBuild()

	spec := &LambdaSpec{
		Name:    "counter",
		ID:      42,
		Entry:   entry,
		Objects: []*Object{{Name: "state", Size: 8, Hint: HintHot}},
	}
	prog, err := Compose([]*LambdaSpec{spec}, ComposeOptions{})
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	opt, results, err := Optimize(prog, AllPasses())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if len(results) != 4 {
		t.Errorf("pass trajectory = %d entries", len(results))
	}
	exe, err := Link(opt, LinkOptions{})
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	for want := byte(1); want <= 3; want++ {
		resp, err := exe.Execute(&NICRequest{LambdaID: 42, Packets: 1})
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if len(resp.Payload) != 1 || resp.Payload[0] != want {
			t.Errorf("counter = %v, want %d", resp.Payload, want)
		}
	}
}

func TestSimulationBackends(t *testing.T) {
	s := NewSimulation(7)
	nic, err := s.LambdaNICBackend()
	if err != nil {
		t.Fatal(err)
	}
	set := []*Workload{WebServer(), KVGetClient(), KVSetClient(), ImageTransformer(8, 8)}
	if err := nic.Deploy(set); err != nil {
		t.Fatal(err)
	}
	var got []byte
	nic.Invoke(WebServer().ID, WebServer().MakeRequest(0), func(r Result) {
		if r.Err != nil {
			t.Fatalf("Invoke: %v", r.Err)
		}
		got, _ = r.Reply()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "lambda-nic page 0") {
		t.Errorf("response = %q", got)
	}
	if s.Now() <= 0 {
		t.Error("virtual time did not advance")
	}

	if _, err := s.BareMetalBackend(false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ContainerBackend(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultTestbedAndWorkloads(t *testing.T) {
	tb := DefaultTestbed()
	if tb.NIC.NPUThreads() != 448 {
		t.Errorf("NPUThreads = %d", tb.NIC.NPUThreads())
	}
	if len(BenchmarkWorkloads()) != 4 {
		t.Error("BenchmarkWorkloads wrong")
	}
}

func TestDeploymentEndToEnd(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{Workers: 2, Seed: 3})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	defer func() {
		if err := d.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	for _, w := range []*Workload{WebServer(), KVGetClient(), KVSetClient()} {
		if err := d.Deploy(w); err != nil {
			t.Fatalf("Deploy %s: %v", w.Name, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if resp, err := d.Invoke(ctx, KVSetClient().ID, KVSetClient().MakeRequest(11)); err != nil || string(resp) != "STORED" {
		t.Fatalf("kv set: %q/%v", resp, err)
	}
	if resp, err := d.Invoke(ctx, KVGetClient().ID, KVGetClient().MakeRequest(11)); err != nil || string(resp) != "value-11" {
		t.Fatalf("kv get: %q/%v", resp, err)
	}
	resp, err := d.Invoke(ctx, WebServer().ID, WebServer().MakeRequest(1))
	if err != nil || !strings.Contains(string(resp), "page 1") {
		t.Fatalf("web: %q/%v", resp, err)
	}
	fwd, unrouted := d.GatewayStats()
	if fwd < 3 || unrouted != 0 {
		t.Errorf("gateway stats = %d/%d", fwd, unrouted)
	}
	// Placement visible through the manager's control store.
	p, err := d.Manager().Placement("web_server")
	if err != nil || len(p.Workers) != 2 {
		t.Errorf("placement = %+v, %v", p, err)
	}
}

func TestDeploymentSurvivesPacketLoss(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{Workers: 1, Seed: 5, LossRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Deploy(WebServer()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		resp, err := d.Invoke(ctx, WebServer().ID, WebServer().MakeRequest(i))
		if err != nil {
			t.Fatalf("request %d under loss: %v", i, err)
		}
		if !strings.Contains(string(resp), "lambda-nic page") {
			t.Errorf("request %d corrupt: %q", i, resp)
		}
	}
}

func TestDeploymentMetrics(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{Workers: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	web := WebServer()
	if err := d.Deploy(web); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := d.Invoke(ctx, web.ID, web.MakeRequest(i)); err != nil {
			t.Fatal(err)
		}
	}
	out := d.Metrics().Render()
	for _, want := range []string{
		"lnic_gateway_forwarded_total 5",
		`lnic_worker_requests_total{workload="web_server"} 5`,
		"lnic_worker_latency_seconds_count 5",
		"lnic_gateway_upstream_latency_seconds_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestDeploymentSelfHealing(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{
		Workers:        3,
		Seed:           9,
		Health:         true,
		HealthInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	web := WebServer()
	if err := d.Deploy(web); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := d.Invoke(ctx, web.ID, web.MakeRequest(0)); err != nil {
		t.Fatal(err)
	}
	if n := d.Gateway().LiveWorkers(); n != 3 {
		t.Fatalf("live workers = %d, want 3", n)
	}

	// Crash-stop worker 0 (m2): transport silent, heartbeats stop.
	if err := d.KillWorker(0); err != nil {
		t.Fatal(err)
	}
	// healthd must declare it dead, evict it from placements, and
	// shrink the gateway's routes. The detection bound is asserted
	// deterministically in internal/healthd and the chaos experiment;
	// here the wall-clock loop just has to converge.
	deadline := time.Now().Add(30 * time.Second)
	for d.Gateway().LiveWorkers() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("gateway still routes %d workers; detector: %+v",
				d.Gateway().LiveWorkers(), d.Health().Snapshot(0))
		}
		time.Sleep(5 * time.Millisecond)
	}
	p, err := d.Manager().Placement(web.Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range p.Workers {
		if w == "m2" {
			t.Fatalf("dead worker still placed: %+v", p)
		}
	}
	// Service remains available on the survivors.
	for i := 0; i < 5; i++ {
		resp, err := d.Invoke(ctx, web.ID, web.MakeRequest(i))
		if err != nil {
			t.Fatalf("request %d after eviction: %v", i, err)
		}
		if !strings.Contains(string(resp), "lambda-nic page") {
			t.Errorf("request %d corrupt: %q", i, resp)
		}
	}

	// A restarted worker's next heartbeat revives it in the detector.
	if err := d.RestartWorker(0); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(30 * time.Second)
	for d.Health().Status("m2") != 0 { // healthd.StatusAlive
		if time.Now().After(deadline) {
			t.Fatalf("restarted worker never revived; detector: %+v", d.Health().Snapshot(0))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDeploymentSurvivesWorkerCrash(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{Workers: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	web := WebServer()
	if err := d.Deploy(web); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Prime the pipeline.
	if _, err := d.Invoke(ctx, web.ID, web.MakeRequest(0)); err != nil {
		t.Fatal(err)
	}
	// Crash one worker: the gateway's failover keeps the lambda served
	// by the survivor.
	if err := d.workers[0].Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		resp, err := d.Invoke(ctx, web.ID, web.MakeRequest(i))
		if err != nil {
			t.Fatalf("request %d after worker crash: %v", i, err)
		}
		if !strings.Contains(string(resp), "lambda-nic page") {
			t.Errorf("request %d corrupt: %q", i, resp)
		}
	}
}

// TestBulkPayloadOwnership drives concurrent multi-fragment requests
// client → gateway → worker → client. On each hop the request lives in
// one pooled message buffer that the gateway forwards out of and the
// lambda runs on, and that is recycled — and, under -race, overwritten
// with 0xDB — once the hop's response is cached and sent. Every caller
// sends its own image and checks every reply byte, so a buffer recycled
// while a forward or a lambda still read it, or handed to two messages
// at once, shows up as a wrong pixel.
func TestBulkPayloadOwnership(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{Workers: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	const side = 96 // 36 872 B request = 27 fragments, 9 216 B reply = 7
	img := ImageTransformer(side, side)
	if err := d.Deploy(img); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const callers, calls = 8, 40
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := make([]byte, 8+4*side*side)
			binary.BigEndian.PutUint32(req[0:4], side)
			binary.BigEndian.PutUint32(req[4:8], side)
			want := make([]byte, side*side)
			for i := 0; i < calls; i++ {
				px := req[8:]
				for j := range px {
					px[j] = byte(j*(c+3) + i*7 + j>>9)
				}
				for j := range want {
					want[j] = byte((77*uint32(px[4*j]) + 150*uint32(px[4*j+1]) + 29*uint32(px[4*j+2])) >> 8)
				}
				resp, err := d.Invoke(ctx, img.ID, req)
				if err != nil {
					t.Errorf("caller %d call %d: %v", c, i, err)
					return
				}
				if !bytes.Equal(resp, want) {
					t.Errorf("caller %d call %d: reply differs from the grayscale of the image sent", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
