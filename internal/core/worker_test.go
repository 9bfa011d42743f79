package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lambdanic/internal/kvstore"
	"lambdanic/internal/matchlambda"
	"lambdanic/internal/monitor"
	"lambdanic/internal/transport"
	"lambdanic/internal/workloads"
)

func newTestWorker(t *testing.T, n *transport.MemNetwork, name string) *Worker {
	t.Helper()
	conn, err := n.Listen(name)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(conn, nil)
	t.Cleanup(func() {
		if err := w.Close(); err != nil {
			t.Errorf("worker close: %v", err)
		}
	})
	return w
}

func TestWorkerInstallRemove(t *testing.T) {
	n := transport.NewMemNetwork(1)
	w := newTestWorker(t, n, "w1")
	web := workloads.WebServer()
	if err := w.Install(web); err != nil {
		t.Fatal(err)
	}
	if err := w.Install(web); !errors.Is(err, ErrDuplicateWorkload) {
		t.Errorf("duplicate install: %v", err)
	}
	if got := w.Installed(); len(got) != 1 || got[0] != web.ID {
		t.Errorf("Installed = %v", got)
	}
	w.Remove(web.ID)
	if got := w.Installed(); len(got) != 0 {
		t.Errorf("Installed after Remove = %v", got)
	}
}

func TestWorkerRejectsHandlerlessWorkload(t *testing.T) {
	n := transport.NewMemNetwork(1)
	w := newTestWorker(t, n, "w1")
	if err := w.Install(&workloads.Workload{Name: "stub", ID: 9}); err == nil {
		t.Error("workload without handler installed")
	}
}

// TestWorkerBypassFastPath checks the one-sided fast path: a bypass
// hit serves the request without invoking the handler and is counted
// in both lnic_worker_requests_total and lnic_worker_bypass_total; a
// bypass miss falls through to the handler.
func TestWorkerBypassFastPath(t *testing.T) {
	n := transport.NewMemNetwork(1)
	conn, err := n.Listen("w1")
	if err != nil {
		t.Fatal(err)
	}
	table := kvstore.NewTable(64)
	table.Set("hit", []byte("from-table"))
	w := NewWorker(conn, &workloads.Deps{KVTable: table})
	defer w.Close()
	reg := monitor.NewRegistry()
	if err := w.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}
	handlerRuns := 0
	wl := &workloads.Workload{
		Name: "kv_probe",
		ID:   77,
		Handle: func(payload []byte, deps *workloads.Deps) ([]byte, error) {
			handlerRuns++
			return []byte("from-lambda"), nil
		},
		Bypass: func(payload []byte, deps *workloads.Deps) ([]byte, bool) {
			return deps.KVTable.Get(string(payload))
		},
	}
	if err := w.Install(wl); err != nil {
		t.Fatal(err)
	}
	cc, err := n.Listen("client")
	if err != nil {
		t.Fatal(err)
	}
	cli := transport.NewEndpoint(cc, nil,
		transport.WithTimeout(200*time.Millisecond), transport.WithRetries(2))
	defer cli.Close()
	ctx := context.Background()

	resp, err := cli.Call(ctx, transport.MemAddr("w1"), wl.ID, []byte("hit"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != "from-table" {
		t.Errorf("bypass resp = %q, want from-table", resp)
	}
	if handlerRuns != 0 {
		t.Errorf("handler ran %d times on a bypass hit", handlerRuns)
	}
	resp, err = cli.Call(ctx, transport.MemAddr("w1"), wl.ID, []byte("miss"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != "from-lambda" || handlerRuns != 1 {
		t.Errorf("miss resp = %q (handler runs %d), want lambda fallback", resp, handlerRuns)
	}
	out := reg.Render()
	for _, want := range []string{
		`lnic_worker_bypass_total{workload="kv_probe"} 1`,
		`lnic_worker_requests_total{workload="kv_probe"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestWorkerServesAndRejectsUnknown(t *testing.T) {
	n := transport.NewMemNetwork(1)
	w := newTestWorker(t, n, "w1")
	web := workloads.WebServer()
	if err := w.Install(web); err != nil {
		t.Fatal(err)
	}
	cc, err := n.Listen("client")
	if err != nil {
		t.Fatal(err)
	}
	cli := transport.NewEndpoint(cc, nil,
		transport.WithTimeout(200*time.Millisecond), transport.WithRetries(2))
	defer cli.Close()
	ctx := context.Background()

	resp, err := cli.Call(ctx, transport.MemAddr("w1"), web.ID, web.MakeRequest(0))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if !strings.Contains(string(resp), "lambda-nic page 0") {
		t.Errorf("resp = %q", resp)
	}
	// Unknown workload ID: the host-path fall-through (§4.1) surfaces
	// as an error response.
	_, err = cli.Call(ctx, transport.MemAddr("w1"), 999, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unknown-id err = %v", err)
	}
	// After removal, requests fail again.
	w.Remove(web.ID)
	if _, err := cli.Call(ctx, transport.MemAddr("w1"), web.ID, web.MakeRequest(0)); err == nil {
		t.Error("call after Remove succeeded")
	}
}

// TestWorkerWarmTracking: repeated requests from the same client flow
// count as warm hits after the first; a fresh client is a miss; the
// counters land in the registry for the fleet view's WARM% column.
func TestWorkerWarmTracking(t *testing.T) {
	n := transport.NewMemNetwork(3)
	w := newTestWorker(t, n, "w1")
	reg := monitor.NewRegistry()
	if err := w.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}
	wl := &workloads.Workload{
		Name: "echo",
		ID:   5,
		Handle: func(payload []byte, deps *workloads.Deps) ([]byte, error) {
			return payload, nil
		},
	}
	if err := w.Install(wl); err != nil {
		t.Fatal(err)
	}
	client := func(name string) *transport.Endpoint {
		t.Helper()
		cc, err := n.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		cli := transport.NewEndpoint(cc, nil,
			transport.WithTimeout(200*time.Millisecond), transport.WithRetries(2))
		t.Cleanup(func() { cli.Close() })
		return cli
	}
	call := func(cli *transport.Endpoint) {
		t.Helper()
		if _, err := cli.Call(context.Background(), transport.MemAddr("w1"), wl.ID, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	alice, bob := client("alice"), client("bob")
	call(alice)
	call(alice)
	call(alice)
	call(bob)
	out := reg.Render()
	for _, want := range []string{
		"lnic_worker_warm_lookups_total 4",
		"lnic_worker_warm_hits_total 2", // alice's 2nd and 3rd; both firsts miss
		"lnic_worker_pool_drops_total 0",
		"lnic_worker_reassembly_evictions_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("registry missing %q:\n%s", want, out)
		}
	}
}

// TestWorkerWarmTrackingDisabled: the registry is the only reader of
// the warm hit rate, so a worker without EnableMetrics tracks no flows
// and counts no lookups — its request path takes no lock.
func TestWorkerWarmTrackingDisabled(t *testing.T) {
	n := transport.NewMemNetwork(5)
	w := newTestWorker(t, n, "w1")
	wl := echoLambda("echo", 5)
	if err := w.Install(wl); err != nil {
		t.Fatal(err)
	}
	cc, err := n.Listen("client")
	if err != nil {
		t.Fatal(err)
	}
	cli := transport.NewEndpoint(cc, nil,
		transport.WithTimeout(200*time.Millisecond), transport.WithRetries(2))
	defer cli.Close()
	if _, err := cli.Call(context.Background(), transport.MemAddr("w1"), wl.ID, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if w.warm.Load() != nil || w.warmLookups.Load() != 0 {
		t.Errorf("warm tracking without EnableMetrics: %d lookups", w.warmLookups.Load())
	}
	// The served request was counted all the same: the instruments do
	// not wait for a registry.
	if got := (*w.lambdas.Load())[wl.ID].requests.Load(); got != 1 {
		t.Errorf("requests counted before EnableMetrics = %d, want 1", got)
	}
}

// TestWorkerMetricsOrderIndependent: Install then EnableMetrics and
// EnableMetrics then Install expose the same families with the same
// label sets and count the same traffic.
func TestWorkerMetricsOrderIndependent(t *testing.T) {
	render := func(metricsFirst bool) string {
		n := transport.NewMemNetwork(7)
		w := newTestWorker(t, n, "w1")
		reg := monitor.NewRegistry()
		probe := echoLambda("kv_probe", 77)
		probe.Tenant = "acme"
		probe.Bypass = func([]byte, *workloads.Deps) ([]byte, bool) { return nil, false }
		steps := []func() error{
			func() error { return w.EnableMetrics(reg) },
			func() error { return errors.Join(w.Install(workloads.WebServer()), w.Install(probe)) },
		}
		if !metricsFirst {
			steps[0], steps[1] = steps[1], steps[0]
		}
		for _, step := range steps {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		req := &transport.Message{
			Header:  matchlambda.WireHeader{Version: matchlambda.Version1, WorkloadID: probe.ID, RequestID: 1, Total: 1},
			Payload: []byte("x"),
			Source:  transport.MemAddr("client"),
		}
		if _, err := w.handle(req); err != nil {
			t.Fatal(err)
		}
		return normalizeExposition(reg.Render())
	}
	metricsFirst, installFirst := render(true), render(false)
	if metricsFirst != installFirst {
		t.Errorf("registration order changed the exposition:\n%s", lineDiff(metricsFirst, installFirst))
	}
	for _, want := range []string{
		`lnic_worker_bypass_total{tenant="acme",workload="kv_probe"} 0`,
		`lnic_worker_requests_total{tenant="acme",workload="kv_probe"} 1`,
		`lnic_worker_requests_total{workload="web_server"} 0`,
	} {
		if !strings.Contains(installFirst, want) {
			t.Errorf("exposition missing %q:\n%s", want, installFirst)
		}
	}
}

// TestWorkerHandleAllocs: a served web request through handle, metrics
// on and tracing off, allocates nothing beyond the handler's reply — no
// span name, no label, no instrument lookup.
func TestWorkerHandleAllocs(t *testing.T) {
	n := transport.NewMemNetwork(9)
	w := newTestWorker(t, n, "w1")
	if err := w.EnableMetrics(monitor.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	web := workloads.WebServer()
	if err := w.Install(web); err != nil {
		t.Fatal(err)
	}
	payload := web.MakeRequest(1)
	reply := testing.AllocsPerRun(200, func() {
		if _, err := web.Handle(payload, nil); err != nil {
			t.Fatal(err)
		}
	})
	req := &transport.Message{
		Header:  matchlambda.WireHeader{Version: matchlambda.Version1, WorkloadID: web.ID, RequestID: 1, Total: 1},
		Payload: payload,
		Source:  transport.MemAddr("client"),
	}
	served := testing.AllocsPerRun(200, func() {
		if _, err := w.handle(req); err != nil {
			t.Fatal(err)
		}
	})
	if served > reply {
		t.Errorf("handle allocates %.1f per request, the handler alone %.1f", served, reply)
	}
}

// TestWorkerInstallRemoveUnderLoad: the copy-on-write match table is
// swapped while 8 goroutines dispatch through it. A lambda that stays
// installed is never missed; one being churned is either served or
// unmatched, nothing else. Run with -race.
func TestWorkerInstallRemoveUnderLoad(t *testing.T) {
	n := transport.NewMemNetwork(11)
	w := newTestWorker(t, n, "w1")
	if err := w.EnableMetrics(monitor.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	const stableID, churnID = 1, 2
	if err := w.Install(echoLambda("stable", stableID)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := func(id uint32) *transport.Message {
				return &transport.Message{
					Header:  matchlambda.WireHeader{Version: matchlambda.Version1, WorkloadID: id, RequestID: 1, Total: 1},
					Payload: []byte("x"),
					Source:  transport.MemAddr("client"),
				}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.handle(req(stableID)); err != nil {
					t.Errorf("stable lambda: %v", err)
					return
				}
				if _, err := w.handle(req(churnID)); err != nil && !errors.Is(err, ErrUnknownWorkload) {
					t.Errorf("churned lambda: %v", err)
					return
				}
			}
		}()
	}
	for round := 0; round < 200; round++ {
		// A fresh name each round: a removed lambda's series stay registered.
		if err := w.Install(echoLambda(fmt.Sprintf("churn_%d", round), churnID)); err != nil {
			t.Fatal(err)
		}
		w.Remove(churnID)
	}
	close(stop)
	wg.Wait()
	if got := w.Installed(); len(got) != 1 || got[0] != stableID {
		t.Errorf("Installed = %v, want [%d]", got, stableID)
	}
}
