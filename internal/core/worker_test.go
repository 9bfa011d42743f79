package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"lambdanic/internal/kvstore"
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

// TestWorkerWarmTrackingDisabled: SetWarmFlows(0) turns lookups off.
func TestWorkerWarmTrackingDisabled(t *testing.T) {
	n := transport.NewMemNetwork(5)
	w := newTestWorker(t, n, "w1")
	reg := monitor.NewRegistry()
	if err := w.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}
	w.SetWarmFlows(0)
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
	if out := reg.Render(); !strings.Contains(out, "lnic_worker_warm_lookups_total 0") {
		t.Errorf("lookups counted with tracking disabled:\n%s", out)
	}
}
