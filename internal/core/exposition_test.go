package core

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"lambdanic/internal/dispatch"
	"lambdanic/internal/gateway"
	"lambdanic/internal/kvstore"
	"lambdanic/internal/monitor"
	"lambdanic/internal/tenant"
	"lambdanic/internal/transport"
	"lambdanic/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// normalizeExposition reduces a rendered page to what dashboards and
// `lnicctl top`/`slo` depend on: every HELP and TYPE line, every series
// with its label set, and every value that counts events. Latency
// readings (bucket fills, sums) are timing and are blanked; lines are
// sorted because registration order is not part of the contract (the
// tenant series already register in map order).
func normalizeExposition(page string) string {
	lines := strings.Split(strings.TrimSpace(page), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		name, _, _ := strings.Cut(series, "{")
		if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") {
			lines[i] = series
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// echoLambda is a minimal native lambda for the metric tests.
func echoLambda(name string, id uint32) *workloads.Workload {
	return &workloads.Workload{
		Name: name,
		ID:   id,
		Handle: func(payload []byte, _ *workloads.Deps) ([]byte, error) {
			return append([]byte(nil), payload...), nil
		},
	}
}

// TestExpositionGolden drives a scripted 100-request mix through an
// in-process gateway and worker and holds the rendered registry — family
// names, HELP text, label sets and every count — to a golden captured
// before the node took ownership of its instruments. The mix reaches
// every counter: served, bypassed, failed and unmatched lambdas,
// unrouted and throttled requests, and one failover off a black-holed
// worker with exactly one retransmission.
func TestExpositionGolden(t *testing.T) {
	const webID, probeID, flakyID, bulkID, strayID, lostID = 1, 77, 78, 6, 99, 98
	n := transport.NewMemNetwork(19)
	reg := monitor.NewRegistry()

	table := kvstore.NewTable(64)
	table.Set("hit", []byte("from-table"))
	wConn, err := n.Listen("m2")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(wConn, &workloads.Deps{KVTable: table})
	defer w.Close()
	if err := w.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}
	probe := echoLambda("kv_probe", probeID)
	probe.Tenant = "acme"
	probe.Bypass = func(payload []byte, deps *workloads.Deps) ([]byte, bool) {
		return deps.KVTable.Get(string(payload))
	}
	flaky := echoLambda("flaky", flakyID)
	flaky.Handle = func([]byte, *workloads.Deps) ([]byte, error) { return nil, errors.New("boom") }
	bulk := echoLambda("bulk_echo", bulkID)
	bulk.Tenant = "bulk"

	// The failover lambda's flow must be owned by the black-holed m3, so
	// its ID is the first one the (deterministic) ring places there.
	names := []string{"m2", "m3"}
	ring := dispatch.NewRing(names, gateway.DefaultRingSeed, 0)
	failID := uint32(10)
	for names[ring.Pick(dispatch.FlowKey("client", failID))] != "m3" {
		failID++
	}
	web := workloads.WebServer()
	for _, wl := range []*workloads.Workload{web, probe, flaky, bulk, echoLambda("failover_echo", failID)} {
		if err := w.Install(wl); err != nil {
			t.Fatal(err)
		}
	}
	hole, err := n.Listen("m3") // attached, never read: requests vanish
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()

	gwConn, err := n.Listen("gw")
	if err != nil {
		t.Fatal(err)
	}
	// 250 ms upstream budget against the endpoint's 200 ms attempt timer:
	// the black-holed attempt retransmits exactly once before it fails over.
	gw := gateway.New(gwConn, gateway.WithUpstreamTimeout(250*time.Millisecond))
	defer gw.Close()
	adm := tenant.NewAdmission()
	if err := adm.SetQuota(&tenant.Tenant{ID: 10, Name: "bulk", Quota: tenant.Quota{RatePerSec: 1, Burst: 4}}); err != nil {
		t.Fatal(err)
	}
	err = gw.EnableAdmission(adm, func(id uint32) uint32 {
		if id == bulkID {
			return 10
		}
		return 20
	}, gateway.WithAdmissionClock(func() time.Duration { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}
	m2 := []net.Addr{transport.MemAddr("m2")}
	for _, id := range []uint32{webID, probeID, flakyID, bulkID, strayID} {
		gw.SetRoute(id, m2)
	}
	gw.SetRoute(failID, []net.Addr{transport.MemAddr("m2"), transport.MemAddr("m3")})

	cc, err := n.Listen("client")
	if err != nil {
		t.Fatal(err)
	}
	cli := transport.NewEndpoint(cc, nil, transport.WithTimeout(5*time.Second), transport.WithRetries(0))
	defer cli.Close()
	requests := 0
	call := func(id uint32, payload string, wantErr bool) {
		t.Helper()
		requests++
		_, err := cli.Call(context.Background(), transport.MemAddr("gw"), id, []byte(payload))
		if (err != nil) != wantErr {
			t.Fatalf("request %d (workload %d): err = %v, want error %v", requests, id, err, wantErr)
		}
	}
	for i := 0; i < 40; i++ {
		call(webID, string(web.MakeRequest(i)), false)
	}
	for i := 0; i < 30; i++ {
		key := "hit"
		if i%3 == 2 {
			key = "miss"
		}
		call(probeID, key, false)
	}
	for i := 0; i < 10; i++ {
		call(flakyID, "x", true)
	}
	for i := 0; i < 5; i++ {
		call(strayID, "x", true) // routed, but no such lambda on the worker
		call(lostID, "x", true)  // no route at all
	}
	for i := 0; i < 9; i++ {
		call(bulkID, "x", i >= 4) // burst of 4 on a stopped clock, the rest shed
	}
	call(failID, "x", false)
	if requests != 100 {
		t.Fatalf("script issued %d requests, want 100", requests)
	}

	got := normalizeExposition(reg.Render())
	path := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from golden:\n%s", lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only one of two sorted pages has.
func lineDiff(want, got string) string {
	have := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		have[l]--
	}
	for _, l := range strings.Split(got, "\n") {
		have[l]++
	}
	var out []string
	for l, d := range have {
		switch {
		case d < 0:
			out = append(out, "- "+l)
		case d > 0:
			out = append(out, "+ "+l)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a][2:] < out[b][2:] })
	return fmt.Sprintf("(- golden, + rendered)\n%s", strings.Join(out, "\n"))
}
