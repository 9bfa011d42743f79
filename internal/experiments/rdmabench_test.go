package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lambdanic/internal/sim"
)

// testRdmaBench is a small-but-meaningful configuration: enough
// requests for stable virtual-clock rates, window points spanning the
// knee, and both large-transfer modes.
func testRdmaBench() RdmaBenchConfig {
	return RdmaBenchConfig{
		Requests:  200,
		Warmup:    20,
		Windows:   []int{1, 4, 16},
		LargeOps:  16,
		Transfers: 4,
	}
}

func TestRdmaBenchAcceptance(t *testing.T) {
	cfg := Quick()
	rb := testRdmaBench()
	rows, err := RdmaBench(cfg, rb)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]RdmaRow)
	for _, r := range rows {
		byName[r.Name] = r
	}
	wantRows := len(rdmaBenchClients) + len(rb.Windows)*len(rdmaBenchClients) + 2
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(rows), wantRows)
	}

	// The one-sided path beats the lambda path on p50 and throughput at
	// every client count (§4.2.1 D3: no parse/match/NPU dispatch).
	for _, c := range rdmaBenchClients {
		lambda := byName[fmt.Sprintf("kvget/lambda/c%d", c)]
		bypass := byName[fmt.Sprintf("kvget/bypass/w%d/c%d", rb.Windows[len(rb.Windows)-1], c)]
		if bypass.ReqPerSec <= lambda.ReqPerSec {
			t.Errorf("c=%d: bypass %.0f req/s not above lambda %.0f", c, bypass.ReqPerSec, lambda.ReqPerSec)
		}
		if bypass.P50 >= lambda.P50 {
			t.Errorf("c=%d: bypass p50 %v not below lambda %v", c, bypass.P50, lambda.P50)
		}
	}

	// Throughput scales with the window at high client counts: w=4
	// beats w=1, and the curve never regresses past the knee.
	cMax := rdmaBenchClients[len(rdmaBenchClients)-1]
	w1 := byName[fmt.Sprintf("kvget/bypass/w1/c%d", cMax)]
	w4 := byName[fmt.Sprintf("kvget/bypass/w4/c%d", cMax)]
	wTop := byName[fmt.Sprintf("kvget/bypass/w%d/c%d", rb.Windows[len(rb.Windows)-1], cMax)]
	if w4.ReqPerSec <= w1.ReqPerSec {
		t.Errorf("c=%d: w4 %.0f req/s not above w1 %.0f", cMax, w4.ReqPerSec, w1.ReqPerSec)
	}
	if wTop.ReqPerSec < w4.ReqPerSec*0.99 {
		t.Errorf("c=%d: throughput regressed past the knee: w4 %.0f, wTop %.0f", cMax, w4.ReqPerSec, wTop.ReqPerSec)
	}

	// Doorbell-batched large transfers beat the per-fragment path.
	sizeKiB := rb.LargeOps * 1400 / 1024
	db := byName[fmt.Sprintf("large/doorbell/%dKiB", sizeKiB)]
	pf := byName[fmt.Sprintf("large/perfrag/%dKiB", sizeKiB)]
	if db.ReqPerSec <= pf.ReqPerSec {
		t.Errorf("doorbell %.1f transfers/s not above per-fragment %.1f", db.ReqPerSec, pf.ReqPerSec)
	}

	out := RenderRdmaBench(rows)
	for _, want := range []string{"bypass speedup over lambda path", "doorbell batching speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRdmaBenchDeterministic holds the heap kernel's rows to the
// ladder's, bit for bit.
func TestRdmaBenchDeterministic(t *testing.T) {
	rb := testRdmaBench()
	rb.Requests, rb.Warmup, rb.Transfers = 100, 10, 2
	rows := map[sim.KernelKind][]RdmaRow{}
	for _, kind := range []sim.KernelKind{sim.KernelLadder, sim.KernelHeap} {
		cfg := Quick()
		cfg.Kernel = kind
		r, err := RdmaBench(cfg, rb)
		if err != nil {
			t.Fatal(err)
		}
		rows[kind] = r
	}
	if !reflect.DeepEqual(rows[sim.KernelLadder], rows[sim.KernelHeap]) {
		t.Fatalf("heap kernel diverged from ladder:\nladder %+v\nheap   %+v",
			rows[sim.KernelLadder], rows[sim.KernelHeap])
	}
}
