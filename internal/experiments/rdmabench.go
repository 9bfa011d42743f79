package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"lambdanic/internal/backend"
	"lambdanic/internal/kvstore"
	"lambdanic/internal/metrics"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/rdma"
	"lambdanic/internal/sim"
	"lambdanic/internal/trace"
	"lambdanic/internal/workloads"
)

// The rdmabench experiment measures the one-sided RDMA fast path on
// the simulated testbed, in virtual time — every number is a property
// of the timing model, deterministic and machine-independent, which is
// why cmd/lnic-bench/testdata holds its output byte for byte.
//
// Three row families, reproducing the SMART-style scalability curves:
//
//   - kvget/lambda/c{C}: the baseline — KV GETs served by invoking the
//     kv_get_client lambda on an NPU plus the modeled memcached store
//     access (StoreRTT + serialized StoreOccupancy), C closed-loop
//     clients.
//   - kvget/bypass/w{W}/c{C}: the same GETs served by one-sided RDMA
//     reads of the EMEM-resident table (no NPU dispatch), through a QP
//     whose outstanding-request window is W. Throughput rises with W
//     until the shared link saturates (the knee), then flattens.
//   - large/doorbell/{size} vs large/perfrag/{size}: a large object
//     moved as MTU-sized writes flushed under ONE doorbell (the whole
//     batch pipelines on the link) versus one doorbell + completion
//     wait per fragment (the stop-and-wait fragmentation path). The
//     gap is the per-doorbell charge plus the lost pipelining.
//
// The suite runs on the kernel cfg.Kernel names; TestRdmaBenchDeterministic
// holds the heap kernel's rows to the ladder's, the determinism contract
// every experiment carries.

// RdmaRow is one rdmabench scenario's measurement. ReqPerSec is
// completions per second of simulated time.
type RdmaRow struct {
	Name      string
	Requests  int
	ReqPerSec float64
	P50, P99  time.Duration
}

// RdmaBenchConfig sizes the one-sided RDMA benchmark.
type RdmaBenchConfig struct {
	// Requests is the measured GET count per kvget scenario.
	Requests int
	// Warmup GETs run before measurement opens.
	Warmup int
	// Clients are the closed-loop client counts.
	Clients []int
	// Windows are the QP outstanding-request windows for the bypass
	// scalability curve (0 = unlimited).
	Windows []int
	// LargeOps is the number of MTU-sized writes per large transfer.
	LargeOps int
	// Transfers is how many large transfers each large row measures.
	Transfers int
	// DoorbellCost is the per-doorbell submission charge applied in the
	// large-transfer engines (the quantity batching amortizes).
	DoorbellCost time.Duration
	// StoreRTT and StoreOccupancy model the memcached machine the
	// kv_get_client lambda queries: the round-trip wire time to it and
	// its serialized per-request service time. The simulated backend
	// measures the client lambda alone (Figures 6–7), but a *served*
	// GET on the lambda path additionally pays this store access — the
	// bypass rows pay theirs as the one-sided read itself, so only the
	// lambda baseline is wrapped with this stage.
	StoreRTT       time.Duration
	StoreOccupancy time.Duration
}

// DefaultRdmaBench returns the full-size configuration.
func DefaultRdmaBench() RdmaBenchConfig {
	return RdmaBenchConfig{
		Requests:       2000,
		Warmup:         200,
		Clients:        []int{1, 4, 16},
		Windows:        []int{1, 2, 4, 8, 16, 32},
		LargeOps:       64,
		Transfers:      32,
		DoorbellCost:   time.Microsecond,
		StoreRTT:       3 * time.Microsecond,
		StoreOccupancy: 1500 * time.Nanosecond,
	}
}

// QuickRdmaBench returns a reduced configuration for smoke runs and CI.
func QuickRdmaBench() RdmaBenchConfig {
	return RdmaBenchConfig{
		Requests:       400,
		Warmup:         40,
		Clients:        []int{1, 4, 16},
		Windows:        []int{1, 2, 4, 8, 16},
		LargeOps:       32,
		Transfers:      8,
		DoorbellCost:   time.Microsecond,
		StoreRTT:       3 * time.Microsecond,
		StoreOccupancy: 1500 * time.Nanosecond,
	}
}

// rdmaBenchTable builds the EMEM table mirror preloaded with the KV
// keyspace and returns the key indices that fit its fixed-slot
// geometry — the bypass rows request only present keys, so every GET
// is a one-sided hit and the rows measure the fast path, not the
// fallback mix.
func rdmaBenchTable() (*kvstore.Table, []int) {
	table := kvstore.NewTable(2048)
	var present []int
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("user:%04d", i)
		if table.Set(key, []byte(fmt.Sprintf("value-%d", i))) {
			present = append(present, i)
		}
	}
	return table, present
}

// runKVGetRow drives one closed-loop GET scenario. window < 0 disables
// the bypass entirely (the lambda baseline).
func runKVGetRow(cfg Config, rb RdmaBenchConfig, name string, clients, window int) (RdmaRow, error) {
	s := sim.NewWithKernel(cfg.Seed, cfg.Kernel)
	b, err := backend.NewLambdaNIC(s, cfg.Testbed, nicsim.DispatchUniform)
	if err != nil {
		return RdmaRow{}, err
	}
	get := workloads.KVGetClient()
	if err := b.Deploy([]*workloads.Workload{get}); err != nil {
		return RdmaRow{}, err
	}
	table, present := rdmaBenchTable()
	var target trace.Invoker = b
	if window >= 0 {
		if err := b.EnableKVBypass(get.ID, table, window); err != nil {
			return RdmaRow{}, err
		}
	} else {
		// Lambda baseline: the served GET pays the memcached machine
		// round trip and its serialized service time on top of the
		// client lambda (the bypass rows pay theirs as the RDMA read).
		target = trace.NewGateway(s, b, rb.StoreRTT, rb.StoreOccupancy)
	}
	res, err := (trace.ClosedLoop{
		Concurrency: clients,
		Requests:    rb.Requests,
		Warmup:      rb.Warmup,
		Gen: trace.Fixed(get.ID, func(i int) []byte {
			return get.MakeRequest(present[i%len(present)])
		}),
	}).Run(s, target)
	if err != nil {
		return RdmaRow{}, err
	}
	if res.Errors > 0 {
		return RdmaRow{}, fmt.Errorf("rdmabench: %s: %d errors", name, res.Errors)
	}
	if window >= 0 {
		hits, fallbacks := b.BypassStats()
		if fallbacks > 0 || hits == 0 {
			return RdmaRow{}, fmt.Errorf("rdmabench: %s: bypass hits=%d fallbacks=%d, want all hits",
				name, hits, fallbacks)
		}
	}
	return RdmaRow{
		Name:      name,
		Requests:  int(res.Throughput.Completed),
		ReqPerSec: res.Throughput.PerSecond(),
		P50:       time.Duration(res.Latency.Quantile(0.50) * 1e9),
		P99:       time.Duration(res.Latency.Quantile(0.99) * 1e9),
	}, nil
}

// runLargeRow measures rb.Transfers large-object transfers, each
// rb.LargeOps MTU-sized writes. Batched mode posts the whole transfer
// and rings once; per-fragment mode rings and waits per write — the
// stop-and-wait discipline of the fragmentation path it stands in for.
func runLargeRow(cfg Config, rb RdmaBenchConfig, name string, batched bool) (RdmaRow, error) {
	s := sim.NewWithKernel(cfg.Seed, cfg.Kernel)
	eng := rdma.New(s, rdma.Config{
		Link:         cfg.Testbed.Link,
		PerPacketDMA: 100 * time.Nanosecond,
		MTU:          workloads.MTU,
		DoorbellCost: sim.Time(rb.DoorbellCost),
	})
	size := rb.LargeOps * workloads.MTU
	region, err := eng.Register("large-object", size)
	if err != nil {
		return RdmaRow{}, err
	}
	qp := eng.NewQP(0)
	chunk := make([]byte, workloads.MTU)
	var lat metrics.Sample
	var firstErr error
	start := s.Now()
	for t := 0; t < rb.Transfers; t++ {
		t0 := s.Now()
		onDone := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if batched {
			for op := 0; op < rb.LargeOps; op++ {
				qp.PostWrite(region.Key(), op*workloads.MTU, chunk, onDone)
			}
			qp.RingDoorbell()
			if err := s.RunUntilIdle(); err != nil {
				return RdmaRow{}, err
			}
		} else {
			for op := 0; op < rb.LargeOps; op++ {
				qp.PostWrite(region.Key(), op*workloads.MTU, chunk, onDone)
				qp.RingDoorbell()
				if err := s.RunUntilIdle(); err != nil {
					return RdmaRow{}, err
				}
			}
		}
		if firstErr != nil {
			return RdmaRow{}, fmt.Errorf("rdmabench: %s: %w", name, firstErr)
		}
		lat.AddDuration(s.Now() - t0)
	}
	elapsed := (s.Now() - start).Seconds()
	row := RdmaRow{
		Name:     name,
		Requests: rb.Transfers,
		P50:      time.Duration(lat.Quantile(0.50) * 1e9),
		P99:      time.Duration(lat.Quantile(0.99) * 1e9),
	}
	if elapsed > 0 {
		row.ReqPerSec = float64(rb.Transfers) / elapsed
	}
	return row, nil
}

// RdmaBench runs every kvget and large-transfer scenario in order and
// returns one row per scenario.
func RdmaBench(cfg Config, rb RdmaBenchConfig) ([]RdmaRow, error) {
	var rows []RdmaRow
	for _, c := range rb.Clients {
		row, err := runKVGetRow(cfg, rb, fmt.Sprintf("kvget/lambda/c%d", c), c, -1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	for _, w := range rb.Windows {
		for _, c := range rb.Clients {
			row, err := runKVGetRow(cfg, rb, fmt.Sprintf("kvget/bypass/w%d/c%d", w, c), c, w)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	sizeKiB := rb.LargeOps * workloads.MTU / 1024
	for _, mode := range []struct {
		name    string
		batched bool
	}{
		{fmt.Sprintf("large/doorbell/%dKiB", sizeKiB), true},
		{fmt.Sprintf("large/perfrag/%dKiB", sizeKiB), false},
	} {
		row, err := runLargeRow(cfg, rb, mode.name, mode.batched)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderRdmaBench prints the rows, the bypass-vs-lambda headline per
// client count, and the doorbell amortization ratio.
func RenderRdmaBench(rows []RdmaRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "One-sided RDMA fast path (virtual time)\n")
	fmt.Fprintf(&b, "  %-24s %8s %12s %10s %10s\n", "scenario", "requests", "req/s", "p50", "p99")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %8d %12.0f %10v %10v\n", r.Name, r.Requests, r.ReqPerSec, r.P50, r.P99)
	}
	// Headline: best bypass row vs the lambda baseline at the same
	// client count.
	for _, r := range rows {
		var c int
		if _, err := fmt.Sscanf(r.Name, "kvget/lambda/c%d", &c); err != nil {
			continue
		}
		best := math.Inf(-1)
		for _, s := range rows {
			var w, sc int
			if _, err := fmt.Sscanf(s.Name, "kvget/bypass/w%d/c%d", &w, &sc); err == nil && sc == c {
				if s.ReqPerSec > best {
					best = s.ReqPerSec
				}
			}
		}
		if best > 0 && r.ReqPerSec > 0 {
			fmt.Fprintf(&b, "  c=%d bypass speedup over lambda path: %.2fx\n", c, best/r.ReqPerSec)
		}
	}
	if db, ok1 := firstWithPrefix(rows, "large/doorbell/"); ok1 {
		if pf, ok2 := firstWithPrefix(rows, "large/perfrag/"); ok2 && pf.ReqPerSec > 0 {
			fmt.Fprintf(&b, "  doorbell batching speedup over per-fragment: %.2fx\n",
				db.ReqPerSec/pf.ReqPerSec)
		}
	}
	return b.String()
}

func firstWithPrefix(rows []RdmaRow, prefix string) (RdmaRow, bool) {
	for _, r := range rows {
		if strings.HasPrefix(r.Name, prefix) {
			return r, true
		}
	}
	return RdmaRow{}, false
}
