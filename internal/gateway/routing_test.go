package gateway

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"lambdanic/internal/dispatch"
	"lambdanic/internal/transport"
)

func TestFlowStatsObserveAndTopK(t *testing.T) {
	fs := newFlowStats()
	for i := 0; i < 100; i++ {
		fs.observe(7)
	}
	for i := 0; i < 10; i++ {
		fs.observe(8)
	}
	fs.observe(9)
	top := fs.topK(2)
	if len(top) != 2 || top[0].Flow != 7 || top[1].Flow != 8 {
		t.Fatalf("topK = %+v", top)
	}
	if top[0].Rate != 100 {
		t.Fatalf("rate = %d, want 100", top[0].Rate)
	}
}

func TestFlowStatsDecayReclaims(t *testing.T) {
	fs := newFlowStats()
	fs.observe(5)
	fs.decay()
	if got := fs.topK(8); len(got) != 0 {
		t.Fatalf("one-shot flow survived decay: %+v", got)
	}
	// An elephant decays but survives.
	for i := 0; i < 64; i++ {
		fs.observe(6)
	}
	fs.decay()
	top := fs.topK(1)
	if len(top) != 1 || top[0].Flow != 6 || top[0].Rate != 32 {
		t.Fatalf("elephant after decay = %+v", top)
	}
}

func TestFlowStatsZeroFlowIgnored(t *testing.T) {
	fs := newFlowStats()
	fs.observe(0)
	if got := fs.topK(8); len(got) != 0 {
		t.Fatalf("flow 0 tracked: %+v", got)
	}
}

// TestRebalancerMigratesElephant: an elephant flow on an overloaded
// worker is migrated to an underloaded one; subsequent requests honor
// the new pin; mice stay put.
func TestRebalancerMigratesElephant(t *testing.T) {
	n := transport.NewMemNetwork(43)
	names := []string{"w1", "w2", "w3"}
	workers := make([]net.Addr, len(names))
	for i, name := range names {
		echoWorker(t, n, name)
		workers[i] = transport.MemAddr(name)
	}
	gw := newGateway(t, n)
	gw.SetRoute(1, workers)

	// The elephant: one hot client flow.
	hot := testClient(t, n)
	ctx := context.Background()
	var before string
	for i := 0; i < 50; i++ {
		resp, err := hot.Call(ctx, transport.MemAddr("gw"), 1, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		before, _, _ = strings.Cut(string(resp), ":")
	}

	// Load report: the elephant's current owner is overloaded.
	loads := func() []dispatch.Load {
		out := make([]dispatch.Load, len(names))
		for i, name := range names {
			load := 1.0
			if name == before {
				load = 100
			}
			out[i] = dispatch.Load{Worker: name, Load: load}
		}
		return out
	}
	applied := gw.RebalanceOnce(RebalanceConfig{TopK: 4, ImbalanceRatio: 1.5, Loads: loads})
	if applied == 0 {
		t.Fatal("rebalance applied no migrations")
	}
	if gw.Migrations() == 0 || gw.PinnedFlows() == 0 {
		t.Fatalf("Migrations = %d, PinnedFlows = %d", gw.Migrations(), gw.PinnedFlows())
	}

	resp, err := hot.Call(ctx, transport.MemAddr("gw"), 1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	after, _, _ := strings.Cut(string(resp), ":")
	if after == before {
		t.Fatalf("elephant still on overloaded worker %s after migration", after)
	}
}

// TestRebalancerBalancedFleetNoops: with even load, nothing migrates.
func TestRebalancerBalancedFleetNoops(t *testing.T) {
	n := transport.NewMemNetwork(47)
	names := []string{"w1", "w2"}
	workers := make([]net.Addr, len(names))
	for i, name := range names {
		echoWorker(t, n, name)
		workers[i] = transport.MemAddr(name)
	}
	gw := newGateway(t, n)
	gw.SetRoute(1, workers)
	cli := testClient(t, n)
	for i := 0; i < 30; i++ {
		if _, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	loads := func() []dispatch.Load {
		return []dispatch.Load{{Worker: "w1", Load: 5}, {Worker: "w2", Load: 5}}
	}
	if applied := gw.RebalanceOnce(RebalanceConfig{Loads: loads}); applied != 0 {
		t.Fatalf("balanced fleet migrated %d flows", applied)
	}
	if gw.PinnedFlows() != 0 {
		t.Fatalf("PinnedFlows = %d, want 0", gw.PinnedFlows())
	}
}

// TestEvictDropsPinsToEvictedWorker: a pin whose target is evicted is
// dropped (the flow reverts to its ring owner); pins to survivors are
// remapped and keep working.
func TestEvictDropsPinsToEvictedWorker(t *testing.T) {
	n := transport.NewMemNetwork(53)
	names := []string{"w1", "w2", "w3"}
	workers := make([]net.Addr, len(names))
	for i, name := range names {
		echoWorker(t, n, name)
		workers[i] = transport.MemAddr(name)
	}
	gw := newGateway(t, n)
	gw.SetRoute(1, workers)

	wr := gw.routes.Load().m[1]
	flow := dispatch.FlowKey("client", 1)
	owner := wr.ownerIndex(flow)
	target := (owner + 1) % len(names)
	gw.applyMigrations(1, []dispatch.Migration{{Flow: flow, From: names[owner], To: names[target]}})
	if gw.PinnedFlows() != 1 {
		t.Fatalf("PinnedFlows = %d, want 1", gw.PinnedFlows())
	}

	gw.EvictWorker(workers[target])
	if gw.PinnedFlows() != 0 {
		t.Fatalf("pin to evicted worker survived: PinnedFlows = %d", gw.PinnedFlows())
	}
	// The flow now routes by ring over the survivors — never to the
	// evicted target.
	cli := testClient(t, n)
	resp, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := strings.Cut(string(resp), ":")
	if got == names[target] {
		t.Fatalf("flow routed to evicted worker %s", got)
	}
}

// TestStartRebalancerLifecycle: the background loop runs, migrates
// under skew, and stops cleanly; a second start is a no-op.
func TestStartRebalancerLifecycle(t *testing.T) {
	n := transport.NewMemNetwork(59)
	names := []string{"w1", "w2"}
	workers := make([]net.Addr, len(names))
	for i, name := range names {
		echoWorker(t, n, name)
		workers[i] = transport.MemAddr(name)
	}
	gw := newGateway(t, n)
	gw.SetRoute(1, workers)

	hot := testClient(t, n)
	ctx := context.Background()
	var ownerName string
	for i := 0; i < 40; i++ {
		resp, err := hot.Call(ctx, transport.MemAddr("gw"), 1, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		ownerName, _, _ = strings.Cut(string(resp), ":")
	}
	loads := func() []dispatch.Load {
		out := make([]dispatch.Load, len(names))
		for i, name := range names {
			load := 1.0
			if name == ownerName {
				load = 50
			}
			out[i] = dispatch.Load{Worker: name, Load: load}
		}
		return out
	}
	stop := gw.StartRebalancer(RebalanceConfig{Every: 5 * time.Millisecond, Loads: loads})
	stop2 := gw.StartRebalancer(RebalanceConfig{Every: time.Hour})
	stop2() // no-op: first loop keeps running
	deadline := time.Now().Add(2 * time.Second)
	for gw.Migrations() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	if gw.Migrations() == 0 {
		t.Fatal("background rebalancer never migrated the elephant")
	}
}

// TestLoadsForFallsBackToInflight: workers missing from the load report
// use the gateway's own in-flight counts, which are per worker, not per
// route: a call in flight on one workload's route shows in the load of
// every workload that worker serves, across route updates.
func TestLoadsForFallsBackToInflight(t *testing.T) {
	n := transport.NewMemNetwork(61)
	gw := newGateway(t, n)
	addrs := []net.Addr{transport.MemAddr("a"), transport.MemAddr("b")}
	gw.SetRoute(1, addrs)
	gw.SetRoute(2, addrs[:1])
	gw.routes.Load().m[2].inflight[0].Add(3) // three calls in flight to "a" for workload 2
	gw.SetRoute(1, []net.Addr{addrs[1], addrs[0]})
	wr := gw.routes.Load().m[1]
	byName := map[string]float64{}
	for _, l := range wr.loads([]dispatch.Load{{Worker: "b", Load: 9}}) {
		byName[l.Worker] = l.Load
	}
	if byName["a"] != 3 || byName["b"] != 9 {
		t.Fatalf("loads = %v, want a:3 (inflight fallback), b:9 (report)", byName)
	}
}

// TestRouteChurnKeepsLiveWorkersOnly: per-worker state is owned by the
// route snapshot, so it goes when the last route naming the worker goes.
// 1 000 rounds of routing fresh addresses and then dropping them — by
// eviction, by replacing the route, by removing it — leave counters for
// the one worker still routed, and that worker kept the same counter
// throughout.
func TestRouteChurnKeepsLiveWorkersOnly(t *testing.T) {
	n := transport.NewMemNetwork(67)
	gw := newGateway(t, n)
	live := transport.MemAddr("live")
	gw.SetRoute(1, []net.Addr{live})
	counter := gw.routes.Load().inflight["live"]
	for round := 0; round < 1000; round++ {
		fresh := transport.MemAddr(fmt.Sprintf("w%d", round))
		gw.SetRoute(2, []net.Addr{live, fresh})
		gw.SetRoute(3, []net.Addr{fresh})
		if got := gw.LiveWorkers(); got != 2 {
			t.Fatalf("round %d: LiveWorkers = %d, want 2", round, got)
		}
		if round%2 == 0 {
			if removed := gw.EvictWorker(fresh); removed != 2 {
				t.Fatalf("round %d: evicted from %d routes, want 2", round, removed)
			}
		} else {
			gw.SetRoute(2, []net.Addr{live})
			gw.SetRoute(3, nil)
		}
	}
	rt := gw.routes.Load()
	if len(rt.inflight) != 1 || rt.inflight["live"] != counter {
		t.Errorf("after churn the table holds %d worker counters, want only the live worker's original", len(rt.inflight))
	}
	for id, wr := range rt.m {
		if len(wr.inflight) != 1 || wr.inflight[0] != counter {
			t.Errorf("route %d does not share the live worker's counter", id)
		}
	}
	if got := gw.LiveWorkers(); got != 1 {
		t.Errorf("LiveWorkers = %d, want 1", got)
	}
}
