package gateway

import (
	"maps"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lambdanic/internal/dispatch"
)

// routeTable is one immutable routing snapshot. Entries are shared
// across snapshots: a SetRoute for workload A reuses workload B's
// entry, so B's ring, pins, and flow-rate window survive unrelated
// updates.
type routeTable struct {
	m map[uint32]*workloadRoute
	// inflight holds one in-flight upstream-call counter per worker
	// address that any route names — the rebalancer's default load
	// signal. A worker's counter is shared by every route it serves and
	// is gone with the last of them.
	inflight map[string]*atomic.Int64
}

// newRouteTable indexes the in-flight counters of the given routes.
func newRouteTable(m map[uint32]*workloadRoute) *routeTable {
	rt := &routeTable{m: m, inflight: make(map[string]*atomic.Int64)}
	for _, wr := range m {
		for i, name := range wr.names {
			rt.inflight[name] = wr.inflight[i]
		}
	}
	return rt
}

// workloadRoute is the immutable routing state for one workload: the
// worker set (addresses, their names, their in-flight counters — three
// parallel slices), the seeded consistent-hash ring pinning flows to
// workers, and the standing elephant migrations (flow -> worker index)
// layered on top of the ring. What the entries point at is mutable and
// outlives the snapshot: the in-flight counters and stats, a lock-free
// lossy flow-rate table.
type workloadRoute struct {
	workers  []net.Addr
	names    []string
	inflight []*atomic.Int64
	ring     *dispatch.Ring
	pins     map[uint64]int
	stats    *flowStats
}

// newRoute builds a workload's next route entry over workers. prev is
// the workload's entry in rt, if it has one: its flow-rate window
// carries over. A worker some route in rt already names
// keeps its in-flight counter.
func (rt *routeTable) newRoute(workers []net.Addr, pins map[uint64]int, prev *workloadRoute) *workloadRoute {
	wr := &workloadRoute{
		workers:  workers,
		names:    make([]string, len(workers)),
		inflight: make([]*atomic.Int64, len(workers)),
		pins:     pins,
	}
	for i, w := range workers {
		wr.names[i] = w.String()
		if wr.inflight[i] = rt.inflight[wr.names[i]]; wr.inflight[i] == nil {
			wr.inflight[i] = new(atomic.Int64)
		}
	}
	wr.ring = dispatch.NewRing(wr.names, DefaultRingSeed, 0)
	if prev != nil {
		wr.stats = prev.stats
	} else {
		wr.stats = newFlowStats()
	}
	return wr
}

// ownerIndex is the worker index a flow is pinned to: a standing
// migration wins, otherwise the ring decides.
func (wr *workloadRoute) ownerIndex(flow uint64) int {
	if idx, ok := wr.pins[flow]; ok && idx >= 0 && idx < len(wr.workers) {
		return idx
	}
	return wr.ring.Pick(flow)
}

// failoverOrder is the deterministic retry order after the owner
// failed: the flow's ring successors, skipping the failed owner. Every
// gateway computes the same order, so a pinned flow re-pins to the same
// live successor everywhere instead of scattering.
func (wr *workloadRoute) failoverOrder(flow uint64, owner int) []int {
	succ := wr.ring.Successors(flow, len(wr.workers))
	out := make([]int, 0, len(succ))
	for _, s := range succ {
		if s != owner {
			out = append(out, s)
		}
	}
	return out
}

// pinnedFlows counts standing migrations.
func (wr *workloadRoute) pinnedFlows() int { return len(wr.pins) }

// flowStats is a fixed-size, lock-free, lossy per-flow rate table — the
// sliding-window sketch feeding elephant detection. The request path
// records with at most flowProbes CAS/add operations and never blocks;
// the rebalancer scans and decays it once per tick. Collisions drop
// samples (lossy), which only ever under-counts a flow — an elephant
// generates so many samples it cannot stay hidden.
type flowStats struct {
	slots [flowSlots]flowSlot
}

type flowSlot struct {
	key  atomic.Uint64
	hits atomic.Uint64
}

const (
	flowSlots  = 1024 // power of two
	flowProbes = 4
)

func newFlowStats() *flowStats { return &flowStats{} }

// observe records one request for the flow (flow 0 is never tracked).
func (fs *flowStats) observe(flow uint64) {
	if flow == 0 {
		return
	}
	idx := int(flow>>32^flow) & (flowSlots - 1)
	for p := 0; p < flowProbes; p++ {
		slot := &fs.slots[(idx+p)&(flowSlots-1)]
		k := slot.key.Load()
		if k == flow {
			slot.hits.Add(1)
			return
		}
		if k == 0 && slot.key.CompareAndSwap(0, flow) {
			slot.hits.Add(1)
			return
		}
	}
	// All probe slots taken by other flows: drop the sample.
}

// decay halves every count and frees dead slots — the sliding window.
// Races with concurrent observes can lose a sample; the window is a
// heuristic, not an invariant.
func (fs *flowStats) decay() {
	for i := range fs.slots {
		slot := &fs.slots[i]
		if slot.key.Load() == 0 {
			continue
		}
		h := slot.hits.Load() >> 1
		slot.hits.Store(h)
		if h == 0 {
			slot.key.Store(0)
		}
	}
}

// topK returns the k heaviest tracked flows, deterministic order.
func (fs *flowStats) topK(k int) []dispatch.HeavyFlow {
	if k <= 0 {
		return nil
	}
	var all []dispatch.HeavyFlow
	for i := range fs.slots {
		slot := &fs.slots[i]
		key := slot.key.Load()
		if key == 0 {
			continue
		}
		if h := slot.hits.Load(); h > 0 {
			all = append(all, dispatch.HeavyFlow{Flow: key, Rate: h})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Rate != all[b].Rate {
			return all[a].Rate > all[b].Rate
		}
		return all[a].Flow < all[b].Flow
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// RebalanceConfig parameterizes the elephant-flow rebalancer.
type RebalanceConfig struct {
	// Every is the tick period (default 1s).
	Every time.Duration
	// TopK bounds how many elephants per workload are considered each
	// tick (default 8).
	TopK int
	// ImbalanceRatio is the overload threshold: a worker whose load
	// exceeds ratio × the mean triggers migration of its elephants
	// (default 1.5).
	ImbalanceRatio float64
	// Loads supplies per-worker load, keyed by worker address string.
	// Nil falls back to the gateway's own per-worker in-flight counts;
	// deployments wire healthd's EWMA-smoothed snapshot here.
	Loads func() []dispatch.Load
}

func (c RebalanceConfig) withDefaults() RebalanceConfig {
	if c.Every <= 0 {
		c.Every = time.Second
	}
	if c.TopK <= 0 {
		c.TopK = 8
	}
	if c.ImbalanceRatio <= 1 {
		c.ImbalanceRatio = 1.5
	}
	return c
}

// rebalancer is the gateway's background migration loop.
type rebalancer struct {
	cfg  RebalanceConfig
	stop chan struct{}
	once sync.Once
}

// StartRebalancer launches the elephant-flow migration loop and returns
// a stop function. Each tick it reads the load report, finds workloads
// whose owner workers are overloaded, migrates their top-k elephant
// flows to underloaded workers, and rolls the rate window. Mice are
// never touched. Calling it twice replaces nothing — the second call
// returns a no-op stop and leaves the first loop running.
func (g *Gateway) StartRebalancer(cfg RebalanceConfig) (stop func()) {
	cfg = cfg.withDefaults()
	g.mu.Lock()
	if g.reb != nil {
		g.mu.Unlock()
		return func() {}
	}
	r := &rebalancer{cfg: cfg, stop: make(chan struct{})}
	g.reb = r
	g.mu.Unlock()
	go func() {
		t := time.NewTicker(cfg.Every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				g.RebalanceOnce(cfg)
			case <-r.stop:
				return
			}
		}
	}()
	return func() {
		r.once.Do(func() { close(r.stop) })
		g.mu.Lock()
		if g.reb == r {
			g.reb = nil
		}
		g.mu.Unlock()
	}
}

// RebalanceOnce runs one rebalance tick synchronously and returns the
// number of migrations applied (exposed for tests and lnicctl).
func (g *Gateway) RebalanceOnce(cfg RebalanceConfig) int {
	cfg = cfg.withDefaults()
	var report []dispatch.Load
	if cfg.Loads != nil {
		report = cfg.Loads()
	}
	rt := g.routes.Load()
	ids := make([]uint32, 0, len(rt.m))
	for id := range rt.m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	applied := 0
	for _, id := range ids {
		wr := rt.m[id]
		if len(wr.workers) < 2 {
			wr.stats.decay()
			continue
		}
		elephants := wr.stats.topK(cfg.TopK)
		if len(elephants) > 0 {
			loads := wr.loads(report)
			owner := func(f uint64) string { return wr.names[wr.ownerIndex(f)] }
			plan := dispatch.Plan(loads, elephants, owner, cfg.ImbalanceRatio)
			applied += g.applyMigrations(id, plan)
		}
		wr.stats.decay()
	}
	return applied
}

// loads assembles the load vector for the workload's workers: the
// external report where present, the gateway's own in-flight count
// otherwise.
func (wr *workloadRoute) loads(report []dispatch.Load) []dispatch.Load {
	byName := make(map[string]float64, len(report))
	for _, l := range report {
		byName[l.Worker] = l.Load
	}
	out := make([]dispatch.Load, len(wr.workers))
	for i, name := range wr.names {
		load, ok := byName[name]
		if !ok {
			load = float64(wr.inflight[i].Load())
		}
		out[i] = dispatch.Load{Worker: name, Load: load}
	}
	return out
}

// applyMigrations installs standing pins for the planned migrations via
// a copy-on-write rebuild of the workload's route entry. Migrations
// whose target left the route between planning and application are
// skipped. Returns the number applied.
func (g *Gateway) applyMigrations(id uint32, plan []dispatch.Migration) int {
	if len(plan) == 0 {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.routes.Load()
	wr := old.m[id]
	if wr == nil {
		return 0
	}
	pins := make(map[uint64]int, len(wr.pins)+len(plan))
	maps.Copy(pins, wr.pins)
	applied := 0
	for _, mig := range plan {
		to := slices.Index(wr.names, mig.To)
		if to < 0 {
			continue
		}
		// A migration landing the flow back on its ring owner is just an
		// unpin: drop the override instead of storing a redundant pin.
		if wr.ring.Pick(mig.Flow) == to {
			if _, had := pins[mig.Flow]; had {
				delete(pins, mig.Flow)
				applied++
			}
			continue
		}
		if cur, had := pins[mig.Flow]; had && cur == to {
			continue
		}
		pins[mig.Flow] = to
		applied++
	}
	if applied == 0 {
		return 0
	}
	repinned := *wr
	repinned.pins = pins
	next := maps.Clone(old.m)
	next[id] = &repinned
	g.routes.Store(newRouteTable(next))
	g.migrations.Add(uint64(applied))
	return applied
}

// Migrations returns the total elephant-flow migrations applied.
func (g *Gateway) Migrations() uint64 { return g.migrations.Load() }

// PinnedFlows counts standing migrations across all workloads — flows
// currently pinned somewhere other than their ring owner.
func (g *Gateway) PinnedFlows() int {
	rt := g.routes.Load()
	n := 0
	for _, wr := range rt.m {
		n += wr.pinnedFlows()
	}
	return n
}
