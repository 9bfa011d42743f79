package monitor

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Target is one scrapeable daemon: the nic label it contributes to the
// fleet view, and its monitoring-engine HTTP endpoint.
type Target struct {
	// Nic names the node in fleet output (m2, m3, gateway).
	Nic string
	// URL is the exposition endpoint (http://host:port/).
	URL string
}

// ParseTargets parses a comma-separated "nic=url,nic=url" flag value.
// A bare "url" entry gets its nic label from the URL's host part.
func ParseTargets(spec string) ([]Target, error) {
	var out []Target
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		nic, url, ok := strings.Cut(part, "=")
		if !ok {
			url = part
			nic = strings.TrimPrefix(strings.TrimPrefix(part, "http://"), "https://")
		}
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		out = append(out, Target{Nic: nic, URL: url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("monitor: no scrape targets in %q", spec)
	}
	return out, nil
}

// TargetScrape is one target's parsed page (or its scrape error).
type TargetScrape struct {
	Target
	Err    error
	Scrape Scrape
}

// FleetSnapshot is every target scraped at (roughly) one instant.
type FleetSnapshot struct {
	Scrapes []TargetScrape
}

// Collector pulls the fleet's registries over their existing HTTP
// surfaces. The zero value is not ready — use NewCollector.
type Collector struct {
	targets []Target
	client  *http.Client
}

// NewCollector builds a collector over the given targets.
func NewCollector(targets []Target) *Collector {
	return &Collector{
		targets: targets,
		client:  &http.Client{Timeout: 5 * time.Second},
	}
}

func (c *Collector) fetch(ctx context.Context, url string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("monitor: scrape %s: HTTP %d", url, resp.StatusCode)
	}
	return resp.Body, nil
}

// Collect scrapes every target concurrently. Per-target failures are
// recorded, not fatal: a dead worker must not blind the fleet view.
func (c *Collector) Collect(ctx context.Context) FleetSnapshot {
	snap := FleetSnapshot{Scrapes: make([]TargetScrape, len(c.targets))}
	var wg sync.WaitGroup
	for i, t := range c.targets {
		wg.Add(1)
		go func(i int, t Target) {
			defer wg.Done()
			snap.Scrapes[i] = c.scrapeOne(ctx, t)
		}(i, t)
	}
	wg.Wait()
	return snap
}

func (c *Collector) scrapeOne(ctx context.Context, t Target) TargetScrape {
	ts := TargetScrape{Target: t}
	body, err := c.fetch(ctx, t.URL)
	if err != nil {
		ts.Err = err
		return ts
	}
	defer body.Close()
	ts.Scrape, ts.Err = ParseExposition(body)
	return ts
}

// FleetRow is one (nic, workload) line of the fleet view, computed
// from the delta between two snapshots.
type FleetRow struct {
	Nic      string `json:"nic"`
	Workload string `json:"workload"` // "" for the node-wide row
	// Tenant is the owning tenant when the scraped series carries a
	// tenant label ("" otherwise).
	Tenant   string `json:"tenant,omitempty"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// Shed counts requests dropped before execution: worker/gateway
	// pool drops on node rows, admission throttles on tenant rows.
	Shed     uint64  `json:"shed"`
	RatePerS float64 `json:"rate_per_sec"`
	// Bypass counts requests served by the one-sided fast path (no
	// lambda invocation); BypassPerS is its rate over the window.
	Bypass     uint64  `json:"bypass,omitempty"`
	BypassPerS float64 `json:"bypass_per_sec,omitempty"`
	// Flows is the gateway's standing pinned-flow count (elephant
	// migrations in effect) — a gauge, so the current value rather than
	// a delta. Worker rows report zero.
	Flows uint64 `json:"flows,omitempty"`
	// WarmPct is the worker's warm-state hit rate over the window (0
	// when the node tracked no lookups). HasWarm distinguishes a real
	// 0% hit rate from "not a worker / tracking disabled".
	WarmPct float64 `json:"warm_pct,omitempty"`
	HasWarm bool    `json:"has_warm,omitempty"`
	// Place is the placement engine's current side for the workload
	// (HOST, NIC, or MIG while a migration is draining), from the
	// lnic_placement_state gauge; "" when the node runs no engine.
	Place string `json:"place,omitempty"`
	// Migrations is the node's completed boundary-migration count
	// (lnic_placement_migrations_total, a lifetime total on the node
	// row — placement moves are rare events, so the standing count
	// reads better than a per-window delta).
	Migrations uint64  `json:"migrations,omitempty"`
	P50        float64 `json:"p50_seconds"`
	P99        float64 `json:"p99_seconds"`
}

// latencyFamilies maps a scraped histogram family to the workload
// label the fleet view groups by. The node-wide families carry no
// workload label; the per-workload family carries one.
var latencyFamilies = map[string]bool{
	"lnic_worker_latency_seconds":           true,
	"lnic_worker_workload_latency_seconds":  true,
	"lnic_gateway_upstream_latency_seconds": true,
}

// errorFamilies are the per-node counters summed into each node-wide
// row's error column.
var errorFamilies = []string{
	"lnic_worker_errors_total",
	"lnic_gateway_upstream_errors_total",
}

// shedFamilies are the per-node pre-execution drop counters summed into
// each node-wide row's shed column.
var shedFamilies = []string{
	"lnic_worker_pool_drops_total",
	"lnic_gateway_pool_drops_total",
	"lnic_gateway_tenant_throttled_total",
}

// tenantShedFamily is the gateway's per-tenant admission shed counter;
// each tenant-labeled series becomes an "(admission)" row.
const tenantShedFamily = "lnic_gateway_tenant_shed_total"

// bypassFamily is the worker's per-workload one-sided fast-path
// counter, surfaced as the fleet view's 1SIDED/S column.
const bypassFamily = "lnic_worker_bypass_total"

// Flow-affinity families: the gateway's standing-pin gauge and the
// worker's warm-state counters, surfaced as FLOWS and WARM%.
const (
	pinnedFlowsFamily = "lnic_gateway_pinned_flows"
	warmHitsFamily    = "lnic_worker_warm_hits_total"
	warmLookupsFamily = "lnic_worker_warm_lookups_total"
)

// Placement families: the engine's per-workload side gauge and the
// node's completed-migration counter, surfaced as PLACE and MIG.
const (
	placementStateFamily      = "lnic_placement_state"
	placementMigrationsFamily = "lnic_placement_migrations_total"
)

// placeName decodes the lnic_placement_state gauge (the
// placement.Location enum) into the fleet view's PLACE column.
func placeName(v float64) string {
	switch int(v) {
	case 0:
		return "HOST"
	case 1:
		return "NIC"
	case 2:
		return "MIG"
	default:
		return "?"
	}
}

// targetDelta pairs one target's current scrape with the same target's
// previous one: the interval every fleet view reads. prev is the empty
// scrape when the target has no usable previous page, so every counter
// and histogram counts from zero.
type targetDelta struct {
	Target
	err       error
	cur, prev Scrape
}

// pairScrapes pairs each target in cur with its scrape in prev.
func pairScrapes(prev, cur FleetSnapshot) []targetDelta {
	prevByNic := map[string]TargetScrape{}
	for _, ts := range prev.Scrapes {
		prevByNic[ts.Nic] = ts
	}
	out := make([]targetDelta, 0, len(cur.Scrapes))
	for _, ts := range cur.Scrapes {
		d := targetDelta{Target: ts.Target, err: ts.Err, cur: ts.Scrape}
		if p, ok := prevByNic[ts.Nic]; ok && p.Err == nil {
			d.prev = p.Scrape
		}
		out = append(out, d)
	}
	return out
}

// counter returns how much one counter series grew over the interval.
func (d targetDelta) counter(fam string, labels map[string]string) uint64 {
	curV, ok := d.cur.Value(fam, labels)
	if !ok {
		return 0
	}
	prevV, _ := d.prev.Value(fam, labels)
	if curV > prevV {
		return uint64(curV - prevV)
	}
	return 0
}

// latency returns every latency-family member on the current page,
// each holding only the observations made over the interval.
func (d targetDelta) latency() []ScrapedHistogram {
	prev := map[string]HistogramSnapshot{}
	for _, h := range d.prev.Histograms() {
		prev[h.Name+renderLabels(h.Labels)] = h.HistogramSnapshot
	}
	var out []ScrapedHistogram
	for _, h := range d.cur.Histograms() {
		if !latencyFamilies[h.Name] {
			continue
		}
		if p, ok := prev[h.Name+renderLabels(h.Labels)]; ok {
			h.HistogramSnapshot = h.Sub(p)
		}
		out = append(out, h)
	}
	return out
}

// FleetRows computes the per-(nic, workload) view from the delta
// between two snapshots taken `elapsed` apart. Targets that failed in
// either snapshot contribute an error row with no numbers.
func FleetRows(prev, cur FleetSnapshot, elapsed time.Duration) []FleetRow {
	var rows []FleetRow
	for _, d := range pairScrapes(prev, cur) {
		if d.err != nil {
			rows = append(rows, FleetRow{Nic: d.Nic, Workload: "(scrape failed)"})
			continue
		}
		var nodeErrs, nodeShed uint64
		for _, fam := range errorFamilies {
			nodeErrs += d.counter(fam, nil)
		}
		for _, fam := range shedFamilies {
			nodeShed += d.counter(fam, nil)
		}
		for _, h := range d.latency() {
			row := FleetRow{
				Nic:      d.Nic,
				Workload: h.Labels["workload"],
				Tenant:   h.Labels["tenant"],
				Requests: h.Count,
				P50:      h.Quantile(0.50),
				P99:      h.Quantile(0.99),
			}
			if row.Workload == "" {
				row.Errors = nodeErrs
				row.Shed = nodeShed
				// FLOWS: the gateway's standing pins, a gauge — report the
				// current value, not a delta.
				if pins, ok := d.cur.Value(pinnedFlowsFamily, nil); ok && pins > 0 {
					row.Flows = uint64(pins)
				}
				// WARM%: worker warm hits over lookups within the window.
				if lookups := d.counter(warmLookupsFamily, nil); lookups > 0 {
					row.HasWarm = true
					row.WarmPct = 100 * float64(d.counter(warmHitsFamily, nil)) / float64(lookups)
				}
				// MIG: the node's lifetime boundary-migration count.
				if migs, ok := d.cur.Value(placementMigrationsFamily, nil); ok && migs > 0 {
					row.Migrations = uint64(migs)
				}
			} else {
				row.Bypass = d.counter(bypassFamily, h.Labels)
				// PLACE: which side of the NIC/host boundary the engine
				// currently runs this workload on.
				if st, ok := d.cur.Value(placementStateFamily,
					map[string]string{"workload": row.Workload}); ok {
					row.Place = placeName(st)
				}
			}
			if elapsed > 0 {
				row.RatePerS = float64(h.Count) / elapsed.Seconds()
				row.BypassPerS = float64(row.Bypass) / elapsed.Seconds()
			}
			rows = append(rows, row)
		}
		// Per-tenant admission sheds become their own rows so a
		// tenant-filtered view still shows what the gateway dropped.
		for _, sm := range d.cur.Samples {
			if sm.Name != tenantShedFamily || sm.Labels["tenant"] == "" {
				continue
			}
			rows = append(rows, FleetRow{
				Nic:      d.Nic,
				Workload: "(admission)",
				Tenant:   sm.Labels["tenant"],
				Shed:     d.counter(tenantShedFamily, sm.Labels),
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Nic != rows[j].Nic {
			return rows[i].Nic < rows[j].Nic
		}
		return rows[i].Workload < rows[j].Workload
	})
	return rows
}

// FilterTenant keeps the rows owned by one tenant (plus scrape-failure
// rows, which must never be hidden by a filter).
func FilterTenant(rows []FleetRow, tenantName string) []FleetRow {
	if tenantName == "" {
		return rows
	}
	out := make([]FleetRow, 0, len(rows))
	for _, r := range rows {
		if r.Tenant == tenantName || r.Workload == "(scrape failed)" {
			out = append(out, r)
		}
	}
	return out
}

// RenderTop renders the fleet rows as the lnicctl top table.
func RenderTop(rows []FleetRow, elapsed time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet view over %s\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-10s %-18s %-10s %-5s %9s %8s %8s %10s %10s %6s %6s %5s %10s %10s\n",
		"NIC", "WORKLOAD", "TENANT", "PLACE", "REQS", "ERRS", "SHED", "REQ/S", "1SIDED/S", "FLOWS", "WARM%", "MIG", "P50", "P99")
	for _, r := range rows {
		if r.Workload == "(scrape failed)" {
			fmt.Fprintf(&b, "%-10s %-18s %s\n", r.Nic, "-", "scrape failed")
			continue
		}
		wl := r.Workload
		if wl == "" {
			wl = "(node)"
		}
		ten := r.Tenant
		if ten == "" {
			ten = "-"
		}
		place := r.Place
		if place == "" {
			place = "-"
		}
		warm := "-"
		if r.HasWarm {
			warm = fmt.Sprintf("%.1f", r.WarmPct)
		}
		fmt.Fprintf(&b, "%-10s %-18s %-10s %-5s %9d %8d %8d %10.1f %10.1f %6d %6s %5d %10s %10s\n",
			r.Nic, wl, ten, place, r.Requests, r.Errors, r.Shed, r.RatePerS, r.BypassPerS,
			r.Flows, warm, r.Migrations, fmtSeconds(r.P50), fmtSeconds(r.P99))
	}
	return b.String()
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// FleetSLO grades scraped deltas against objectives and returns one
// status per objective. With tenant == "" it grades the fleet: latency
// from the merged node-wide histograms, and the error counters are the
// bad events. With a tenant name it grades that tenant's traffic:
// latency from its labelled per-workload histograms, and the gateway's
// admission sheds for it are the bad events — the question it answers
// is "did this tenant's admitted traffic meet its objectives, and how
// much was turned away".
func FleetSLO(prev, cur FleetSnapshot, objectives []Objective, tenant string) ([]ObjectiveStatus, error) {
	var good, bad uint64
	var merged HistogramSnapshot
	for _, d := range pairScrapes(prev, cur) {
		if d.err != nil {
			continue
		}
		if tenant == "" {
			for _, fam := range errorFamilies {
				bad += d.counter(fam, nil)
			}
		} else {
			bad += d.counter(tenantShedFamily, map[string]string{"tenant": tenant})
		}
		for _, h := range d.latency() {
			// Node-wide families only for the fleet: the per-workload
			// family would double-count every request.
			keep := h.Labels["workload"] == ""
			if tenant != "" {
				keep = h.Labels["tenant"] == tenant
			}
			if keep {
				good += h.Count
				merged.Merge(h.HistogramSnapshot)
			}
		}
	}
	total := good + bad
	out := make([]ObjectiveStatus, 0, len(objectives))
	for _, o := range objectives {
		if err := o.validate(); err != nil {
			return nil, err
		}
		frac := 1.0
		switch o.Kind {
		case ObjectiveAvailability:
			if total > 0 {
				frac = float64(good) / float64(total)
			}
		case ObjectiveLatency:
			frac = merged.FracAtOrBelow(o.Threshold.Seconds())
		}
		out = append(out, o.Grade(frac))
	}
	return out, nil
}

// RenderSLO renders objective statuses as the lnicctl slo table.
func RenderSLO(statuses []ObjectiveStatus, elapsed time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet SLO over %s\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-24s %-13s %8s %10s %10s %6s\n",
		"OBJECTIVE", "KIND", "TARGET", "GOOD", "BURN", "MET")
	for _, s := range statuses {
		met := "no"
		if s.Met {
			met = "yes"
		}
		fmt.Fprintf(&b, "%-24s %-13s %7.4g%% %9.4f%% %9.2fx %6s\n",
			s.Name, s.kindLabel(), s.Target*100, s.GoodFraction*100, s.BurnRate, met)
	}
	return b.String()
}
