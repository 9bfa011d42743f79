package monitor

import (
	"context"
	"strings"
	"testing"
	"time"
)

// tenantFleet populates the fixture with tenant-labeled workload
// series on the worker and per-tenant shed series on the gateway, then
// drives one delta window: 50 fast interactive requests, 50 slow batch
// requests, 30 batch sheds.
func tenantFleet(t *testing.T) (prev, cur FleetSnapshot) {
	t.Helper()
	c, worker, gatewayReg := fleetFixture(t)

	vip := NewHistogram()
	if err := vip.Expose(worker, "lnic_worker_workload_latency_seconds", "latency",
		map[string]string{"workload": "web_server", "tenant": "vip"}); err != nil {
		t.Fatal(err)
	}
	bulk := NewHistogram()
	if err := bulk.Expose(worker, "lnic_worker_workload_latency_seconds", "latency",
		map[string]string{"workload": "batch_sweep", "tenant": "bulk"}); err != nil {
		t.Fatal(err)
	}
	throttled := gatewayReg.MustCounter("lnic_gateway_tenant_throttled_total", "sheds", nil)
	bulkShed := gatewayReg.MustCounter("lnic_gateway_tenant_shed_total", "sheds",
		map[string]string{"tenant": "bulk"})
	gatewayReg.MustCounter("lnic_gateway_tenant_shed_total", "sheds",
		map[string]string{"tenant": "vip"})

	prev = NewCollectorSnapshot(t, c)
	for i := 0; i < 50; i++ {
		vip.ObserveDuration(time.Millisecond)
		bulk.ObserveDuration(50 * time.Millisecond)
	}
	throttled.Add(30)
	bulkShed.Add(30)
	cur = NewCollectorSnapshot(t, c)
	return prev, cur
}

// NewCollectorSnapshot collects one snapshot, failing the test on any
// per-target scrape error.
func NewCollectorSnapshot(t *testing.T, c *Collector) FleetSnapshot {
	t.Helper()
	snap := c.Collect(context.Background())
	for _, ts := range snap.Scrapes {
		if ts.Err != nil {
			t.Fatalf("scrape %s: %v", ts.Nic, ts.Err)
		}
	}
	return snap
}

func TestFleetRowsCarryTenantAndShed(t *testing.T) {
	prev, cur := tenantFleet(t)
	rows := FleetRows(prev, cur, 10*time.Second)

	byKey := map[string]FleetRow{}
	for _, r := range rows {
		byKey[r.Nic+"/"+r.Workload+"/"+r.Tenant] = r
	}
	if r := byKey["m2/web_server/vip"]; r.Requests != 50 {
		t.Errorf("vip row = %+v", r)
	}
	if r := byKey["m2/batch_sweep/bulk"]; r.Requests != 50 {
		t.Errorf("bulk row = %+v", r)
	}
	// The gateway's node-wide shed sum and the per-tenant admission row.
	if r := byKey["gateway/(admission)/bulk"]; r.Shed != 30 {
		t.Errorf("bulk admission row = %+v", r)
	}
	if r := byKey["gateway/(admission)/vip"]; r.Shed != 0 {
		t.Errorf("vip admission row = %+v", r)
	}

	top := RenderTop(rows, 10*time.Second)
	if !strings.Contains(top, "TENANT") || !strings.Contains(top, "SHED") {
		t.Errorf("top header missing tenant/shed columns:\n%s", top)
	}
	if !strings.Contains(top, "(admission)") {
		t.Errorf("top output missing admission row:\n%s", top)
	}
}

func TestFilterTenant(t *testing.T) {
	prev, cur := tenantFleet(t)
	rows := FilterTenant(FleetRows(prev, cur, 10*time.Second), "bulk")
	if len(rows) != 2 {
		t.Fatalf("filtered rows = %+v, want batch_sweep + admission", rows)
	}
	for _, r := range rows {
		if r.Tenant != "bulk" {
			t.Errorf("foreign row leaked through filter: %+v", r)
		}
	}
	// Empty filter is the identity.
	all := FleetRows(prev, cur, 10*time.Second)
	if got := FilterTenant(all, ""); len(got) != len(all) {
		t.Errorf("empty filter dropped rows")
	}
}

func TestFleetSLOTenantScopesGrading(t *testing.T) {
	prev, cur := tenantFleet(t)
	objectives := []Objective{
		{Name: "availability", Kind: ObjectiveAvailability, Target: 0.9},
		{Name: "p99", Kind: ObjectiveLatency, Target: 0.99, Threshold: 10 * time.Millisecond},
	}

	// vip: nothing shed, every request ≈1ms — both objectives met.
	vip, err := FleetSLO(prev, cur, objectives, "vip")
	if err != nil {
		t.Fatal(err)
	}
	if !vip[0].Met || vip[0].GoodFraction != 1.0 {
		t.Errorf("vip availability = %+v", vip[0])
	}
	if !vip[1].Met {
		t.Errorf("vip latency = %+v", vip[1])
	}

	// bulk: 50 served, 30 shed → availability 50/80; latency 50ms ≫ 10ms.
	bulk, err := FleetSLO(prev, cur, objectives, "bulk")
	if err != nil {
		t.Fatal(err)
	}
	if bulk[0].Met || bulk[0].GoodFraction < 0.62 || bulk[0].GoodFraction > 0.63 {
		t.Errorf("bulk availability = %+v, want 0.625 unmet", bulk[0])
	}
	if bulk[1].Met || bulk[1].GoodFraction > 0.01 {
		t.Errorf("bulk latency = %+v, want unmet", bulk[1])
	}
}
