package monitor_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lambdanic/internal/mcc"
	"lambdanic/internal/monitor"
	"lambdanic/internal/placement"
)

// TestFleetRowsPlacement scrapes a real placement engine's metric
// families — the PLACE and MIG columns must agree with the engine's
// exposition, not a hand-rolled copy of its family names. placement
// imports monitor, so this test sits outside the package.
func TestFleetRowsPlacement(t *testing.T) {
	worker := monitor.NewRegistry()
	srv := httptest.NewServer(worker.Handler())
	defer srv.Close()
	c := monitor.NewCollector([]monitor.Target{{Nic: "m2", URL: srv.URL}})

	wh := monitor.NewHistogram()
	if err := wh.Expose(worker, "lnic_worker_latency_seconds", "latency", nil); err != nil {
		t.Fatal(err)
	}
	wlh := monitor.NewHistogram()
	if err := wlh.Expose(worker, "lnic_worker_workload_latency_seconds", "latency",
		map[string]string{"workload": "bnd_heavy"}); err != nil {
		t.Fatal(err)
	}
	eng := placement.New(placement.Config{})
	eng.Register("bnd_heavy", mcc.ProgramFootprint{Instructions: 1000}, placement.LocNIC)
	if err := eng.EnableMetrics(worker); err != nil {
		t.Fatal(err)
	}

	prev := c.Collect(context.Background())
	for i := 0; i < 10; i++ {
		wh.ObserveDuration(time.Millisecond)
		wlh.ObserveDuration(time.Millisecond)
	}
	cur := c.Collect(context.Background())

	rows := monitor.FleetRows(prev, cur, 10*time.Second)
	byKey := map[string]monitor.FleetRow{}
	for _, r := range rows {
		byKey[r.Nic+"/"+r.Workload] = r
	}
	wl := byKey["m2/bnd_heavy"]
	if wl.Place != "NIC" {
		t.Errorf("workload place = %q, want NIC: %+v", wl.Place, wl)
	}
	node := byKey["m2/"]
	if node.Place != "" {
		t.Errorf("node row carries a place %q", node.Place)
	}
	if node.Migrations != 0 {
		t.Errorf("migrations = %d before any move", node.Migrations)
	}

	top := monitor.RenderTop(rows, 10*time.Second)
	for _, want := range []string{"PLACE", "MIG", "NIC"} {
		if !strings.Contains(top, want) {
			t.Errorf("top output missing %q:\n%s", want, top)
		}
	}
}
