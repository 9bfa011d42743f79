package healthd

import (
	"strings"
	"sync"
	"testing"
	"time"

	"lambdanic/internal/monitor"
)

func TestDaemonEnableMetrics(t *testing.T) {
	var mu sync.Mutex
	now := time.Duration(0)
	seq := uint64(0)
	silent := false
	source := func() []Heartbeat {
		mu.Lock()
		defer mu.Unlock()
		if silent {
			return nil
		}
		seq++
		return []Heartbeat{
			{Worker: "m2", Seq: seq, Load: 3},
			{Worker: "m3", Seq: seq, Load: 1},
		}
	}
	d := NewDaemon(NewDetector(iv), source, func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return now
	})
	reg := monitor.NewRegistry()
	if err := d.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}
	// Enabling twice is a no-op, not a duplicate registration.
	if err := d.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		d.Poll()
		mu.Lock()
		now += iv
		mu.Unlock()
	}
	page := reg.Render()
	for _, want := range []string{
		`lnic_healthd_load{worker="m2"} 3`,
		`lnic_healthd_load{worker="m3"} 1`,
		`lnic_healthd_status{worker="m2"} 0`,
		`lnic_healthd_phi{worker="m2"}`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("rendered metrics missing %q:\n%s", want, page)
		}
	}

	// Silence the fleet: phi climbs and status walks to dead, visible
	// through the gauges.
	mu.Lock()
	silent = true
	mu.Unlock()
	for i := 0; i < 8; i++ {
		d.Poll()
		mu.Lock()
		now += iv
		mu.Unlock()
	}
	page = reg.Render()
	if !strings.Contains(page, `lnic_healthd_status{worker="m2"} 2`) {
		t.Errorf("dead worker not reflected in status gauge:\n%s", page)
	}
}
