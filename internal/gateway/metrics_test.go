package gateway

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"lambdanic/internal/monitor"
	"lambdanic/internal/transport"
)

func TestEnableMetricsDoubleRegistration(t *testing.T) {
	n := transport.NewMemNetwork(1)
	gw := newGateway(t, n)
	reg := monitor.NewRegistry()
	if err := gw.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}
	// The same registry already holds every gateway metric: a second
	// enable must fail on the first registration, not panic or
	// half-register.
	if err := gw.EnableMetrics(reg); err == nil {
		t.Fatal("second EnableMetrics on the same registry succeeded")
	}
	// Two gateways cannot share one registry either (same metric names).
	gw2 := newGateway(t, transport.NewMemNetwork(2))
	if err := gw2.EnableMetrics(reg); err == nil {
		t.Fatal("second gateway registered into an occupied registry")
	}
	// A fresh registry works for the second gateway.
	if err := gw2.EnableMetrics(monitor.NewRegistry()); err != nil {
		t.Fatal(err)
	}
}

func TestEnableMetricsPartialCollision(t *testing.T) {
	// A registry with a colliding metric name must reject EnableMetrics
	// at that metric. Exercise a collision deep in the sequence (the
	// histogram, registered last) to cover the error paths past the
	// first counter.
	n := transport.NewMemNetwork(2)
	gw := newGateway(t, n)
	reg := monitor.NewRegistry()
	squatter := func() monitor.HistogramSnapshot { return monitor.HistogramSnapshot{Cumulative: []uint64{0}} }
	if err := reg.HistogramFunc("lnic_gateway_upstream_latency_seconds", "squatter", nil, squatter); err != nil {
		t.Fatal(err)
	}
	if err := gw.EnableMetrics(reg); err == nil {
		t.Fatal("EnableMetrics succeeded with a colliding histogram name")
	} else if !strings.Contains(err.Error(), "lnic_gateway_upstream_latency_seconds") {
		t.Errorf("error does not name the colliding metric: %v", err)
	}

	reg2 := monitor.NewRegistry()
	reg2.MustCounter("lnic_gateway_failovers_total", "squatter", nil)
	if err := gw.EnableMetrics(reg2); err == nil {
		t.Fatal("EnableMetrics succeeded with a colliding counter name")
	}
}

func TestMetricsRenderAfterTraffic(t *testing.T) {
	// The gateway's histogram view must render the standard
	// _bucket/_sum/_count families after real proxied traffic.
	n := transport.NewMemNetwork(3)
	echoWorker(t, n, "w1")
	gw := newGateway(t, n)
	reg := monitor.NewRegistry()
	if err := gw.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}
	gw.SetRoute(7, []net.Addr{transport.MemAddr("w1")})
	cli := testClient(t, n)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cli.Call(ctx, transport.MemAddr("gw"), 7, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	page := reg.Render()
	for _, want := range []string{
		"lnic_gateway_upstream_latency_seconds_bucket",
		"lnic_gateway_upstream_latency_seconds_count 1",
		`le="+Inf"`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("rendered metrics missing %q:\n%s", want, page)
		}
	}
}
