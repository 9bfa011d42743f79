package gateway

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"lambdanic/internal/monitor"
	"lambdanic/internal/tenant"
	"lambdanic/internal/transport"
)

// throttleGateway builds a gateway with one routed workload per tenant
// and admission control on a hand-cranked clock.
func throttleGateway(t *testing.T) (*Gateway, *transport.Endpoint, *time.Duration) {
	t.Helper()
	n := transport.NewMemNetwork(1)
	echoWorker(t, n, "w1")
	gw := newGateway(t, n)
	gw.SetRoute(1, []net.Addr{transport.MemAddr("w1")}) // tenant 10 (limited)
	gw.SetRoute(2, []net.Addr{transport.MemAddr("w1")}) // tenant 20 (unlimited)

	adm := tenant.NewAdmission()
	limited := &tenant.Tenant{ID: 10, Name: "bulk",
		Quota: tenant.Quota{RatePerSec: 1, Burst: 2}}
	if err := adm.SetQuota(limited); err != nil {
		t.Fatal(err)
	}
	clock := new(time.Duration)
	err := gw.EnableAdmission(adm, func(workloadID uint32) uint32 {
		if workloadID == 1 {
			return 10
		}
		return 20
	}, WithAdmissionClock(func() time.Duration { return *clock }))
	if err != nil {
		t.Fatal(err)
	}
	return gw, testClient(t, n), clock
}

func TestAdmissionShedsOverQuotaTenant(t *testing.T) {
	gw, cli, clock := throttleGateway(t)
	ctx := context.Background()

	// Burst of 2 admits, then the bucket is dry.
	for i := 0; i < 2; i++ {
		if _, err := cli.Call(ctx, transport.MemAddr("gw"), 1, []byte("x")); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	_, err := cli.Call(ctx, transport.MemAddr("gw"), 1, []byte("x"))
	if err == nil || !strings.Contains(err.Error(), "throttled") {
		t.Fatalf("3rd call err = %v, want throttled", err)
	}
	if !strings.Contains(err.Error(), "bulk") {
		t.Errorf("throttle error should name the tenant: %v", err)
	}
	if gw.Throttled() != 1 {
		t.Errorf("Throttled = %d, want 1", gw.Throttled())
	}
	// Unlimited tenants are untouched by the neighbor's quota.
	if _, err := cli.Call(ctx, transport.MemAddr("gw"), 2, []byte("y")); err != nil {
		t.Fatalf("unlimited tenant: %v", err)
	}
	// The bucket refills with the clock: +1s buys one more request.
	*clock += time.Second
	if _, err := cli.Call(ctx, transport.MemAddr("gw"), 1, []byte("x")); err != nil {
		t.Fatalf("post-refill call: %v", err)
	}
	if gw.Forwarded() != 4 {
		t.Errorf("Forwarded = %d, want 4 (throttled request never reached upstream)", gw.Forwarded())
	}
}

func TestAdmissionErrorIsDistinctSentinel(t *testing.T) {
	// Server-side classification: admit() returns the tenant sentinel
	// so in-process callers (experiments, tests) can errors.Is it.
	gw, _, _ := throttleGateway(t)
	gw.admit(1)
	gw.admit(1)
	if err := gw.admit(1); !errors.Is(err, ErrTenantThrottled) {
		t.Fatalf("admit err = %v, want ErrTenantThrottled", err)
	}
}

func TestAdmissionMetricsAndRemoval(t *testing.T) {
	gw, cli, _ := throttleGateway(t)
	reg := monitor.NewRegistry()
	if err := gw.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		cli.Call(ctx, transport.MemAddr("gw"), 1, []byte("x"))
	}
	page := reg.Render()
	if !strings.Contains(page, "lnic_gateway_tenant_throttled_total 1") {
		t.Errorf("throttled counter missing:\n%s", page)
	}
	if !strings.Contains(page, "lnic_gateway_pool_drops_total 0") {
		t.Errorf("pool drops counter missing:\n%s", page)
	}
	if !strings.Contains(page, "lnic_gateway_reassembly_evictions_total 0") {
		t.Errorf("reassembly evictions counter missing:\n%s", page)
	}
	// Removing admission re-opens the floodgates.
	if err := gw.EnableAdmission(nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(ctx, transport.MemAddr("gw"), 1, []byte("x")); err != nil {
		t.Fatalf("after removal: %v", err)
	}
}

func TestEnableAdmissionNeedsClassifier(t *testing.T) {
	n := transport.NewMemNetwork(1)
	gw := newGateway(t, n)
	if err := gw.EnableAdmission(tenant.NewAdmission(), nil); err == nil {
		t.Fatal("nil classifier accepted")
	}
}
