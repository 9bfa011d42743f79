package core

import (
	"encoding/json"
	"errors"
	"testing"

	"lambdanic/internal/tenant"
	"lambdanic/internal/workloads"
)

func TestRegisterForThreadsTenantThroughRegistration(t *testing.T) {
	m, err := NewManager(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterTenant(tenant.Tenant{Name: "acme", Class: tenant.ClassInteractive}); err != nil {
		t.Fatal(err)
	}
	w := workloads.WebServer()
	id, err := m.RegisterFor("acme", w)
	if err != nil {
		t.Fatal(err)
	}
	if w.Tenant != "acme" {
		t.Errorf("workload Tenant = %q, want acme", w.Tenant)
	}
	own := m.Tenants().Owner(id)
	if own.Name != "acme" {
		t.Errorf("owner(%d) = %s, want acme", id, own.Name)
	}
	// The binding is what the NIC scheduler classifier consumes.
	if got := m.Tenants().OwnerID(id); got != own.ID {
		t.Errorf("OwnerID = %d, want %d", got, own.ID)
	}
	// Unknown tenants are rejected before any registration happens.
	if _, err := m.RegisterFor("ghost", workloads.KVGetClient()); !errors.Is(err, tenant.ErrUnknownTenant) {
		t.Fatalf("err = %v, want ErrUnknownTenant", err)
	}
	if _, err := m.Workload(workloads.KVGetClientID); err == nil {
		t.Error("workload registered despite unknown tenant")
	}
}

func TestRegisterTenantPublishesToControlStore(t *testing.T) {
	m, err := NewManager(3, 11)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := m.RegisterTenant(tenant.Tenant{
		Name:  "bulk",
		Class: tenant.ClassBatch,
		Quota: tenant.Quota{RatePerSec: 100, Burst: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	leader, err := m.Control().ElectLeader(500)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := m.Control().Get(leader, "tenant/bulk")
	if !ok {
		t.Fatal("tenant/bulk missing from control store")
	}
	var got tenant.Tenant
	if err := json.Unmarshal([]byte(raw), &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != stored.ID || got.Quota.RatePerSec != 100 || got.Quota.Burst != 20 {
		t.Errorf("control-store tenant = %+v, want %+v", got, *stored)
	}
}
