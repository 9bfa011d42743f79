package core

import (
	"encoding/json"
	"fmt"

	"lambdanic/internal/tenant"
	"lambdanic/internal/workloads"
)

// Tenant-aware control plane: the workload manager owns the tenant
// registry, publishes tenants into the Raft control store beside
// workloads and placements, and binds every tenant-registered lambda
// to its owner so the data path (gateway admission, NIC hierarchical
// WFQ, worker metric labels) can key on tenant identity.

// Tenants returns the manager's tenant registry (created on first
// use, pre-seeded with the default tenant).
func (m *Manager) Tenants() *tenant.Registry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.tenants == nil {
		m.tenants = tenant.NewRegistry()
	}
	return m.tenants
}

// RegisterTenant adds a tenant to the registry and publishes it at
// tenant/<name> in the control store.
func (m *Manager) RegisterTenant(t tenant.Tenant) (*tenant.Tenant, error) {
	reg := m.Tenants()
	stored, err := reg.Add(t)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(stored)
	if err != nil {
		return nil, err
	}
	if err := m.control.Put("tenant/"+stored.Name, string(data), m.controlTicks); err != nil {
		return nil, fmt.Errorf("core: record tenant: %w", err)
	}
	return stored, nil
}

// RegisterFor registers a workload under the named tenant: the
// workload gets its unique ID as usual, is stamped with the owning
// tenant (metric labels), and the ID→tenant binding is recorded for
// data-path classification.
func (m *Manager) RegisterFor(tenantName string, w *workloads.Workload) (uint32, error) {
	reg := m.Tenants()
	if _, ok := reg.Get(tenantName); !ok {
		return 0, fmt.Errorf("%w: %s", tenant.ErrUnknownTenant, tenantName)
	}
	w.Tenant = tenantName
	id, err := m.Register(w)
	if err != nil {
		return 0, err
	}
	if err := reg.Bind(id, tenantName); err != nil {
		return 0, err
	}
	return id, nil
}
