// Package tenant makes tenants a first-class concept in the λ-NIC
// fleet. The paper packs lambdas onto NICs with no notion of who owns
// them; SuperNIC (arXiv:2109.07744) argues SmartNICs only pay off when
// shared across tenants with enforced isolation. This package supplies
// the shared vocabulary for that sharing: a registry of tenants (ID,
// display name, weight class, quota vector), a binding from workload
// IDs to owning tenants, and token-bucket admission control for the
// gateway edge.
//
// The enforcement points live elsewhere and all key off this package:
// placement quotas in internal/core (DRF keyed by tenant), NIC-local
// hierarchical WFQ in internal/nicsim (outer tenant queue weighted by
// Tenant.Weight), and request shedding in internal/gateway (Admission).
package tenant

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Class is a tenant's service class; it picks the default scheduling
// weight when a tenant does not set one explicitly.
type Class string

// Service classes, interactive weighted above batch (paper §2: λ-NIC
// targets interactive microsecond-scale lambdas; batch work rides in
// the leftover capacity).
const (
	ClassInteractive Class = "interactive"
	ClassStandard    Class = "standard"
	ClassBatch       Class = "batch"
)

// DefaultWeight returns the scheduling weight a class implies.
func (c Class) DefaultWeight() float64 {
	switch c {
	case ClassInteractive:
		return 4
	case ClassBatch:
		return 1
	default:
		return 2
	}
}

// Quota is a tenant's resource envelope. Zero fields mean "unlimited"
// so a registry can hold best-effort tenants without sentinel values.
type Quota struct {
	// NPUThreads caps the tenant's share of NPU hardware threads
	// across the fleet (placement-time, via DRF).
	NPUThreads float64
	// InstrStoreBytes caps per-core instruction-store bytes the
	// tenant's lambdas may occupy on one NIC.
	InstrStoreBytes int
	// IMEMBytes and EMEMBytes cap the tenant's object footprint in
	// the NIC's internal and external memory levels.
	IMEMBytes int
	EMEMBytes int
	// MemoryMB caps host-side memory for host-fallback replicas.
	MemoryMB float64
	// RatePerSec and Burst parameterize gateway admission: a token
	// bucket refilled at RatePerSec with capacity Burst. RatePerSec
	// <= 0 disables admission control for the tenant.
	RatePerSec float64
	Burst      float64
}

// Tenant is one registered tenant.
type Tenant struct {
	// ID is the dense numeric handle used on the data path (WFQ flow
	// keys, per-tenant counters). Assigned by the registry.
	ID uint32
	// Name is the display / control-store name.
	Name string
	// Class picks the default scheduling weight.
	Class Class
	// Weight is the WFQ weight for the tenant's outer queue. If zero
	// at registration the class default is used.
	Weight float64
	// Quota is the tenant's resource envelope.
	Quota Quota
}

// DefaultTenantName is the tenant that owns workloads registered
// without an explicit owner, preserving the single-tenant behavior of
// the earlier PRs.
const DefaultTenantName = "default"

// Registry errors.
var (
	ErrDuplicateTenant = errors.New("tenant: already registered")
	ErrUnknownTenant   = errors.New("tenant: unknown tenant")
)

// Registry maps tenant names and IDs to tenants and binds workload IDs
// to their owners. Safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	byName   map[string]*Tenant
	byID     map[uint32]*Tenant
	owner    map[uint32]uint32 // workload ID -> tenant ID
	nextID   uint32
	defaults *Tenant
}

// NewRegistry builds a registry pre-seeded with the "default" tenant
// (standard class, unlimited quota, ID 0).
func NewRegistry() *Registry {
	r := &Registry{
		byName: make(map[string]*Tenant),
		byID:   make(map[uint32]*Tenant),
		owner:  make(map[uint32]uint32),
	}
	def := &Tenant{ID: 0, Name: DefaultTenantName, Class: ClassStandard,
		Weight: ClassStandard.DefaultWeight()}
	r.byName[def.Name] = def
	r.byID[def.ID] = def
	r.defaults = def
	r.nextID = 1
	return r
}

// Add registers a tenant and assigns its ID. A zero Weight takes the
// class default. The passed struct is copied; the stored tenant is
// returned.
func (r *Registry) Add(t Tenant) (*Tenant, error) {
	if t.Name == "" {
		return nil, errors.New("tenant: name must be non-empty")
	}
	if t.Weight < 0 {
		return nil, fmt.Errorf("tenant: %s weight %v must not be negative", t.Name, t.Weight)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[t.Name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateTenant, t.Name)
	}
	if t.Class == "" {
		t.Class = ClassStandard
	}
	if t.Weight == 0 {
		t.Weight = t.Class.DefaultWeight()
	}
	t.ID = r.nextID
	r.nextID++
	stored := &t
	r.byName[t.Name] = stored
	r.byID[t.ID] = stored
	return stored, nil
}

// Get returns a tenant by name.
func (r *Registry) Get(name string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.byName[name]
	return t, ok
}

// Bind records that a workload belongs to the named tenant.
func (r *Registry) Bind(workloadID uint32, tenantName string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byName[tenantName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTenant, tenantName)
	}
	r.owner[workloadID] = t.ID
	return nil
}

// Owner returns the tenant owning a workload ID. Unbound workloads
// belong to the default tenant.
func (r *Registry) Owner(workloadID uint32) *Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if tid, ok := r.owner[workloadID]; ok {
		if t, ok := r.byID[tid]; ok {
			return t
		}
	}
	return r.defaults
}

// OwnerID is Owner reduced to the numeric ID — the shape the NIC
// scheduler wants for its tenant classifier (nicsim.Config.TenantOf).
func (r *Registry) OwnerID(workloadID uint32) uint32 {
	return r.Owner(workloadID).ID
}

// Tenants returns all registered tenants sorted by name (deterministic
// for control-store publication and rendering).
func (r *Registry) Tenants() []*Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Tenant, 0, len(r.byName))
	for _, t := range r.byName {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Weights returns the tenant-ID → WFQ-weight map the NIC scheduler
// consumes (nicsim.Config.TenantWeights).
func (r *Registry) Weights() map[uint32]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[uint32]float64, len(r.byID))
	for id, t := range r.byID {
		out[id] = t.Weight
	}
	return out
}
