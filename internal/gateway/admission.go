package gateway

import (
	"fmt"
	"time"

	"lambdanic/internal/tenant"
)

// Tenant admission control: before routing, the gateway classifies the
// request's workload ID to its owning tenant and charges the tenant's
// token bucket. Over-quota requests are shed at the edge with
// tenant.ErrThrottled — a distinct signal from overload or failure, so
// clients back off instead of retrying hot and telemetry can separate
// "throttled by quota" from "broken".

// admission is the copy-on-write admission snapshot.
type admission struct {
	adm      *tenant.Admission
	tenantOf func(workloadID uint32) uint32
	// now returns the admission clock reading; defaults to wall time
	// since installation.
	now func() time.Duration
}

// AdmissionOption configures EnableAdmission.
type AdmissionOption func(*admission)

// WithAdmissionClock overrides the admission clock (tests, virtual
// time). fn must be monotonically non-decreasing.
func WithAdmissionClock(fn func() time.Duration) AdmissionOption {
	return func(a *admission) { a.now = fn }
}

// EnableAdmission installs tenant admission control on the forward
// path. tenantOf classifies workload IDs to tenant IDs (typically
// tenant.Registry.OwnerID); adm holds the per-tenant token buckets.
// Pass nil adm to remove admission control.
func (g *Gateway) EnableAdmission(adm *tenant.Admission, tenantOf func(uint32) uint32, opts ...AdmissionOption) error {
	if adm == nil {
		g.admission.Store(nil)
		return nil
	}
	if tenantOf == nil {
		return fmt.Errorf("gateway: EnableAdmission needs a tenant classifier")
	}
	a := &admission{adm: adm, tenantOf: tenantOf}
	for _, o := range opts {
		o(a)
	}
	if a.now == nil {
		epoch := time.Now()
		a.now = func() time.Duration { return time.Since(epoch) }
	}
	g.admission.Store(a)
	return nil
}

// Throttled returns the number of requests shed by tenant admission.
func (g *Gateway) Throttled() uint64 { return g.throttled.Load() }

// admit charges the request against its tenant's bucket; nil error
// admits. Called from handle before any routing work.
func (g *Gateway) admit(workloadID uint32) error {
	a := g.admission.Load()
	if a == nil {
		return nil
	}
	if err := a.adm.Admit(a.tenantOf(workloadID), a.now()); err != nil {
		g.throttled.Add(1)
		return err
	}
	return nil
}
