package tenant

import (
	"errors"
	"testing"
	"time"
)

func TestRegistrySeedsDefault(t *testing.T) {
	r := NewRegistry()
	def, ok := r.Get(DefaultTenantName)
	if !ok || def.ID != 0 {
		t.Fatalf("default tenant = %+v, want name %q id 0", def, DefaultTenantName)
	}
	if got := r.Owner(999); got != def {
		t.Fatalf("unbound workload owner = %+v, want default", got)
	}
	if got := r.OwnerID(999); got != 0 {
		t.Fatalf("unbound workload OwnerID = %d, want 0", got)
	}
}

func TestRegistryAddAndBind(t *testing.T) {
	r := NewRegistry()
	ten, err := r.Add(Tenant{Name: "acme", Class: ClassInteractive})
	if err != nil {
		t.Fatal(err)
	}
	if ten.ID == 0 {
		t.Fatal("added tenant got the default tenant's ID")
	}
	if ten.Weight != ClassInteractive.DefaultWeight() {
		t.Fatalf("weight = %v, want class default %v", ten.Weight, ClassInteractive.DefaultWeight())
	}
	if _, err := r.Add(Tenant{Name: "acme"}); !errors.Is(err, ErrDuplicateTenant) {
		t.Fatalf("duplicate add err = %v, want ErrDuplicateTenant", err)
	}
	if err := r.Bind(7, "acme"); err != nil {
		t.Fatal(err)
	}
	if got := r.Owner(7); got != ten {
		t.Fatalf("owner(7) = %+v, want acme", got)
	}
	if err := r.Bind(8, "nosuch"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("bind to unknown tenant err = %v, want ErrUnknownTenant", err)
	}
}

func TestRegistryExplicitWeightWins(t *testing.T) {
	r := NewRegistry()
	ten, err := r.Add(Tenant{Name: "bulk", Class: ClassBatch, Weight: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if ten.Weight != 0.5 {
		t.Fatalf("weight = %v, want explicit 0.5", ten.Weight)
	}
	w := r.Weights()
	if w[ten.ID] != 0.5 || w[0] != ClassStandard.DefaultWeight() {
		t.Fatalf("Weights() = %v", w)
	}
}

func TestTokenBucketRefill(t *testing.T) {
	b, err := NewTokenBucket(10, 2) // 10 tokens/s, burst 2
	if err != nil {
		t.Fatal(err)
	}
	// Starts full: two immediate requests pass, third sheds.
	if !b.Allow(0) || !b.Allow(0) {
		t.Fatal("bucket should start full")
	}
	if b.Allow(0) {
		t.Fatal("empty bucket admitted a request")
	}
	// 100ms refills one token at 10/s.
	if !b.Allow(100 * time.Millisecond) {
		t.Fatal("refilled token not granted")
	}
	if b.Allow(100 * time.Millisecond) {
		t.Fatal("double-spend of one refilled token")
	}
	// A long idle period caps at burst, not rate*dt.
	for i := 0; i < 2; i++ {
		if !b.Allow(time.Hour) {
			t.Fatalf("token %d after idle not granted", i)
		}
	}
	if b.Allow(time.Hour) {
		t.Fatal("burst cap exceeded after idle")
	}
}

func TestTokenBucketRejectsBadParams(t *testing.T) {
	if _, err := NewTokenBucket(0, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewTokenBucket(1, 0); err == nil {
		t.Fatal("zero burst accepted")
	}
}

func TestAdmissionThrottlesOnlyQuotaedTenants(t *testing.T) {
	r := NewRegistry()
	lim, _ := r.Add(Tenant{Name: "bulk", Class: ClassBatch,
		Quota: Quota{RatePerSec: 10, Burst: 1}})
	free, _ := r.Add(Tenant{Name: "vip", Class: ClassInteractive})

	adm := NewAdmission()
	if err := adm.SetQuota(lim); err != nil {
		t.Fatal(err)
	}
	if err := adm.SetQuota(free); err != nil {
		t.Fatal(err)
	}

	// Unlimited tenant: never shed.
	for i := 0; i < 100; i++ {
		if err := adm.Admit(free.ID, 0); err != nil {
			t.Fatalf("unlimited tenant shed at %d: %v", i, err)
		}
	}
	// Limited tenant: burst of 1, then throttled with the sentinel.
	if err := adm.Admit(lim.ID, 0); err != nil {
		t.Fatal(err)
	}
	err := adm.Admit(lim.ID, 0)
	if !errors.Is(err, ErrThrottled) {
		t.Fatalf("over-quota err = %v, want ErrThrottled", err)
	}
	if adm.Shed(lim.ID) != 1 || adm.TotalShed() != 1 {
		t.Fatalf("shed counts = %d/%d, want 1/1", adm.Shed(lim.ID), adm.TotalShed())
	}
	// Virtual time advances 100ms: one token back.
	if err := adm.Admit(lim.ID, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionQuotaRemoval(t *testing.T) {
	r := NewRegistry()
	ten, _ := r.Add(Tenant{Name: "bulk", Quota: Quota{RatePerSec: 1, Burst: 1}})
	adm := NewAdmission()
	if err := adm.SetQuota(ten); err != nil {
		t.Fatal(err)
	}
	_ = adm.Admit(ten.ID, 0)
	if err := adm.Admit(ten.ID, 0); !errors.Is(err, ErrThrottled) {
		t.Fatalf("err = %v, want throttled", err)
	}
	// Clearing the rate quota lifts the limit.
	ten.Quota.RatePerSec = 0
	if err := adm.SetQuota(ten); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := adm.Admit(ten.ID, 0); err != nil {
			t.Fatalf("unlimited after removal, got %v", err)
		}
	}
}
