// Package drf implements Dominant Resource Fairness (Ghodsi et al.,
// NSDI 2011 — the paper's reference [61]). λ-NIC names DRF as the
// future-work resource-allocation mechanism for sharing NIC resources
// (NPU threads, memory, bandwidth) across lambdas (§4.2.1 D1: "We
// leave it as future work to explore more sophisticated resource-
// allocation mechanisms (e.g., DRF)").
//
// The allocator follows the progressive-filling formulation: repeatedly
// grant one task to the user with the smallest dominant share whose
// demand still fits the remaining capacity.
package drf

import (
	"errors"
	"fmt"
	"sort"
)

// Resources is a vector of named resource quantities (e.g. "threads",
// "memoryMB", "bandwidthMbps").
type Resources map[string]float64

// Clone copies a resource vector.
func (r Resources) Clone() Resources {
	out := make(Resources, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// fits reports whether demand fits within remaining.
func fits(remaining, demand Resources) bool {
	for k, d := range demand {
		if d > remaining[k] {
			return false
		}
	}
	return true
}

// user is one tenant with a fixed per-task demand vector.
type user struct {
	name   string
	demand Resources
	tasks  int
}

// Allocator is a DRF allocator over a fixed capacity. Not safe for
// concurrent use.
type Allocator struct {
	capacity  Resources
	remaining Resources
	users     map[string]*user
	order     []string
}

// Allocator errors.
var (
	ErrUnknownUser   = errors.New("drf: unknown user")
	ErrEmptyDemand   = errors.New("drf: demand must name at least one resource")
	ErrBadDemand     = errors.New("drf: demand exceeds capacity or is non-positive")
	ErrDuplicateUser = errors.New("drf: user already added")
)

// New builds an allocator with the given capacity.
func New(capacity Resources) (*Allocator, error) {
	if len(capacity) == 0 {
		return nil, errors.New("drf: capacity must name at least one resource")
	}
	for k, v := range capacity {
		if v <= 0 {
			return nil, fmt.Errorf("drf: capacity %q = %v must be positive", k, v)
		}
	}
	return &Allocator{
		capacity:  capacity.Clone(),
		remaining: capacity.Clone(),
		users:     make(map[string]*user),
	}, nil
}

// AddUser registers a tenant with its per-task demand.
func (a *Allocator) AddUser(name string, demand Resources) error {
	if _, ok := a.users[name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateUser, name)
	}
	if len(demand) == 0 {
		return ErrEmptyDemand
	}
	for k, v := range demand {
		if v <= 0 {
			return fmt.Errorf("%w: %s %q = %v", ErrBadDemand, name, k, v)
		}
		if _, ok := a.capacity[k]; !ok {
			return fmt.Errorf("drf: user %s demands unknown resource %q", name, k)
		}
		if v > a.capacity[k] {
			return fmt.Errorf("%w: %s needs %v of %q", ErrBadDemand, name, v, k)
		}
	}
	a.users[name] = &user{name: name, demand: demand.Clone()}
	a.order = append(a.order, name)
	sort.Strings(a.order)
	return nil
}

// DominantShare returns the user's dominant share: the maximum over
// resources of (allocated / capacity).
func (a *Allocator) DominantShare(name string) (float64, error) {
	u, ok := a.users[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownUser, name)
	}
	share := 0.0
	for k, d := range u.demand {
		s := float64(u.tasks) * d / a.capacity[k]
		if s > share {
			share = s
		}
	}
	return share, nil
}

// Tasks returns how many tasks a user currently holds.
func (a *Allocator) Tasks(name string) int {
	if u, ok := a.users[name]; ok {
		return u.tasks
	}
	return 0
}

// Remaining returns a copy of unallocated capacity.
func (a *Allocator) Remaining() Resources { return a.remaining.Clone() }

// AllocateOne grants one task to the user with the smallest dominant
// share whose demand still fits, returning its name. ok is false when
// no user fits.
func (a *Allocator) AllocateOne() (string, bool) {
	best := ""
	bestShare := 0.0
	for _, name := range a.order {
		u := a.users[name]
		if !fits(a.remaining, u.demand) {
			continue
		}
		share, _ := a.DominantShare(name)
		if best == "" || share < bestShare {
			best, bestShare = name, share
		}
	}
	if best == "" {
		return "", false
	}
	u := a.users[best]
	for k, d := range u.demand {
		a.remaining[k] -= d
	}
	u.tasks++
	return best, true
}

// AllocateAll progressively fills until no user's demand fits,
// returning the grant sequence.
func (a *Allocator) AllocateAll() []string {
	var grants []string
	for {
		name, ok := a.AllocateOne()
		if !ok {
			return grants
		}
		grants = append(grants, name)
	}
}

// Release returns one of a user's tasks to the pool.
func (a *Allocator) Release(name string) error {
	u, ok := a.users[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownUser, name)
	}
	if u.tasks == 0 {
		return fmt.Errorf("drf: user %s has no tasks", name)
	}
	u.tasks--
	for k, d := range u.demand {
		a.remaining[k] += d
	}
	return nil
}

// Utilization reports per-resource used fraction.
func (a *Allocator) Utilization() Resources {
	out := make(Resources, len(a.capacity))
	for k, c := range a.capacity {
		out[k] = (c - a.remaining[k]) / c
	}
	return out
}
