// Package autoscale implements the serverless framework's autoscaler
// ("an autoscaler to scale lambdas as demands change", paper §6.1.1):
// it observes per-workload request rates and decides replica counts
// against a target rate per replica, with EWMA smoothing, a hysteresis
// band, and scale cooldowns — the controls that keep container
// frameworks from flapping, and that λ-NIC's density makes largely
// unnecessary (thousands of lambdas fit one NIC).
package autoscale

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Policy parameterizes scaling decisions.
type Policy struct {
	// TargetPerReplica is the request rate (req/s) one replica should
	// carry at steady state.
	TargetPerReplica float64
	// MinReplicas and MaxReplicas bound the replica count. MinReplicas
	// may be 0: a workload whose rate decays to nothing scales to zero
	// (no replicas provisioned) and scales back up from zero on the
	// first observed traffic — the serverless scale-to-zero contract
	// the placement engine's cost accounting relies on.
	MinReplicas, MaxReplicas int
	// UpThreshold scales up when observed rate exceeds
	// target*replicas*UpThreshold (e.g. 1.2).
	UpThreshold float64
	// DownThreshold scales down when observed rate falls below
	// target*replicas*DownThreshold (e.g. 0.5).
	DownThreshold float64
	// Cooldown is the minimum time between scale operations per
	// workload.
	Cooldown time.Duration
	// Smoothing is the EWMA factor in (0, 1]; 1 disables smoothing.
	Smoothing float64
}

// Validate checks the policy.
func (p Policy) Validate() error {
	switch {
	case p.TargetPerReplica <= 0:
		return errors.New("autoscale: TargetPerReplica must be positive")
	case p.MinReplicas < 0 || p.MaxReplicas < p.MinReplicas || p.MaxReplicas < 1:
		return errors.New("autoscale: need 0 <= MinReplicas <= MaxReplicas, MaxReplicas >= 1")
	case p.UpThreshold <= 1:
		return errors.New("autoscale: UpThreshold must exceed 1")
	case p.DownThreshold <= 0 || p.DownThreshold >= 1:
		return errors.New("autoscale: DownThreshold must be in (0,1)")
	case p.Smoothing <= 0 || p.Smoothing > 1:
		return errors.New("autoscale: Smoothing must be in (0,1]")
	default:
		return nil
	}
}

// Decision is one scaling action.
type Decision struct {
	Workload string
	From, To int
	Reason   string
}

type workloadState struct {
	replicas  int
	rate      float64 // EWMA req/s
	hasRate   bool
	lastScale time.Time
}

// Autoscaler tracks workloads and produces decisions. Safe for
// concurrent use.
type Autoscaler struct {
	policy Policy

	mu    sync.Mutex
	state map[string]*workloadState
}

// New builds an autoscaler.
func New(policy Policy) (*Autoscaler, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	return &Autoscaler{policy: policy, state: make(map[string]*workloadState)}, nil
}

// Track registers a workload at an initial replica count (clamped to
// policy bounds).
func (a *Autoscaler) Track(workload string, replicas int) {
	if replicas < a.policy.MinReplicas {
		replicas = a.policy.MinReplicas
	}
	if replicas > a.policy.MaxReplicas {
		replicas = a.policy.MaxReplicas
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.state[workload]; !ok {
		a.state[workload] = &workloadState{replicas: replicas}
	}
}

// Observe records completed requests over a measurement window.
func (a *Autoscaler) Observe(workload string, completed uint64, window time.Duration) error {
	if window <= 0 {
		return fmt.Errorf("autoscale: non-positive window %v", window)
	}
	rate := float64(completed) / window.Seconds()
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.state[workload]
	if !ok {
		return fmt.Errorf("autoscale: workload %q not tracked", workload)
	}
	if !st.hasRate {
		st.rate, st.hasRate = rate, true
		return nil
	}
	s := a.policy.Smoothing
	st.rate = s*rate + (1-s)*st.rate
	return nil
}

// Replicas returns the current replica count for a workload.
func (a *Autoscaler) Replicas(workload string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st, ok := a.state[workload]; ok {
		return st.replicas
	}
	return 0
}

// Rate returns the smoothed request rate.
func (a *Autoscaler) Rate(workload string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st, ok := a.state[workload]; ok {
		return st.rate
	}
	return 0
}

// Decide evaluates every tracked workload at the given time and applies
// (and returns) the scaling decisions.
func (a *Autoscaler) Decide(now time.Time) []Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.state))
	for name := range a.state {
		names = append(names, name)
	}
	sort.Strings(names)

	var out []Decision
	for _, name := range names {
		st := a.state[name]
		if !st.hasRate {
			continue
		}
		if !st.lastScale.IsZero() && now.Sub(st.lastScale) < a.policy.Cooldown {
			continue
		}
		capacity := a.policy.TargetPerReplica * float64(st.replicas)
		switch {
		case st.rate > capacity*a.policy.UpThreshold && st.replicas < a.policy.MaxReplicas:
			want := int(st.rate/a.policy.TargetPerReplica + 0.999)
			if want <= st.replicas {
				want = st.replicas + 1
			}
			if want > a.policy.MaxReplicas {
				want = a.policy.MaxReplicas
			}
			out = append(out, Decision{
				Workload: name, From: st.replicas, To: want,
				Reason: fmt.Sprintf("rate %.0f req/s exceeds capacity %.0f", st.rate, capacity),
			})
			st.replicas = want
			st.lastScale = now
		case st.rate < capacity*a.policy.DownThreshold && st.replicas > a.policy.MinReplicas:
			want := int(st.rate/a.policy.TargetPerReplica + 0.999)
			if want >= st.replicas {
				want = st.replicas - 1
			}
			if want < a.policy.MinReplicas {
				want = a.policy.MinReplicas
			}
			out = append(out, Decision{
				Workload: name, From: st.replicas, To: want,
				Reason: fmt.Sprintf("rate %.0f req/s below %.0f%% of capacity %.0f",
					st.rate, a.policy.DownThreshold*100, capacity),
			})
			st.replicas = want
			st.lastScale = now
		}
	}
	return out
}
