package sim

import "sync"

// Parallel runs several independent simulations concurrently — the
// multi-core mode for sweeps whose points never interact (scale-out
// workers, load-curve points). Each domain is a full Sim with its own
// kernel, clock, and RNG, and runs to completion on its own goroutine;
// nothing is shared, so scheduling, pooling, and RNG draws need no locks
// and every domain's results are bit-identical to running it alone.
//
// Domains must not touch each other's state: there is no cross-domain
// messaging. Simulations that interact belong on one Sim.
type Parallel struct {
	domains []*Sim
}

// NewParallel returns an empty group.
func NewParallel() *Parallel { return &Parallel{} }

// NewDomainKernel adds a simulation with the given seed and queue kernel
// to the group and returns it.
func (p *Parallel) NewDomainKernel(seed int64, kind KernelKind) *Sim {
	s := NewWithKernel(seed, kind)
	p.domains = append(p.domains, s)
	return s
}

// Run executes every domain's Sim.Run(horizon) concurrently and waits
// for all of them. A domain that calls Stop halts only itself; Run then
// returns ErrStopped — the first error in domain order, so error
// reporting is deterministic too.
func (p *Parallel) Run(horizon Time) error {
	errs := make([]error, len(p.domains))
	var wg sync.WaitGroup
	for i, s := range p.domains {
		wg.Add(1)
		go func(i int, s *Sim) {
			defer wg.Done()
			errs[i] = s.Run(horizon)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunUntilIdle executes until every domain's queue drains.
func (p *Parallel) RunUntilIdle() error { return p.Run(0) }
