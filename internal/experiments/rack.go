package experiments

import (
	"fmt"
	"time"

	"lambdanic/internal/backend"
	"lambdanic/internal/cluster"
	"lambdanic/internal/mcc"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/sim"
	"lambdanic/internal/workloads"
)

// rack is the simulated cluster the chaos, tenants, skew and boundary
// experiments drive: worker NICs — plus a host, for the experiment that
// moves work across the NIC/host boundary — all on one clock. The
// control plane of each experiment (router, admission, dispatcher,
// placement loop, load schedule) schedules onto the same sim and calls
// the backends' Invoke methods directly.
type rack struct {
	sim *sim.Sim
	// names lists the workers in construction order; nics is keyed by
	// them.
	names []string
	nics  map[string]*backend.LambdaNIC
	// host is nil unless the experiment adds one after construction.
	host *backend.Host
}

// newRack builds a fresh simulation and workers NICs named m2, m3, … on
// it, each configured by nicCfg over tb's hardware and loaded with wls.
// It is the one place rack NICs are constructed and deployed: the
// firmware is compiled and linked once: the first NIC loads the linked
// image, and every other NIC its own relinked one. The order of sim.New / NewLambdaNIC / Load calls is
// part of the experiments' Executed@FinalClock fingerprints.
func newRack(cfg Config, tb cluster.Testbed, workers int, nicCfg nicsim.Config, wls []*workloads.Workload) (*rack, error) {
	firmware, err := backend.Firmware(wls)
	if err != nil {
		return nil, err
	}
	image, err := mcc.Link(firmware)
	if err != nil {
		return nil, fmt.Errorf("lambda-nic deploy: %w", err)
	}
	r := &rack{
		sim:   cfg.newSim(),
		names: make([]string, workers),
		nics:  make(map[string]*backend.LambdaNIC, workers),
	}
	for i := range r.names {
		name := fmt.Sprintf("m%d", i+2)
		b, err := backend.NewLambdaNICWithConfig(r.sim, tb, nicCfg)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			image = image.Relink()
		}
		if err := b.Load(image); err != nil {
			return nil, err
		}
		r.names[i], r.nics[name] = name, b
	}
	return r, nil
}

// run drains the event queue and returns the run's determinism
// fingerprint: events fired and the final virtual clock.
func (r *rack) run() (executed uint64, clock time.Duration, err error) {
	if err := r.sim.RunUntilIdle(); err != nil {
		return 0, 0, err
	}
	return r.sim.Executed, r.sim.Now(), nil
}
