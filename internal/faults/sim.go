package faults

import (
	"fmt"
	"sort"

	"lambdanic/internal/sim"
)

// SimFaultKind enumerates timing-layer hardware fault events.
type SimFaultKind int

// Hardware fault kinds scheduled into the simulation (§7: firmware
// swaps halt the NIC; crashes and island degradation are the failure
// modes healthd exists to survive).
const (
	// FaultNICCrash black-holes a simulated NIC: requests in flight and
	// arriving are silently lost until recovery.
	FaultNICCrash SimFaultKind = iota + 1
	// FaultNICRecover brings a crashed NIC back.
	FaultNICRecover
	// FaultDegrade multiplies a target's service time by Factor —
	// island degradation or thermal throttling.
	FaultDegrade
	// FaultFirmwareSwap reloads firmware, paying the configured swap
	// downtime (§7).
	FaultFirmwareSwap
	// FaultHostDown fails a simulated host CPU; requests error until
	// recovery.
	FaultHostDown
	// FaultHostRecover brings a failed host back.
	FaultHostRecover
)

// String names the fault kind.
func (k SimFaultKind) String() string {
	switch k {
	case FaultNICCrash:
		return "nic-crash"
	case FaultNICRecover:
		return "nic-recover"
	case FaultDegrade:
		return "degrade"
	case FaultFirmwareSwap:
		return "firmware-swap"
	case FaultHostDown:
		return "host-down"
	case FaultHostRecover:
		return "host-recover"
	default:
		return fmt.Sprintf("SimFaultKind(%d)", int(k))
	}
}

// SimFault is one scheduled hardware fault event.
type SimFault struct {
	// At is the virtual time the fault fires.
	At sim.Time
	// Kind selects the fault.
	Kind SimFaultKind
	// Target names the afflicted device (a worker name in experiments).
	Target string
	// Factor is the service-time multiplier for FaultDegrade (≥ 1).
	Factor float64
}

// Timeline is an ordered schedule of hardware faults for one simulated
// run. Because the events are plain data executed through the sim's
// deterministic queue, the same timeline against the same simulation
// always reproduces the same failure history.
type Timeline struct {
	Faults []SimFault
}

// Sorted returns the faults in firing order (stable for equal times).
func (t *Timeline) Sorted() []SimFault {
	out := append([]SimFault(nil), t.Faults...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
