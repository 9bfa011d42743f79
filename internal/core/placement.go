package core

import (
	"fmt"
	"sort"

	"lambdanic/internal/drf"
	"lambdanic/internal/workloads"
)

// Placement planning: the workload manager decides how many worker
// NICs each lambda gets using Dominant Resource Fairness over the
// fleet's aggregate NIC resources — the allocation mechanism the paper
// names as future work (§4.2.1 D1: "explore more sophisticated
// resource-allocation mechanisms (e.g., DRF)").

// WorkloadDemand is one lambda's per-replica NIC resource demand.
type WorkloadDemand struct {
	Workload *workloads.Workload
	// ThreadsPerReplica is the NPU thread share one replica consumes at
	// its target load.
	ThreadsPerReplica float64
	// MemoryMBPerReplica is NIC memory per replica (working sets +
	// objects).
	MemoryMBPerReplica float64
}

// FleetCapacity aggregates worker NIC resources.
type FleetCapacity struct {
	// Threads is total NPU threads across workers (448 per NIC).
	Threads float64
	// MemoryMB is total NIC memory in MB.
	MemoryMB float64
	// Workers are the worker node names, used round-robin when
	// materializing replica assignments.
	Workers []string
}

// PlannedPlacement is the DRF outcome for one workload.
type PlannedPlacement struct {
	Workload string
	Replicas int
	// Workers are the nodes hosting the replicas (round-robin over the
	// fleet; multiple replicas may share a node's NIC).
	Workers []string
}

// PlanPlacements allocates replicas to workloads with DRF and
// materializes worker assignments. Every workload receives at least one
// replica (feasibility is validated against capacity).
func PlanPlacements(fleet FleetCapacity, demands []WorkloadDemand) ([]PlannedPlacement, error) {
	if len(fleet.Workers) == 0 {
		return nil, fmt.Errorf("core: fleet has no workers")
	}
	if len(demands) == 0 {
		return nil, fmt.Errorf("core: no workload demands")
	}
	alloc, err := drf.New(drf.Resources{
		"threads": fleet.Threads,
		"memMB":   fleet.MemoryMB,
	})
	if err != nil {
		return nil, err
	}
	for _, d := range demands {
		if d.Workload == nil {
			return nil, fmt.Errorf("core: demand without workload")
		}
		err := alloc.AddUser(d.Workload.Name, drf.Resources{
			"threads": d.ThreadsPerReplica,
			"memMB":   d.MemoryMBPerReplica,
		})
		if err != nil {
			return nil, fmt.Errorf("core: demand for %s: %w", d.Workload.Name, err)
		}
	}
	alloc.AllocateAll()

	out := make([]PlannedPlacement, 0, len(demands))
	next := 0
	for _, d := range demands {
		replicas := alloc.Tasks(d.Workload.Name)
		if replicas == 0 {
			return nil, fmt.Errorf("core: workload %s starved (demand exceeds fleet share)", d.Workload.Name)
		}
		workers := make([]string, 0, replicas)
		seen := make(map[string]bool)
		for r := 0; r < replicas; r++ {
			w := fleet.Workers[next%len(fleet.Workers)]
			next++
			if !seen[w] {
				seen[w] = true
				workers = append(workers, w)
			}
		}
		sort.Strings(workers)
		out = append(out, PlannedPlacement{
			Workload: d.Workload.Name,
			Replicas: replicas,
			Workers:  workers,
		})
	}
	return out, nil
}
