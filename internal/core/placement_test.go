package core

import (
	"strings"
	"testing"

	"lambdanic/internal/workloads"
)

func testFleet() FleetCapacity {
	return FleetCapacity{
		Threads:  4 * 448,  // four worker NICs
		MemoryMB: 4 * 2048, // 2 GiB per NIC
		Workers:  []string{"m2", "m3", "m4", "m5"},
	}
}

func TestPlanPlacementsDRFShares(t *testing.T) {
	web := workloads.WebServer()
	img := workloads.ImageTransformer(64, 64)
	plan, err := PlanPlacements(testFleet(), []WorkloadDemand{
		{Workload: web, ThreadsPerReplica: 64, MemoryMBPerReplica: 8},
		{Workload: img, ThreadsPerReplica: 16, MemoryMBPerReplica: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 2 {
		t.Fatalf("plan = %+v", plan)
	}
	byName := map[string]PlannedPlacement{}
	for _, p := range plan {
		byName[p.Workload] = p
	}
	if byName["web_server"].Replicas == 0 || byName["image_transformer"].Replicas == 0 {
		t.Fatalf("starvation in plan: %+v", plan)
	}
	// The thread-hungry and memory-hungry workloads both get multiple
	// replicas; neither monopolizes.
	if byName["web_server"].Replicas < 2 || byName["image_transformer"].Replicas < 2 {
		t.Errorf("shares too small: %+v", plan)
	}
	for _, p := range plan {
		if len(p.Workers) == 0 || len(p.Workers) > 4 {
			t.Errorf("workers = %v", p.Workers)
		}
	}
}

func TestPlanPlacementsValidation(t *testing.T) {
	web := workloads.WebServer()
	if _, err := PlanPlacements(FleetCapacity{}, []WorkloadDemand{{Workload: web, ThreadsPerReplica: 1, MemoryMBPerReplica: 1}}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := PlanPlacements(testFleet(), nil); err == nil {
		t.Error("empty demands accepted")
	}
	if _, err := PlanPlacements(testFleet(), []WorkloadDemand{{}}); err == nil {
		t.Error("nil workload accepted")
	}
	// A demand bigger than total capacity is rejected by the allocator.
	if _, err := PlanPlacements(testFleet(), []WorkloadDemand{
		{Workload: web, ThreadsPerReplica: 1e9, MemoryMBPerReplica: 1},
	}); err == nil {
		t.Error("oversized demand accepted")
	}
}

func TestApplyPlanThroughControlStore(t *testing.T) {
	m := newManager(t)
	web := workloads.WebServer()
	img := workloads.ImageTransformer(64, 64)
	if _, err := m.Register(web); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(img); err != nil {
		t.Fatal(err)
	}
	plan, err := PlanPlacements(testFleet(), []WorkloadDemand{
		{Workload: web, ThreadsPerReplica: 100, MemoryMBPerReplica: 16},
		{Workload: img, ThreadsPerReplica: 32, MemoryMBPerReplica: 768},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plan {
		if err := m.RecordPlacement(p.Workload, p.Workers); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range plan {
		got, err := m.Placement(p.Workload)
		if err != nil {
			t.Fatalf("Placement(%s): %v", p.Workload, err)
		}
		if strings.Join(got.Workers, ",") != strings.Join(p.Workers, ",") {
			t.Errorf("%s placement = %v, want %v", p.Workload, got.Workers, p.Workers)
		}
	}
}
