package benchio

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_rpc.json")
	rep := NewReport([]Result{{
		Name: "roundtrip", Transport: "memnet", Mode: "closed",
		Concurrency: 4, Requests: 100, ReqPerSec: 12345.6,
		P50Ns: 1000, P90Ns: 2000, P99Ns: 3000, AllocsPerOp: 1.5,
	}})
	if err := WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.GoVersion == "" || len(back.Results) != 1 {
		t.Errorf("report = %+v", back)
	}
	r := back.Results[0]
	if r.Name != "roundtrip" || r.ReqPerSec != 12345.6 || r.P99Ns != 3000 {
		t.Errorf("result = %+v", r)
	}
}

func TestReadJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	rep := NewReport([]Result{{Name: "sched/heap", ReqPerSec: 100}})
	if err := WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 1 || back.Results[0].Name != "sched/heap" {
		t.Errorf("report = %+v", back)
	}
}

func guardReport(rates map[string]float64) Report {
	var rs []Result
	for name, rps := range rates {
		rs = append(rs, Result{Name: name, ReqPerSec: rps})
	}
	return NewReport(rs)
}

func TestGuard(t *testing.T) {
	baseline := guardReport(map[string]float64{
		"sched/heap": 100, "sched/ladder": 300, "timers/ladder": 500,
		"scaleout16/domains=4": 400,
	})

	// Twice as fast across the board: ratios unchanged, guard passes.
	ok := guardReport(map[string]float64{
		"sched/heap": 200, "sched/ladder": 600, "timers/ladder": 1000,
		"scaleout16/domains=4": 100, // unguarded prefix: may regress freely
	})
	if err := Guard(baseline, ok, "sched/heap", 0.20, "sched/", "timers/"); err != nil {
		t.Errorf("uniform speed change failed the guard: %v", err)
	}

	// Ladder ratio fell from 3x to 2x the reference: a 33% relative
	// regression, beyond the 20% tolerance.
	bad := guardReport(map[string]float64{
		"sched/heap": 100, "sched/ladder": 200, "timers/ladder": 500,
	})
	err := Guard(baseline, bad, "sched/heap", 0.20, "sched/", "timers/")
	if err == nil {
		t.Fatal("33% relative regression passed the guard")
	}
	if !strings.Contains(err.Error(), "sched/ladder") {
		t.Errorf("violation should name sched/ladder: %v", err)
	}

	// A row present on only one side is ignored.
	sparse := guardReport(map[string]float64{"sched/heap": 100, "sched/new-row": 1})
	if err := Guard(baseline, sparse, "sched/heap", 0.20, "sched/", "timers/"); err != nil {
		t.Errorf("new row failed the guard: %v", err)
	}

	// Missing reference is an explicit error.
	if err := Guard(baseline, guardReport(map[string]float64{"sched/ladder": 1}),
		"sched/heap", 0.20, "sched/"); err == nil {
		t.Error("missing reference row should error")
	}
}
