package main

import (
	"os"
	"path/filepath"
	"testing"

	"lambdanic/internal/benchio"
)

// TestRunSingleExperiments runs every registered experiment end-to-end
// through the CLI entry point at smoke size, from an empty working
// directory: without -bench-out/-slo-out/-trace-out no experiment may
// leave a file behind (the repo root holds committed BENCH_*.json
// artefacts a stray default filename would overwrite).
func TestRunSingleExperiments(t *testing.T) {
	for _, exp := range experimentTable {
		t.Run(exp.name, func(t *testing.T) {
			dir := t.TempDir()
			t.Chdir(dir)
			if err := run([]string{"-quick", "-short", "-experiment", exp.name}); err != nil {
				t.Fatalf("run(%s): %v", exp.name, err)
			}
			left, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range left {
				t.Errorf("run(%s) left %s behind", exp.name, f.Name())
			}
		})
	}
}

func TestRunWritesRequestedArtefacts(t *testing.T) {
	// The CI smoke targets: short runs plus the files the flags name.
	dir := t.TempDir()
	trace := filepath.Join(dir, "chaos.json")
	slo := filepath.Join(dir, "SLO_chaos.json")
	if err := run([]string{"-short", "-experiment", "chaos", "-trace-out", trace, "-slo-out", slo}); err != nil {
		t.Fatalf("run(chaos -short): %v", err)
	}
	for _, path := range []string{trace, slo} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s not written (%v)", path, err)
		}
	}

	bench := filepath.Join(dir, "BENCH_sim.json")
	if err := run([]string{"-quick", "-experiment", "simbench", "-bench-out", bench}); err != nil {
		t.Fatalf("run(simbench -quick): %v", err)
	}
	rep, err := benchio.ReadJSON(bench)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) == 0 {
		t.Error("report has no results")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "bogus"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunParallelOnlyWhereItApplies(t *testing.T) {
	for _, exp := range []string{"all", "chaos", "table1"} {
		if err := run([]string{"-quick", "-parallel", "-experiment", exp}); err == nil {
			t.Errorf("-parallel accepted for %s", exp)
		}
	}
	if err := run([]string{"-quick", "-parallel", "-experiment", "loadcurve"}); err != nil {
		t.Errorf("-parallel loadcurve: %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nonsense"}); err == nil {
		t.Error("bad flag accepted")
	}
}
