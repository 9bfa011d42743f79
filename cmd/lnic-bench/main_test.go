package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lambdanic/internal/experiments"
	"lambdanic/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden")

// goldenCase is one command line whose stdout testdata/<golden>.golden
// holds byte for byte.
type goldenCase struct {
	name string
	args []string
	// call, when set, produces the output in place of run(args).
	call func(io.Writer) error
	// golden names another case's file when this one must print the
	// same text; empty means the case's own name.
	golden string
	// full marks a paper-size run, skipped under -short.
	full bool
}

// goldenCases is every experiment at smoke size, plus the smoke and
// full-size runs README.md and DESIGN.md quote. The heap kernel case
// runs the reference event queue, which no command line selects, and
// shares the ladder run's file: the two kernels are bit-identical.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, e := range experimentTable {
		cases = append(cases, goldenCase{name: e.name, args: []string{"-quick", "-short", "-experiment", e.name}})
	}
	return append(cases,
		goldenCase{name: "skew-short", args: []string{"-short", "-experiment", "skew"}},
		goldenCase{name: "boundary-short", args: []string{"-short", "-experiment", "boundary"}},
		goldenCase{name: "skew-full", args: []string{"-experiment", "skew"}, full: true},
		goldenCase{name: "boundary-full", args: []string{"-experiment", "boundary"}, full: true},
		goldenCase{name: "rdmabench-full", args: []string{"-experiment", "rdmabench"}, full: true},
		goldenCase{name: "rdmabench-full-heap", call: rdmaBenchHeap, golden: "rdmabench-full", full: true},
	)
}

// rdmaBenchHeap prints what "-experiment rdmabench" prints, run on the
// heap kernel.
func rdmaBenchHeap(w io.Writer) error {
	cfg := experiments.Default()
	cfg.Kernel = sim.KernelHeap
	rows, err := experiments.RdmaBench(cfg, experiments.DefaultRdmaBench())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, experiments.RenderRdmaBench(rows))
	return err
}

// TestRunSingleExperiments runs each golden case through the CLI entry
// point from an empty working directory. Its stdout must equal the
// golden file byte for byte (-update rewrites the files), and without
// -slo-out/-trace-out no run may leave a file behind.
func TestRunSingleExperiments(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			if c.full && testing.Short() {
				t.Skip("full-size run")
			}
			dir := t.TempDir()
			t.Chdir(dir)
			var out bytes.Buffer
			call := c.call
			if call == nil {
				call = func(w io.Writer) error { return run(c.args, w) }
			}
			if err := call(&out); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			left, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range left {
				t.Errorf("%s left %s behind", c.name, f.Name())
			}

			golden := c.golden
			if golden == "" {
				golden = c.name
			}
			path := filepath.Join(testdata, golden+".golden")
			if *update && c.golden == "" {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to regenerate): %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%s differs from %s:\n%s",
					c.name, path, firstDiff(string(want), out.String()))
			}
		})
	}
}

// firstDiff shows the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d\n- %s\n+ %s", i+1, wl, gl)
		}
	}
	return "(no line differs)"
}

func TestRunWritesRequestedArtefacts(t *testing.T) {
	// The CI smoke targets: short runs plus the files the flags name.
	dir := t.TempDir()
	trace := filepath.Join(dir, "chaos.json")
	slo := filepath.Join(dir, "SLO_chaos.json")
	if err := run([]string{"-short", "-experiment", "chaos", "-trace-out", trace, "-slo-out", slo}, io.Discard); err != nil {
		t.Fatalf("run(chaos -short): %v", err)
	}
	for _, path := range []string{trace, slo} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s not written (%v)", path, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "bogus"}, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nonsense"}, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
}
