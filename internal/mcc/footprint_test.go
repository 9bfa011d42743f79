package mcc

import (
	"testing"

	"lambdanic/internal/nicsim"
)

func footprintProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("fp")
	b.MovImm(1, 0)
	b.Ret(1)
	return singleEntry(t, b.MustBuild(),
		&Object{Name: "local", Size: 256, Level: nicsim.MemLocal},
		&Object{Name: "ctm", Size: 768, Level: nicsim.MemCTM},
		&Object{Name: "table", Size: 3072, Level: nicsim.MemEMEM},
		&Object{Name: "unassigned", Size: 1024}, // naive placement: EMEM
	)
}

func TestFootprint(t *testing.T) {
	p := footprintProgram(t)
	fp := Footprint(p)
	if fp.Instructions != p.StaticInstructions() {
		t.Errorf("Instructions = %d, want %d", fp.Instructions, p.StaticInstructions())
	}
	if fp.Instructions <= 0 {
		t.Errorf("Instructions = %d, want > 0", fp.Instructions)
	}
	if got := fp.Memory[nicsim.MemLocal]; got != 256 {
		t.Errorf("LMEM demand = %d, want 256", got)
	}
	if got := fp.Memory[nicsim.MemCTM]; got != 768 {
		t.Errorf("CTM demand = %d, want 768", got)
	}
	// The unassigned object counts at its effective (EMEM) level.
	if got := fp.Memory[nicsim.MemEMEM]; got != 3072+1024 {
		t.Errorf("EMEM demand = %d, want 4096", got)
	}
	if got := fp.TotalMemoryBytes(); got != 256+768+3072+1024 {
		t.Errorf("TotalMemoryBytes = %d, want 5120", got)
	}
	// 1024 of 5120 bytes sit in the fast levels.
	if got := fp.FastFraction(); got != 1024.0/5120.0 {
		t.Errorf("FastFraction = %v, want 0.2", got)
	}
}

func TestExecutableFootprintMatchesProgram(t *testing.T) {
	p := footprintProgram(t)
	want := Footprint(p)
	e := mustLink(t, p)
	got := e.Footprint()
	if got.Instructions != want.Instructions {
		t.Errorf("linked Instructions = %d, want %d", got.Instructions, want.Instructions)
	}
	for lvl, b := range want.Memory {
		if got.Memory[lvl] != b {
			t.Errorf("linked demand at %v = %d, want %d", lvl, got.Memory[lvl], b)
		}
	}
}

func TestInstrPressure(t *testing.T) {
	fp := ProgramFootprint{Instructions: 8192}
	if got := fp.InstrPressure(16384); got != 0.5 {
		t.Errorf("pressure = %v, want 0.5", got)
	}
	if got := fp.InstrPressure(4096); got != 2 {
		t.Errorf("pressure = %v, want 2 (does not fit)", got)
	}
	// A degenerate store always reads as full.
	if got := fp.InstrPressure(0); got != 1 {
		t.Errorf("pressure with zero store = %v, want 1", got)
	}
}

func TestFastFractionNoMemory(t *testing.T) {
	fp := ProgramFootprint{Instructions: 10}
	// A stateless lambda is a perfect NIC fit: nothing to stratify.
	if got := fp.FastFraction(); got != 1 {
		t.Errorf("FastFraction with no objects = %v, want 1", got)
	}
}
