package sim

import (
	"testing"
	"time"
)

// TestParallelIndependent: domains run to completion concurrently, each
// firing exactly its own events.
func TestParallelIndependent(t *testing.T) {
	p := NewParallel()
	var doms []*Sim
	for i := 0; i < 4; i++ {
		d := p.NewDomainKernel(int64(i), KernelLadder)
		n := 10 * (i + 1)
		for j := 0; j < n; j++ {
			d.Schedule(Time(j)*time.Microsecond, func() {})
		}
		doms = append(doms, d)
	}
	if err := p.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, d := range doms {
		if want := uint64(10 * (i + 1)); d.Executed != want {
			t.Errorf("domain %d executed %d, want %d", i, d.Executed, want)
		}
		if d.Pending() != 0 {
			t.Errorf("domain %d has %d events pending", i, d.Pending())
		}
	}
}

// TestParallelStop propagates a domain's Stop as ErrStopped without
// halting the other domains.
func TestParallelStop(t *testing.T) {
	p := NewParallel()
	a := p.NewDomainKernel(1, KernelLadder)
	b := p.NewDomainKernel(2, KernelLadder)
	a.Schedule(time.Microsecond, func() { a.Stop() })
	a.Schedule(time.Millisecond, func() { t.Error("event after Stop fired") })
	fired := false
	b.Schedule(time.Millisecond, func() { fired = true })
	if err := p.Run(0); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if !fired {
		t.Error("independent domain did not run to completion")
	}
}
