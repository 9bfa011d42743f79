package experiments

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"lambdanic/internal/backend"
	"lambdanic/internal/mcc"
	"lambdanic/internal/metrics"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/trace"
	"lambdanic/internal/workloads"
)

// rackWorkloadSets returns the lambda sets the four rack experiments
// deploy, at their quick sizes.
func rackWorkloadSets(t *testing.T) map[string][]*workloads.Workload {
	t.Helper()
	plane, err := newTenantsPlane(Quick(), QuickTenants().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]*workloads.Workload{
		"tenants":  {plane.web, plane.batch},
		"skew":     {QuickSkew().withDefaults().workload()},
		"boundary": QuickBoundary().withDefaults().workloadSet(),
		"chaos":    {workloads.WebServer()},
	}
}

func newTestNIC(t *testing.T) *backend.LambdaNIC {
	t.Helper()
	cfg := Quick()
	b, err := backend.NewLambdaNIC(cfg.newSim(), cfg.Testbed, nicsim.DispatchUniform)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// execOutcome is everything one execution reports.
type execOutcome struct {
	payload []byte
	stats   nicsim.ExecStats
	err     string
}

func execOn(exe *mcc.Executable, w *workloads.Workload, i int) execOutcome {
	payload := w.MakeRequest(i)
	resp, err := exe.Execute(&nicsim.Request{LambdaID: w.ID, Payload: payload, Packets: workloads.Packets(len(payload))})
	out := execOutcome{payload: resp.Payload, stats: resp.Stats}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// TestSharedFirmwareMatchesPerNICCompile holds the rack's one front end
// to the path it replaced: a NIC that links a program other NICs link
// too is indistinguishable from one that compiled the workloads itself,
// linking leaves the program as it found it, and the NICs share no
// object memory.
func TestSharedFirmwareMatchesPerNICCompile(t *testing.T) {
	for name, wls := range rackWorkloadSets(t) {
		t.Run(name, func(t *testing.T) {
			lone := newTestNIC(t)
			if err := lone.Deploy(wls); err != nil {
				t.Fatal(err)
			}
			firmware, err := backend.Firmware(wls)
			if err != nil {
				t.Fatal(err)
			}
			snapshot := firmware.Clone()
			if !reflect.DeepEqual(firmware, snapshot) {
				t.Fatal("Program.Clone is not deep-equal to its source; this test needs another snapshot")
			}
			a, b := newTestNIC(t), newTestNIC(t)
			for _, nic := range []*backend.LambdaNIC{a, b} {
				if err := nic.Load(firmware); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(firmware, snapshot) {
				t.Error("linking the shared program modified it")
			}

			want := lone.Executable()
			for _, nic := range []*backend.LambdaNIC{a, b} {
				got := nic.Executable()
				if got.Program().Disassemble() != want.Program().Disassemble() {
					t.Error("shared-program image disassembles differently from a per-NIC compile")
				}
				if !reflect.DeepEqual(got.Footprint(), want.Footprint()) {
					t.Errorf("Footprint = %+v, want %+v", got.Footprint(), want.Footprint())
				}
				if got.DispatchKind() != want.DispatchKind() {
					t.Errorf("DispatchKind = %q, want %q", got.DispatchKind(), want.DispatchKind())
				}
			}

			// Request by request — the first is cold (the runtime library
			// initialises its persistent state), the second warm — NIC a
			// answers exactly as the lone NIC does.
			var cold, warm execOutcome
			for i := 0; i < 2; i++ {
				for k, w := range wls {
					wantOut, gotOut := execOn(want, w, i), execOn(a.Executable(), w, i)
					if !bytes.Equal(gotOut.payload, wantOut.payload) || gotOut.stats != wantOut.stats || gotOut.err != wantOut.err {
						t.Errorf("%s request %d: shared-program NIC %+v, per-NIC compile %+v", w.Name, i, gotOut.stats, wantOut.stats)
					}
					switch {
					case k == 0 && i == 0:
						cold = gotOut
					case k == 0:
						warm = gotOut
					}
				}
			}
			if cold.stats == warm.stats {
				t.Fatal("cold and warm requests cost the same; the isolation check below would prove nothing")
			}
			// NIC a's stores went to a's objects only: b, untouched until
			// now, still pays for a cold first request.
			if got := execOn(b.Executable(), wls[0], 0); got.stats != cold.stats {
				t.Errorf("NIC b's first request cost %+v, want the cold %+v: object memory leaked between NICs", got.stats, cold.stats)
			}
		})
	}
}

// TestSharedPayloadMatchesDistinct drives every backend with the one
// shared image Config.requests gives a run and with a distinct
// MakeRequest(i) image per request, and wants the same report from
// both: no virtual-time result depends on the pixels. No backend may
// write the shared buffer.
func TestSharedPayloadMatchesDistinct(t *testing.T) {
	cfg := Quick()
	img := workloads.ImageTransformer(cfg.ImageWidth, cfg.ImageHeight)
	type report struct {
		latency    metrics.Summary
		throughput float64
		errors     int
		usage      backend.Usage
	}
	run := func(bid BackendID, concurrency int, gen trace.Generator) report {
		s, b, err := cfg.newBackend(bid, cfg.set())
		if err != nil {
			t.Fatal(err)
		}
		res, err := trace.ClosedLoop{
			Concurrency: concurrency,
			Requests:    8 * concurrency,
			Warmup:      cfg.Warmup,
			Gen:         gen,
		}.Run(s, cfg.gateway(s, b))
		if err != nil {
			t.Fatal(err)
		}
		return report{res.Latency.Summarize(), res.Throughput.PerSecond(), res.Errors, b.Usage()}
	}
	for _, bid := range []BackendID{BackendLambdaNIC, BackendBareMetal, BackendContainer} {
		for _, concurrency := range []int{1, 8} {
			shared := cfg.requests(img)
			before := bytes.Clone(shared(0).Payload)
			got := run(bid, concurrency, shared)
			want := run(bid, concurrency, trace.Fixed(img.ID, img.MakeRequest))
			if want.errors != 0 {
				t.Errorf("%s x%d: %d requests failed", bid, concurrency, want.errors)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s x%d: shared payload %+v, distinct payloads %+v", bid, concurrency, got, want)
			}
			if !bytes.Equal(shared(0).Payload, before) {
				t.Errorf("%s x%d: the shared payload was written", bid, concurrency)
			}
		}
	}
}

// TestRackBuildCheap holds a 64-NIC rack to what building it should
// cost the host: one firmware front end and, per NIC, a link and a
// staging region that is registered but not yet backed (allocated at
// registration, the 64 regions alone are 4 GiB). Rebuilding in the same
// process must not cost more than the first build did.
func TestRackBuildCheap(t *testing.T) {
	tc := QuickTenants().withDefaults()
	cfg := Quick()
	plane, err := newTenantsPlane(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (r *rack, allocated, inuse uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r, err := newRack(cfg, tc.testbed(cfg), 64, nicsim.Config{
			Dispatch:      nicsim.DispatchTenantWFQ,
			TenantOf:      plane.tenantOf,
			TenantWeights: plane.weights,
		}, []*workloads.Workload{plane.web, plane.batch})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		return r, after.TotalAlloc - before.TotalAlloc, after.HeapInuse
	}
	const allocBudget = 96 << 20 // twice what a build measures
	var firstInuse uint64
	for i := 0; i < 3; i++ {
		r, allocated, inuse := build()
		t.Logf("build %d: allocated %.1f MiB, heap in use %.1f MiB", i+1, float64(allocated)/(1<<20), float64(inuse)/(1<<20))
		if allocated > allocBudget {
			t.Errorf("build %d allocated %d bytes, want <= %d", i+1, allocated, allocBudget)
		}
		if i == 0 {
			firstInuse = inuse
		} else if inuse > firstInuse+firstInuse/4 {
			t.Errorf("build %d left %d heap bytes in use, the first left %d", i+1, inuse, firstInuse)
		}
		runtime.KeepAlive(r)
	}
}
