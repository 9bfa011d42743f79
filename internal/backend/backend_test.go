package backend

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lambdanic/internal/cluster"
	"lambdanic/internal/kvstore"
	"lambdanic/internal/mcc"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/sim"
	"lambdanic/internal/workloads"
)

// smallSet returns the workload set with a test-sized image.
func smallSet() []*workloads.Workload {
	return []*workloads.Workload{
		workloads.WebServer(),
		workloads.KVGetClient(),
		workloads.KVSetClient(),
		workloads.ImageTransformer(16, 16),
	}
}

func newNICBackend(t *testing.T, s *sim.Sim) *LambdaNIC {
	t.Helper()
	b, err := NewLambdaNIC(s, cluster.Default(), nicsim.DispatchUniform)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Deploy(smallSet()); err != nil {
		t.Fatal(err)
	}
	return b
}

// warm runs one request per workload so one-time init is off the
// measured path (the paper measures warm lambdas).
func warm(t *testing.T, s *sim.Sim, b Backend) {
	t.Helper()
	for _, w := range smallSet() {
		b.Invoke(w.ID, w.MakeRequest(0), func(r Result) {
			if r.Err != nil {
				t.Fatalf("warm %s: %v", w.Name, r.Err)
			}
		})
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestInvokeBeforeDeploy(t *testing.T) {
	s := sim.New(1)
	b, err := NewLambdaNIC(s, cluster.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var got error
	b.Invoke(1, nil, func(r Result) { got = r.Err })
	if !errors.Is(got, ErrNotDeployed) {
		t.Errorf("err = %v, want ErrNotDeployed", got)
	}

	h, err := NewBareMetal(s, cluster.Default(), false)
	if err != nil {
		t.Fatal(err)
	}
	h.Invoke(1, nil, func(r Result) { got = r.Err })
	if !errors.Is(got, ErrNotDeployed) {
		t.Errorf("host err = %v, want ErrNotDeployed", got)
	}
}

// reply returns r's bytes, failing the test when they cannot be built.
func reply(t *testing.T, r Result) []byte {
	t.Helper()
	b, err := r.Reply()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLambdaNICServesWebRequest sends one page twice: the first request
// records its key, the second replays it, and both replies are the
// page, built only when Reply is called.
func TestLambdaNICServesWebRequest(t *testing.T) {
	s := sim.New(1)
	b := newNICBackend(t, s)
	warm(t, s, b)
	web := workloads.WebServer()
	want, err := web.Handle(web.MakeRequest(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	var lat [2]sim.Time
	var built [2]bool
	for i := range lat {
		start := s.Now()
		b.Invoke(web.ID, web.MakeRequest(1), func(r Result) {
			if r.Err != nil {
				t.Fatalf("Invoke: %v", r.Err)
			}
			built[i] = r.payload != nil
			if got := reply(t, r); !bytes.Equal(got, want) {
				t.Errorf("request %d replied %q, want %q", i, got, want)
			}
			lat[i] = s.Now() - start
		})
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	if built != [2]bool{true, false} {
		t.Errorf("reply bytes built by the NIC: %v, want only the recording's", built)
	}
	// Warm web service should complete in a handful of microseconds, and
	// a replay costs what the execution it replays did.
	if lat[0] <= 0 || lat[0] > 50*time.Microsecond || lat[1] != lat[0] {
		t.Errorf("latencies = %v, want equal and in (0, 50µs]", lat)
	}
}

func TestLambdaNICMultiPacketUsesRDMA(t *testing.T) {
	// A 64x64 RGBA image is a 16 KiB payload spanning 12 packets, so it
	// must arrive through the RDMA path (§4.2.1 D3).
	big := []*workloads.Workload{
		workloads.WebServer(), workloads.KVGetClient(), workloads.KVSetClient(),
		workloads.ImageTransformer(64, 64),
	}
	s := sim.New(1)
	b, err := NewLambdaNIC(s, cluster.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Deploy(big); err != nil {
		t.Fatal(err)
	}
	img := workloads.ImageTransformer(64, 64)
	b.Invoke(workloads.ImageTransformerID, img.MakeRequest(0), func(r Result) {
		if r.Err != nil {
			t.Fatalf("Invoke: %v", r.Err)
		}
		if got := reply(t, r); len(got) != 64*64 {
			t.Errorf("grayscale output = %d bytes, want %d", len(got), 64*64)
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	c := b.rdma.Counters()
	if c.Writes == 0 || c.BytesWritten == 0 {
		t.Errorf("multi-packet request bypassed RDMA: writes=%d bytes=%d", c.Writes, c.BytesWritten)
	}
	// A single-packet request must not touch the RDMA engine.
	b.Invoke(workloads.WebServerID, workloads.WebServer().MakeRequest(0), nil)
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if c2 := b.rdma.Counters(); c2.Writes != c.Writes {
		t.Error("single-packet request used RDMA")
	}
}

func TestBackendOrderingWebLatency(t *testing.T) {
	// The paper's headline (Fig. 6): λ-NIC < bare metal < container for
	// the warm web-server lambda, by orders of magnitude.
	measure := func(mk func(s *sim.Sim) (Backend, error)) time.Duration {
		s := sim.New(1)
		b, err := mk(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Deploy(smallSet()); err != nil {
			t.Fatal(err)
		}
		warm(t, s, b)
		var lat time.Duration
		start := s.Now()
		b.Invoke(workloads.WebServerID, workloads.WebServer().MakeRequest(0), func(r Result) {
			if r.Err != nil {
				t.Fatalf("Invoke: %v", r.Err)
			}
			lat = s.Now() - start
		})
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return lat
	}
	nic := measure(func(s *sim.Sim) (Backend, error) { return NewLambdaNIC(s, cluster.Default(), 0) })
	bare := measure(func(s *sim.Sim) (Backend, error) { return NewBareMetal(s, cluster.Default(), false) })
	cont := measure(func(s *sim.Sim) (Backend, error) { return NewContainer(s, cluster.Default()) })

	if !(nic < bare && bare < cont) {
		t.Fatalf("ordering violated: nic=%v bare=%v container=%v", nic, bare, cont)
	}
	if ratio := float64(bare) / float64(nic); ratio < 5 {
		t.Errorf("bare/nic ratio = %.1f, want ≫ 1", ratio)
	}
	if ratio := float64(cont) / float64(nic); ratio < 100 {
		t.Errorf("container/nic ratio = %.1f, want ≫ 100", ratio)
	}
}

func TestUsageAccounting(t *testing.T) {
	s := sim.New(1)
	b := newNICBackend(t, s)
	// 8 concurrent requests.
	for i := 0; i < 8; i++ {
		b.Invoke(workloads.WebServerID, workloads.WebServer().MakeRequest(i), nil)
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	u := b.Usage()
	if u.HostCPUPercent != nicManagementCPUPercent {
		t.Errorf("λ-NIC host CPU = %v", u.HostCPUPercent)
	}
	if u.HostMemoryMiB != 0 {
		t.Errorf("λ-NIC host memory = %v, want 0", u.HostMemoryMiB)
	}
	if u.NICMemoryMiB <= 8*nicRequestWorkingSetMiB {
		t.Errorf("λ-NIC NIC memory = %v, want > inflight working sets", u.NICMemoryMiB)
	}

	// Container memory exceeds bare metal by the runtime delta.
	s2 := sim.New(1)
	bare, err := NewBareMetal(s2, cluster.Default(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Deploy(smallSet()); err != nil {
		t.Fatal(err)
	}
	s3 := sim.New(1)
	cont, err := NewContainer(s3, cluster.Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := cont.Deploy(smallSet()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		bare.Invoke(workloads.WebServerID, workloads.WebServer().MakeRequest(i), nil)
		cont.Invoke(workloads.WebServerID, workloads.WebServer().MakeRequest(i), nil)
	}
	if err := s2.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if err := s3.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	bu, cu := bare.Usage(), cont.Usage()
	if cu.HostMemoryMiB-bu.HostMemoryMiB < 100 {
		t.Errorf("container - bare memory = %v, want > 100 MiB", cu.HostMemoryMiB-bu.HostMemoryMiB)
	}
	if bu.HostCPUPercent <= 0 || bu.HostCPUPercent > 100 {
		t.Errorf("bare CPU%% = %v", bu.HostCPUPercent)
	}
	if bu.NICMemoryMiB != 0 || cu.NICMemoryMiB != 0 {
		t.Error("CPU backends must not consume NIC memory")
	}
}

func TestSingleCoreBackendSlower(t *testing.T) {
	run := func(singleCore bool) sim.Time {
		s := sim.New(1)
		b, err := NewBareMetal(s, cluster.Default(), singleCore)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Deploy(smallSet()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			b.Invoke(workloads.WebServerID, workloads.WebServer().MakeRequest(i), nil)
		}
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return s.Now()
	}
	if single, multi := run(true), run(false); single <= multi {
		t.Errorf("single-core (%v) not slower than multi-core (%v)", single, multi)
	}
}

// TestFirmwareEngineCycleParity pins the nicsim cost accounting across
// execution engines: the compiled engine must report the same ExecStats
// as the interpreter, so end-to-end virtual latency per workload is
// identical no matter which engine the firmware was linked with. Also
// asserts the optimizer's reduced match stage compiled into the
// WorkloadID jump table.
func TestFirmwareEngineCycleParity(t *testing.T) {
	latencies := func(opts mcc.LinkOptions) (map[uint32]sim.Time, string) {
		s := sim.New(1)
		b, err := NewLambdaNIC(s, cluster.Default(), nicsim.DispatchUniform)
		if err != nil {
			t.Fatal(err)
		}
		b.SetLinkOptions(opts)
		if err := b.Deploy(smallSet()); err != nil {
			t.Fatal(err)
		}
		warm(t, s, b)
		out := make(map[uint32]sim.Time)
		for _, w := range smallSet() {
			start := s.Now()
			id := w.ID
			b.Invoke(id, w.MakeRequest(3), func(r Result) {
				if r.Err != nil {
					t.Fatalf("invoke %d: %v", id, r.Err)
				}
				out[id] = s.Now() - start
			})
			if err := s.RunUntilIdle(); err != nil {
				t.Fatal(err)
			}
		}
		return out, b.Executable().DispatchKind()
	}

	compiled, kind := latencies(mcc.LinkOptions{})
	if kind != "jump-table" {
		t.Fatalf("compiled firmware DispatchKind = %q, want jump-table", kind)
	}
	interp, kind := latencies(mcc.LinkOptions{Engine: mcc.EngineInterp})
	if kind != "interp" {
		t.Fatalf("interpreter firmware DispatchKind = %q, want interp", kind)
	}
	for id, want := range interp {
		if got := compiled[id]; got != want {
			t.Errorf("workload %d: compiled latency %v != interpreter latency %v (ExecStats diverged)", id, got, want)
		}
	}
}

// TestLambdaNICKVBypass exercises the one-sided GET fast path: keys
// mirrored into the EMEM table are served by RDMA reads (no NPU
// dispatch), absent keys fall back to the lambda path, and the bypass
// is faster than the invocation it replaces.
func TestLambdaNICKVBypass(t *testing.T) {
	s := sim.New(1)
	b := newNICBackend(t, s)
	table := kvstore.NewTable(1024)
	if !table.Set("user:0005", []byte("value-5")) {
		t.Fatal("table.Set failed")
	}
	warm(t, s, b)
	if err := b.EnableKVBypass(workloads.KVGetClientID, table, 8); err != nil {
		t.Fatal(err)
	}

	get := workloads.KVGetClient()
	var hitPayload []byte
	hitStart := s.Now()
	var hitElapsed sim.Time
	b.Invoke(get.ID, get.MakeRequest(5), func(r Result) {
		if r.Err != nil {
			t.Errorf("bypass GET: %v", r.Err)
		}
		hitPayload = reply(t, r)
		hitElapsed = s.Now() - hitStart
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if string(hitPayload) != "value-5" {
		t.Errorf("bypass GET = %q, want value-5", hitPayload)
	}
	if hits, fb := b.BypassStats(); hits != 1 || fb != 0 {
		t.Errorf("bypass stats = %d/%d, want 1 hit, 0 fallbacks", hits, fb)
	}
	if c := b.RDMA().Counters(); c.Reads == 0 {
		t.Error("bypass hit issued no RDMA reads")
	}

	// A key absent from the table falls back to the lambda path.
	fbStart := s.Now()
	var fbElapsed sim.Time
	b.Invoke(get.ID, get.MakeRequest(6), func(r Result) {
		if r.Err != nil {
			t.Errorf("fallback GET: %v", r.Err)
		}
		fbElapsed = s.Now() - fbStart
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if hits, fb := b.BypassStats(); hits != 1 || fb != 1 {
		t.Errorf("bypass stats = %d/%d, want 1 hit, 1 fallback", hits, fb)
	}
	if hitElapsed >= fbElapsed {
		t.Errorf("bypass hit (%v) not faster than lambda fallback (%v)", hitElapsed, fbElapsed)
	}

	// SETs never take the bypass.
	set := workloads.KVSetClient()
	b.Invoke(set.ID, set.MakeRequest(5), nil)
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if hits, fb := b.BypassStats(); hits != 1 || fb != 1 {
		t.Errorf("bypass stats after SET = %d/%d, want unchanged", hits, fb)
	}
}
