package transport_test

import (
	"context"
	"net"
	"testing"

	"lambdanic/internal/core"
	"lambdanic/internal/gateway"
	"lambdanic/internal/transport"
	"lambdanic/internal/workloads"
)

// newGatewayPath builds the three-hop data plane the repo benchmark's
// interactive_mix drives — client → gateway.New → one core.Worker
// serving the web lambda, all on memnet — and returns a function that
// performs one request and checks the reply's size.
func newGatewayPath(tb testing.TB) func() error {
	tb.Helper()
	n := transport.NewMemNetwork(1)
	return newGatewayPathOn(tb, func(name string) (net.PacketConn, error) { return n.Listen(name) })
}

// newGatewayPathOn is newGatewayPath over the sockets listen opens.
func newGatewayPathOn(tb testing.TB, listenOn func(name string) (net.PacketConn, error)) func() error {
	tb.Helper()
	listen := func(name string) net.PacketConn {
		conn, err := listenOn(name)
		if err != nil {
			tb.Fatal(err)
		}
		return conn
	}
	web := workloads.WebServer()
	worker := core.NewWorker(listen("worker"), &workloads.Deps{})
	if err := worker.Install(web); err != nil {
		tb.Fatal(err)
	}
	gw := gateway.New(listen("gw"))
	gw.SetRoute(web.ID, []net.Addr{worker.Addr()})
	client := transport.NewEndpoint(listen("client"), nil)
	tb.Cleanup(func() {
		client.Close()
		gw.Close()
		worker.Close()
	})
	req := web.MakeRequest(3)
	want, err := web.Handle(req, nil)
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	return func() error {
		resp, err := client.Call(ctx, gw.Addr(), web.ID, req)
		if err == nil && len(resp) != len(want) {
			tb.Errorf("reply is %d bytes, want %d", len(resp), len(want))
		}
		return err
	}
}

// BenchmarkGatewayRoundTripParallel is the profile target for the
// contended request path: 8 callers share one client endpoint, one
// gateway and one worker, so every wait and wake-up of the data plane is
// exercised with other goroutines doing the same on the same endpoints.
//
//	go test -run '^$' -bench GatewayRoundTripParallel -cpuprofile cpu.pprof ./internal/transport
func BenchmarkGatewayRoundTripParallel(b *testing.B) {
	call := newGatewayPath(b)
	const callers = 8
	b.ReportAllocs()
	b.ResetTimer()
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		n := b.N / callers
		if c < b.N%callers {
			n++
		}
		go func() {
			for i := 0; i < n; i++ {
				if err := call(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
}

// TestGatewayRoundTripAllocs gates the steady-state allocation budget
// of a whole proxied request (the bench's runtime.allocs_per_req). It
// measures exactly 5: the two response copies handed to callers, one
// dedup-cache entry each on the gateway and the worker (their rings are
// still filling this early), and this harness's own gw.Addr(). Routing,
// counting and dispatch in gateway.handle and core.Worker.handle
// contribute none; a context, a second timer, or a string built per
// request would take it past the bound.
func TestGatewayRoundTripAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state warmup")
	}
	if transport.RaceEnabled {
		t.Skip("race-detector instrumentation inflates alloc counts")
	}
	call := newGatewayPath(t)
	for i := 0; i < 300; i++ {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 5 {
		t.Errorf("client → gateway → worker round trip allocates %.1f allocs/op, want ≤ 5", avg)
	}
}

// TestUDPGatewayRoundTripAllocs holds the same round trip over UDP
// loopback sockets (the bench's transport.udp_allocs_per_req) to the
// allocation-free socket calls: reads by ReadFromUDPAddrPort, with each
// reader's recent peers cached as formatted names and net.Addrs, and
// writes by WriteToUDPAddrPort. It measures 4, the memnet budget's
// allocations less the harness's gw.Addr(); the generic ReadFrom and
// WriteTo, or a peer formatted per packet, take it past 15.
func TestUDPGatewayRoundTripAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state warmup")
	}
	if transport.RaceEnabled {
		t.Skip("race-detector instrumentation inflates alloc counts")
	}
	call := newGatewayPathOn(t, func(string) (net.PacketConn, error) { return net.ListenPacket("udp", "127.0.0.1:0") })
	for i := 0; i < 300; i++ {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 5 {
		t.Errorf("client → gateway → worker round trip over UDP allocates %.1f allocs/op, want ≤ 5", avg)
	}
}
