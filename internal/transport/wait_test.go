package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdanic/internal/matchlambda"
)

// These tests pin down who ends a call and how: a response, the call's
// own attempt timer, an abort, a shutdown, a cancelled context — each
// completing the one call record exactly once.

// blackHole attaches a node that nobody reads: packets sent to it queue
// up and are never answered.
func blackHole(t *testing.T, n *MemNetwork, name string) *MemConn {
	t.Helper()
	c, err := n.Listen(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// clientOn starts a client-only endpoint that the test closes itself
// (the cleanup's second Close is harmless by contract).
func clientOn(t *testing.T, n *MemNetwork, name string, opts ...EndpointOption) *Endpoint {
	t.Helper()
	c, err := n.Listen(name)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEndpoint(c, nil, opts...)
	t.Cleanup(func() { e.Close() })
	return e
}

// pendingCalls counts the calls registered on the endpoint.
func pendingCalls(e *Endpoint) int {
	n := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		n += len(sh.pending)
		sh.mu.Unlock()
	}
	return n
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestCloseConcurrent: Close from 8 goroutines at once, with calls in
// flight, shuts the endpoint down once; every Close returns (the same
// error) and every blocked caller fails with ErrClosed.
func TestCloseConcurrent(t *testing.T) {
	n := NewMemNetwork(1)
	blackHole(t, n, "hole")
	cli := clientOn(t, n, "client", WithTimeout(10*time.Second))
	const callers, closers = 16, 8
	callErrs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := cli.Call(context.Background(), MemAddr("hole"), 1, []byte("q"))
			callErrs <- err
		}()
	}
	waitFor(t, "the calls to block", func() bool { return pendingCalls(cli) == callers })
	closeErrs := make(chan error, closers)
	for i := 0; i < closers; i++ {
		go func() { closeErrs <- cli.Close() }()
	}
	for i := 0; i < closers; i++ {
		if err := <-closeErrs; err != nil {
			t.Errorf("Close: %v", err)
		}
	}
	for i := 0; i < callers; i++ {
		if err := <-callErrs; !errors.Is(err, ErrClosed) {
			t.Errorf("blocked caller got %v, want ErrClosed", err)
		}
	}
}

// TestCloseServerUnderFire: closing a serving endpoint from 8
// goroutines while requests keep arriving tears down readers, job queue
// and workers in order — no send on the closed queue, no worker left.
func TestCloseServerUnderFire(t *testing.T) {
	n := NewMemNetwork(1)
	sc, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewEndpoint(sc, func(req *Message) ([]byte, error) { return req.Payload, nil })
	cli := clientOn(t, n, "client", WithTimeout(2*time.Millisecond), WithRetries(2))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					cli.Call(context.Background(), MemAddr("server"), 1, []byte("q")) // fails once the server is gone
				}
			}
		}()
	}
	waitFor(t, "traffic", func() bool { return cli.nextID.Load() > 200 })
	var closers sync.WaitGroup
	for i := 0; i < 8; i++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			if err := srv.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	closers.Wait()
	close(stop)
	wg.Wait()
}

// TestCloseWakesBlockedCallers: callers blocked on a background
// context, on a cancellable one, and in the middle of a retransmit
// schedule all fail with ErrClosed within 50 ms of Close, and a call
// started after Close fails the same way without sending anything.
func TestCloseWakesBlockedCallers(t *testing.T) {
	n := NewMemNetwork(1)
	hole := blackHole(t, n, "hole")
	patient := clientOn(t, n, "patient", WithTimeout(10*time.Second))
	hasty := clientOn(t, n, "hasty", WithTimeout(time.Millisecond), WithRetries(1<<20))
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()

	type outcome struct {
		who string
		err error
		at  time.Time
	}
	out := make(chan outcome, 3)
	call := func(who string, e *Endpoint, ctx context.Context) {
		_, err := e.Call(ctx, MemAddr("hole"), 1, []byte("q"))
		out <- outcome{who, err, time.Now()}
	}
	go call("background", patient, context.Background())
	go call("cancellable", patient, cancellable)
	go call("mid-retransmit", hasty, context.Background())
	waitFor(t, "the calls to block", func() bool {
		return pendingCalls(patient) == 2 && hasty.Retransmits() >= 3
	})

	start := time.Now()
	patient.Close()
	hasty.Close()
	for i := 0; i < 3; i++ {
		o := <-out
		if !errors.Is(o.err, ErrClosed) {
			t.Errorf("%s caller got %v, want ErrClosed", o.who, o.err)
		}
		if lag := o.at.Sub(start); lag > 50*time.Millisecond {
			t.Errorf("%s caller woke %v after Close, want ≤ 50ms", o.who, lag)
		}
	}

	queued := len(hole.inbox)
	if _, err := patient.Call(context.Background(), MemAddr("hole"), 1, []byte("late")); !errors.Is(err, ErrClosed) {
		t.Errorf("call after Close: %v, want ErrClosed", err)
	}
	if got := len(hole.inbox); got != queued {
		t.Errorf("call after Close put %d packets on the wire", got-queued)
	}
}

// TestCallContextEndsWaitPromptly: cancellation and a context deadline
// return ctx.Err() long before the 10 s attempt timer would.
func TestCallContextEndsWaitPromptly(t *testing.T) {
	n := NewMemNetwork(1)
	blackHole(t, n, "hole")
	cli := clientOn(t, n, "client", WithTimeout(10*time.Second))

	cancelled, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	expiring, stop := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer stop()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"cancel", cancelled, context.Canceled},
		{"deadline", expiring, context.DeadlineExceeded},
	} {
		start := time.Now()
		_, err := cli.Call(tc.ctx, MemAddr("hole"), 1, []byte("q"))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: returned after %v", tc.name, d)
		}
	}
	if got := pendingCalls(cli); got != 0 {
		t.Errorf("%d calls still registered", got)
	}
}

// TestAbortedCallsArePooled: a call ended by AbortTo goes back to the
// pool like any other. After a storm of aborts the same number of fresh
// calls complete normally — none sees a stale abort on a recycled record
// — and a round trip allocates what it did before the storm.
func TestAbortedCallsArePooled(t *testing.T) {
	n := NewMemNetwork(1)
	blackHole(t, n, "hole")
	sc, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewEndpoint(sc, func(req *Message) ([]byte, error) { return req.Payload, nil })
	t.Cleanup(func() { srv.Close() })
	cli := clientOn(t, n, "client", WithTimeout(10*time.Second))
	ctx := context.Background()
	roundTrip := func(payload string) error {
		resp, err := cli.Call(ctx, MemAddr("server"), 1, []byte(payload))
		if err == nil && string(resp) != payload {
			err = fmt.Errorf("reply %q to %q", resp, payload)
		}
		return err
	}
	allocs := func() float64 {
		for i := 0; i < 200; i++ {
			if err := roundTrip("warm"); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() {
			if err := roundTrip("measured"); err != nil {
				t.Fatal(err)
			}
		})
	}
	before := allocs()

	const storm = 64
	errs := make(chan error, storm)
	for i := 0; i < storm; i++ {
		go func() {
			_, err := cli.Call(ctx, MemAddr("hole"), 1, []byte("doomed"))
			errs <- err
		}()
	}
	waitFor(t, "the doomed calls to block", func() bool { return pendingCalls(cli) == storm })
	if got := cli.AbortTo(MemAddr("hole")); got != storm {
		t.Errorf("AbortTo ended %d calls, want %d", got, storm)
	}
	for i := 0; i < storm; i++ {
		if err := <-errs; !errors.Is(err, ErrAborted) {
			t.Errorf("aborted caller got %v, want ErrAborted", err)
		}
	}
	if got := cli.AbortTo(MemAddr("hole")); got != 0 {
		t.Errorf("second AbortTo ended %d calls", got)
	}

	// The recycled records serve fresh calls, concurrently so that many
	// of them are taken from the pool at once.
	for i := 0; i < storm; i++ {
		go func(i int) { errs <- roundTrip(fmt.Sprintf("fresh-%d", i)) }(i)
	}
	for i := 0; i < storm; i++ {
		if err := <-errs; err != nil {
			t.Errorf("fresh call after the storm: %v", err)
		}
	}
	if raceEnabled {
		return // instrumentation inflates alloc counts
	}
	if after := allocs(); after > before {
		t.Errorf("round trip allocates %.2f/op after the abort storm, %.2f before", after, before)
	}
}

// TestAbortLosesToResponse: a response that has already arrived wins
// over an abort delivered afterwards — the call succeeds.
func TestAbortLosesToResponse(t *testing.T) {
	n := NewMemNetwork(1)
	blackHole(t, n, "server")
	cli := clientOn(t, n, "client", WithTimeout(10*time.Second))
	got := make(chan callResult, 1)
	go func() {
		resp, err := cli.Call(context.Background(), MemAddr("server"), 1, []byte("q"))
		got <- callResult{payload: resp, err: err}
	}()
	waitFor(t, "the call to block", func() bool { return pendingCalls(cli) == 1 })
	answer := []byte("answer")
	cli.handleResponse(matchlambda.WireHeader{
		Version: matchlambda.Version1, Flags: matchlambda.FlagResponse, WorkloadID: 1,
		RequestID: cli.nextID.Load(), Total: 1, PayloadLen: uint32(len(answer)),
	}, answer, "server")
	if n := cli.AbortTo(MemAddr("server")); n != 0 {
		t.Errorf("AbortTo ended %d answered calls", n)
	}
	if res := <-got; res.err != nil || string(res.payload) != "answer" {
		t.Errorf("call result = %q, %v, want the response", res.payload, res.err)
	}
}

// TestCallWithin: the budget bounds the sum of all attempts' waits — the
// last wait is cut to what is left — and spending it is an ErrTimeout.
func TestCallWithin(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		timeout, budget      time.Duration
		retries              int
		wantRetransmits      uint64
		atLeast, noLaterThan time.Duration
	}{
		{"budget below one attempt", 10 * time.Second, 30 * time.Millisecond, 4, 0, 30 * time.Millisecond, 5 * time.Second},
		{"budget cuts the third attempt", 20 * time.Millisecond, 50 * time.Millisecond, 9, 2, 50 * time.Millisecond, 5 * time.Second},
		{"budget beyond the retry schedule", 5 * time.Millisecond, 10 * time.Second, 2, 2, 15 * time.Millisecond, 5 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := NewMemNetwork(1)
			blackHole(t, n, "hole")
			cli := clientOn(t, n, "client", WithTimeout(tc.timeout), WithRetries(tc.retries))
			start := time.Now()
			_, err := cli.CallWithin(context.Background(), MemAddr("hole"), 1, []byte("q"), tc.budget, nil)
			took := time.Since(start)
			if !errors.Is(err, ErrTimeout) {
				t.Errorf("err = %v, want ErrTimeout", err)
			}
			if took < tc.atLeast || took > tc.noLaterThan {
				t.Errorf("took %v, want between %v and %v", took, tc.atLeast, tc.noLaterThan)
			}
			if got := cli.Retransmits(); got != tc.wantRetransmits {
				t.Errorf("%d retransmits, want %d", got, tc.wantRetransmits)
			}
		})
	}
	t.Run("answered in time", func(t *testing.T) {
		_, cli := newPair(t, NewMemNetwork(1), func(req *Message) ([]byte, error) { return req.Payload, nil })
		resp, err := cli.CallWithin(context.Background(), MemAddr("server"), 1, []byte("q"), time.Second, nil)
		if err != nil || string(resp) != "q" {
			t.Errorf("resp %q, err %v", resp, err)
		}
	})
}

// TestCallbackCompletesOnce: responses — some lost, some duplicated —
// attempt timers, AbortTo and Close race on the same calls, and each
// call's done runs exactly once. Every done starts a follow-up call, as
// the gateway's failover does; run under a shard lock, that would
// deadlock on the first follow-up landing in the same shard.
func TestCallbackCompletesOnce(t *testing.T) {
	n := NewMemNetwork(7)
	n.LossRate, n.DupRate = 0.2, 0.2
	sc, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewEndpoint(sc, func(req *Message) ([]byte, error) { return req.Payload, nil })
	t.Cleanup(func() { srv.Close() })
	cli := clientOn(t, n, "client", WithTimeout(time.Millisecond), WithRetries(2))

	const calls, senders = 2000, 4
	var ends [2 * calls]atomic.Int32
	payload := []byte("q")
	var done func(i int) func([]byte, error)
	done = func(i int) func([]byte, error) {
		return func(resp []byte, err error) {
			if err == nil && string(resp) != "q" {
				t.Errorf("call %d: reply %q", i, resp)
			}
			ends[i].Add(1)
			if i < calls {
				cli.CallAsync(MemAddr("server"), 1, payload, 0, nil, done(calls+i))
			}
		}
	}
	stop := make(chan struct{})
	aborted := make(chan struct{})
	go func() {
		defer close(aborted)
		for {
			select {
			case <-stop:
				return
			default:
				cli.AbortTo(MemAddr("server"))
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	var sent sync.WaitGroup
	for s := 0; s < senders; s++ {
		sent.Add(1)
		go func() {
			defer sent.Done()
			for i := s; i < calls; i += senders {
				cli.CallAsync(MemAddr("server"), 1, payload, 0, nil, done(i))
			}
		}()
	}
	sent.Wait()
	cli.Close()
	close(stop)
	<-aborted
	waitFor(t, "every call to end", func() bool {
		for i := range ends {
			if ends[i].Load() == 0 {
				return false
			}
		}
		return true
	})
	time.Sleep(10 * time.Millisecond) // room for a second completion to show
	for i := range ends {
		if got := ends[i].Load(); got != 1 {
			t.Errorf("call %d completed %d times", i, got)
		}
	}
}
