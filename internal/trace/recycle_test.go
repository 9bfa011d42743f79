package trace

import (
	"bytes"
	"testing"
	"time"

	"lambdanic/internal/backend"
	"lambdanic/internal/sim"
)

// holdingInvoker serves every request after a constant delay and, like
// a real backend, reads the payload right up to the moment it
// completes the request.
type holdingInvoker struct {
	t       *testing.T
	s       *sim.Sim
	service time.Duration
	// replies, when set, gives every request a reply of its own that the
	// caller may recycle; recycled counts those given back.
	replies  bool
	recycled int
}

func (h *holdingInvoker) Invoke(id uint32, payload []byte, done func(backend.Result)) {
	want := append([]byte(nil), payload...)
	h.s.After(h.service, func() {
		if !bytes.Equal(payload, want) {
			h.t.Errorf("payload %q changed while its request was in flight (want %q)", payload[:4], want[:4])
		}
		var r backend.Result
		if h.replies {
			reply, back := []byte("reply"), false
			r = backend.Result{Payload: reply, Recycle: func(p []byte) {
				if back || &p[0] != &reply[0] {
					h.t.Errorf("recycled %q: not the request's own reply, or twice", p)
				}
				back = true
				h.recycled++
			}}
		}
		done(r)
	})
}

// TestLoadDriversReleaseReply: ClosedLoop and OpenLoop give every reply
// back to its backend exactly once, warmup requests' too.
func TestLoadDriversReleaseReply(t *testing.T) {
	s := sim.New(1)
	closed := &holdingInvoker{t: t, s: s, service: time.Millisecond, replies: true}
	if _, err := (ClosedLoop{Concurrency: 4, Requests: 40, Warmup: 3, Gen: Sized(1, 8)}).Run(s, closed); err != nil {
		t.Fatal(err)
	}
	open := &holdingInvoker{t: t, s: s, service: time.Millisecond, replies: true}
	if _, err := (OpenLoop{RatePerSec: 2000, Requests: 200, Warmup: 5, Gen: Sized(1, 8)}).Run(s, open); err != nil {
		t.Fatal(err)
	}
	if closed.recycled != 43 || open.recycled != 205 {
		t.Errorf("replies recycled: closed loop %d, open loop %d; want 43 and 205", closed.recycled, open.recycled)
	}
}

// stampFill builds a 64-byte payload carrying its index and records
// what the generator was handed to build it in.
type stampFill struct {
	t             *testing.T
	fresh, reused int
}

func (f *stampFill) fill(i int, buf []byte) []byte {
	if buf == nil {
		f.fresh++
		buf = make([]byte, 64)
	} else {
		f.reused++
		if raceEnabled && !bytes.Equal(buf, bytes.Repeat([]byte{0xDB}, len(buf))) {
			f.t.Errorf("request %d: recycled payload was not poisoned: % x", i, buf[:8])
		}
	}
	for k := range buf {
		buf[k] = byte(i)
	}
	return buf
}

func TestClosedLoopRecyclesPayloads(t *testing.T) {
	s := sim.New(1)
	f := &stampFill{t: t}
	res, err := ClosedLoop{
		Concurrency: 4,
		Requests:    40,
		Warmup:      3,
		Gen:         Refilled(1, f.fill),
	}.Run(s, &holdingInvoker{t: t, s: s, service: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Completed != 40 {
		t.Errorf("completed = %d, want 40", res.Throughput.Completed)
	}
	// One buffer per outstanding request, every later request built in
	// one that finished.
	if f.fresh != 4 || f.reused != 39 {
		t.Errorf("fresh/reused payloads = %d/%d, want 4/39", f.fresh, f.reused)
	}
}

func TestOpenLoopRecyclesPayloads(t *testing.T) {
	s := sim.New(1)
	f := &stampFill{t: t}
	res, err := OpenLoop{
		RatePerSec: 2000, // mean gap 0.5 ms against 1 ms of service: requests overlap
		Requests:   200,
		Gen:        Refilled(1, f.fill),
	}.Run(s, &holdingInvoker{t: t, s: s, service: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Completed != 200 {
		t.Errorf("completed = %d, want 200", res.Throughput.Completed)
	}
	if f.fresh+f.reused != 200 || f.fresh > 20 {
		t.Errorf("fresh/reused payloads = %d/%d, want 200 in all and no more fresh than were ever outstanding", f.fresh, f.reused)
	}
}

func TestFixedPayloadsAreNotRecycled(t *testing.T) {
	// Fixed generators own their payloads (this one hands out the same
	// slice every time): the driver must leave them alone.
	s := sim.New(1)
	shared := []byte("constant")
	_, err := ClosedLoop{
		Concurrency: 2,
		Requests:    10,
		Gen:         Fixed(1, func(int) []byte { return shared }),
	}.Run(s, &holdingInvoker{t: t, s: s, service: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if string(shared) != "constant" {
		t.Errorf("a Fixed payload was overwritten: %q", shared)
	}
}
