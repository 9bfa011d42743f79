package transport

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// TestMemConnCloseRacingWriters: Close while 8 writers keep sending to
// the conn never sends on the closed inbox (run under -race).
func TestMemConnCloseRacingWriters(t *testing.T) {
	for round := 0; round < 10; round++ {
		n := NewMemNetwork(1)
		dst, err := n.Listen("dst")
		if err != nil {
			t.Fatal(err)
		}
		var started, done sync.WaitGroup
		for w := 0; w < 8; w++ {
			src, err := n.Listen(string(rune('a' + w)))
			if err != nil {
				t.Fatal(err)
			}
			started.Add(1)
			done.Add(1)
			go func() {
				defer done.Done()
				defer src.Close()
				started.Done()
				for i := 0; i < 2000; i++ {
					if _, err := src.WriteTo([]byte("x"), MemAddr("dst")); err != nil {
						t.Errorf("WriteTo on an open conn: %v", err)
						return
					}
				}
			}()
		}
		started.Wait()
		// A reader too, so Close races receives as well as sends.
		done.Add(1)
		go func() {
			defer done.Done()
			buf := make([]byte, 16)
			for {
				if _, _, err := dst.ReadFrom(buf); err != nil {
					return
				}
			}
		}()
		dst.Close()
		dst.Close() // idempotent
		done.Wait()
	}
}

// TestMemConnReadsQueuedThenClosed: packets already queued at Close are
// still delivered; then ReadFrom reports net.ErrClosed.
func TestMemConnReadsQueuedThenClosed(t *testing.T) {
	n := NewMemNetwork(1)
	src, _ := n.Listen("src")
	defer src.Close()
	dst, _ := n.Listen("dst")
	for i := 0; i < 3; i++ {
		if _, err := src.WriteTo([]byte{byte(i)}, MemAddr("dst")); err != nil {
			t.Fatal(err)
		}
	}
	dst.Close()
	if _, err := src.WriteTo([]byte("late"), MemAddr("dst")); err != nil {
		t.Errorf("write to a closed peer: %v (the network drops it silently)", err)
	}
	buf := make([]byte, 8)
	for i := 0; i < 3; i++ {
		got, from, err := dst.ReadFrom(buf)
		if err != nil || got != 1 || buf[0] != byte(i) || from.String() != "src" {
			t.Fatalf("read %d: n=%d byte=%d from=%v err=%v", i, got, buf[0], from, err)
		}
	}
	if _, _, err := dst.ReadFrom(buf); !errors.Is(err, net.ErrClosed) {
		t.Errorf("ReadFrom on a drained closed conn: %v, want net.ErrClosed", err)
	}
}

// TestMemConnFullInboxDrops: a receiver that does not read loses what
// does not fit, and the sender is not held up.
func TestMemConnFullInboxDrops(t *testing.T) {
	n := NewMemNetwork(1)
	src, _ := n.Listen("src")
	defer src.Close()
	dst, _ := n.Listen("dst")
	defer dst.Close()
	depth := cap(dst.inbox)
	for i := 0; i < depth+50; i++ {
		if _, err := src.WriteTo([]byte("x"), MemAddr("dst")); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(dst.inbox); got != depth {
		t.Errorf("inbox holds %d packets, want %d (the rest dropped)", got, depth)
	}
}

// TestMemNetworkSeededFaultSequence: with any rate non-zero the hub
// draws exactly three numbers per routed packet — loss, duplication,
// reordering, in that order — so packet k's fate is draws 3k, 3k+1,
// 3k+2 of the seed's sequence. The test replays a reference generator
// through a model of the receive queue and expects the same arrivals in
// the same order.
func TestMemNetworkSeededFaultSequence(t *testing.T) {
	const seed, packets = 99, 400
	const loss, dup, reorder = 0.2, 0.15, 0.25
	n := NewMemNetwork(seed)
	n.LossRate, n.DupRate, n.ReorderRate = loss, dup, reorder
	src, _ := n.Listen("src")
	defer src.Close()
	dst, _ := n.Listen("dst")
	defer dst.Close()

	ref := rand.New(rand.NewSource(seed))
	var want []uint32
	held, holding := uint32(0), false
	arrive := func(k uint32, delay bool) {
		if delay && !holding {
			held, holding = k, true
			return
		}
		want = append(want, k)
		if holding {
			want = append(want, held)
			holding = false
		}
	}
	for k := uint32(0); k < packets; k++ {
		drop, twice, late := ref.Float64() < loss, ref.Float64() < dup, ref.Float64() < reorder
		if drop {
			continue
		}
		if twice {
			arrive(k, false)
		}
		arrive(k, late)
	}

	var pkt [4]byte
	for k := uint32(0); k < packets; k++ {
		binary.BigEndian.PutUint32(pkt[:], k)
		if _, err := src.WriteTo(pkt[:], MemAddr("dst")); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(dst.inbox); got != len(want) {
		t.Fatalf("%d packets arrived, the seed's sequence says %d", got, len(want))
	}
	for i, k := range want {
		if _, _, err := dst.ReadFrom(pkt[:]); err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint32(pkt[:]); got != k {
			t.Fatalf("arrival %d is packet %d, want %d", i, got, k)
		}
	}
}

// TestMemNetworkFaultFreeDrawsNothing: a hub with all rates zero leaves
// its generator untouched (and takes no hub-wide lock per packet).
func TestMemNetworkFaultFreeDrawsNothing(t *testing.T) {
	const seed = 7
	n := NewMemNetwork(seed)
	src, _ := n.Listen("src")
	defer src.Close()
	dst, _ := n.Listen("dst")
	defer dst.Close()
	for i := 0; i < 100; i++ {
		if _, err := src.WriteTo([]byte("x"), MemAddr("dst")); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(dst.inbox); got != 100 {
		t.Fatalf("%d of 100 packets arrived on a fault-free hub", got)
	}
	if got, want := n.rng.Float64(), rand.New(rand.NewSource(seed)).Float64(); got != want {
		t.Errorf("the hub's next draw is %v, the seed's first is %v: fault-free traffic drew numbers", got, want)
	}
}

// TestMemConnReadDeadline: a read past the deadline fails with
// os.ErrDeadlineExceeded; a later deadline, and a cleared one, let
// packets through again; a deadline already past fails at once, and a
// moved one holds to where it was moved.
func TestMemConnReadDeadline(t *testing.T) {
	n := NewMemNetwork(1)
	a, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := n.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	buf := make([]byte, 16)
	read := func() error {
		_, _, err := b.ReadFrom(buf)
		return err
	}
	start := time.Now()
	b.SetReadDeadline(start.Add(10 * time.Millisecond))
	if err := read(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past the deadline: %v", err)
	}
	if took := time.Since(start); took < 10*time.Millisecond || took > time.Second {
		t.Errorf("deadline read returned after %v", took)
	}
	for _, dl := range []time.Time{time.Now().Add(time.Second), {}} {
		b.SetReadDeadline(dl)
		a.WriteTo([]byte("x"), MemAddr("b"))
		if err := read(); err != nil {
			t.Errorf("read under deadline %v: %v", dl, err)
		}
	}
	b.SetReadDeadline(time.Now().Add(-time.Second))
	if err := read(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("read under a past deadline: %v", err)
	}
	// A deadline moved later holds the read to the later one; moved
	// earlier, to the earlier one.
	for _, tc := range []struct{ first, then time.Duration }{
		{10 * time.Millisecond, 40 * time.Millisecond},
		{time.Minute, 10 * time.Millisecond},
	} {
		start := time.Now()
		b.SetReadDeadline(start.Add(tc.first))
		b.SetReadDeadline(start.Add(tc.then))
		if err := read(); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("deadline moved from %v to %v: %v", tc.first, tc.then, err)
		}
		if took := time.Since(start); took < tc.then || took > tc.then+time.Second {
			t.Errorf("deadline moved from %v to %v: read returned after %v", tc.first, tc.then, took)
		}
	}
}
