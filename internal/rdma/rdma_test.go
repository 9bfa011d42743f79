package rdma

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"lambdanic/internal/cluster"
	"lambdanic/internal/sim"
)

func testEngine(t *testing.T) (*sim.Sim, *Engine) {
	t.Helper()
	s := sim.New(1)
	e := New(s, Config{
		Link:         cluster.Default().Link,
		PerPacketDMA: 200 * time.Nanosecond,
		MTU:          1400,
	})
	return s, e
}

func TestRegisterAndWrite(t *testing.T) {
	s, e := testEngine(t)
	r, err := e.Register("img", 4096)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, 1000)
	var doneErr error
	var doneAt sim.Time
	e.Write(r.Key(), 100, data, func(err error) {
		doneErr = err
		doneAt = s.Now()
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if doneErr != nil {
		t.Fatalf("write: %v", doneErr)
	}
	if doneAt <= 0 {
		t.Error("write completed instantaneously; no transfer time charged")
	}
	if !bytes.Equal(r.Bytes()[100:1100], data) {
		t.Error("data not committed to region")
	}
	c := e.Counters()
	if c.Writes != 1 || c.BytesWritten != 1000 || c.Violations != 0 {
		t.Errorf("counters = %d/%d/%d", c.Writes, c.BytesWritten, c.Violations)
	}
	if c.Doorbells != 1 {
		t.Errorf("doorbells = %d, want 1 (a bare Write rings its own)", c.Doorbells)
	}
}

func TestWriteBadKey(t *testing.T) {
	s, e := testEngine(t)
	var gotErr error
	e.Write(RKey(999), 0, []byte("x"), func(err error) { gotErr = err })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gotErr, ErrBadKey) {
		t.Errorf("err = %v, want ErrBadKey", gotErr)
	}
}

func TestWriteOutOfRegion(t *testing.T) {
	s, e := testEngine(t)
	r, err := e.Register("small", 16)
	if err != nil {
		t.Fatal(err)
	}
	var gotErr error
	e.Write(r.Key(), 10, []byte("0123456789"), func(err error) { gotErr = err })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gotErr, ErrAccessDenied) {
		t.Errorf("err = %v, want ErrAccessDenied", gotErr)
	}
	if c := e.Counters(); c.Violations != 1 {
		t.Errorf("violations = %d, want 1", c.Violations)
	}
}

func TestIsolationBetweenRegions(t *testing.T) {
	// A write authorized for one region must never touch another —
	// the lambda working-set isolation requirement (§3.1c).
	s, e := testEngine(t)
	r1, err := e.Register("lambda1", 64)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Register("lambda2", 64)
	if err != nil {
		t.Fatal(err)
	}
	e.Write(r1.Key(), 0, bytes.Repeat([]byte{0xFF}, 64), nil)
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for _, b := range r2.Bytes() {
		if b != 0 {
			t.Fatal("write to region 1 leaked into region 2")
		}
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	s, e := testEngine(t)
	r, err := e.Register("big", 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var smallAt, bigAt sim.Time
	e.Write(r.Key(), 0, make([]byte, 1000), func(error) { smallAt = s.Now() })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	start := s.Now()
	e.Write(r.Key(), 0, make([]byte, 1_000_000), func(error) { bigAt = s.Now() - start })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if bigAt < 100*smallAt {
		t.Errorf("1MB transfer (%v) not ≫ 1KB transfer (%v)", bigAt, smallAt)
	}
	// 1 MB at 10 Gbps is 800 µs of serialization alone.
	if bigAt < 800*time.Microsecond {
		t.Errorf("1MB transfer = %v, want >= 800µs", bigAt)
	}
}

func TestPackets(t *testing.T) {
	_, e := testEngine(t)
	tests := []struct {
		bytes, want int
	}{{0, 1}, {1, 1}, {1400, 1}, {1401, 2}, {14000, 10}}
	for _, tt := range tests {
		if got := e.Packets(tt.bytes); got != tt.want {
			t.Errorf("Packets(%d) = %d, want %d", tt.bytes, got, tt.want)
		}
	}
}

func TestRegisterInvalidSize(t *testing.T) {
	_, e := testEngine(t)
	if _, err := e.Register("zero", 0); err == nil {
		t.Error("Register(0) succeeded")
	}
	if _, err := e.RegisterBuffer("empty", nil); err == nil {
		t.Error("RegisterBuffer(nil) succeeded")
	}
}

func TestWriteCopiesAtSubmit(t *testing.T) {
	// Regression: the completion used to copy `data` at doneAt, so a
	// caller reusing a pooled buffer (the transport's sync.Pool packet
	// buffers do exactly this) corrupted the committed payload.
	s, e := testEngine(t)
	r, err := e.Register("staging", 4096)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 1000)
	e.Write(r.Key(), 0, data, nil)
	// The caller reuses its buffer before the completion fires.
	for i := range data {
		data[i] = 0xEE
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i, b := range r.Bytes()[:1000] {
		if b != 0xAB {
			t.Fatalf("region[%d] = %#x, want %#x: committed bytes aliased the caller's buffer", i, b, 0xAB)
		}
	}
}

// TestCommitMatchesWrite holds Commit to Write for the same arguments:
// the same completion times (queued behind each other on the link, with
// and without a doorbell cost), counters, events and access errors. A
// commit moves no bytes, so the region is never backed.
func TestCommitMatchesWrite(t *testing.T) {
	type outcome struct {
		at       []sim.Time
		errs     []string
		counters Counters
		events   uint64
		backed   int
	}
	run := func(commit bool, doorbell sim.Time) outcome {
		s := sim.New(1)
		e := New(s, Config{Link: cluster.Default().Link, PerPacketDMA: 200 * time.Nanosecond, MTU: 1400, DoorbellCost: doorbell})
		r, err := e.Register("rpc-staging", 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		ops := []struct {
			key       RKey
			offset, n int
		}{
			{r.Key(), 0, 1 << 20},
			{r.Key(), 0, 100},
			{r.Key(), 4096, 3*1400 + 1},
			{RKey(999), 0, 10},       // bad key
			{r.Key(), 64<<20 - 4, 8}, // past the end
			{r.Key(), -1, 4},         // before the start
			{r.Key(), 1 << 10, 0},
		}
		out := outcome{at: make([]sim.Time, len(ops)), errs: make([]string, len(ops))}
		for i, op := range ops {
			done := func(err error) { out.at[i], out.errs[i] = s.Now(), fmt.Sprint(err) }
			if commit {
				e.Commit(op.key, op.offset, op.n, done)
			} else {
				e.Write(op.key, op.offset, make([]byte, op.n), done)
			}
		}
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		out.counters, out.events, out.backed = e.Counters(), s.Executed, len(r.buf)
		return out
	}
	for _, doorbell := range []sim.Time{0, 3 * time.Microsecond} {
		write, commit := run(false, doorbell), run(true, doorbell)
		if write.backed == 0 {
			t.Fatal("the writes backed nothing; the backing check below would prove nothing")
		}
		write.backed = 0 // the one difference: Commit must back nothing
		if !reflect.DeepEqual(commit, write) {
			t.Errorf("doorbell %v: Commit %+v, Write %+v", doorbell, commit, write)
		}
		if commit.counters.Violations != 3 {
			t.Errorf("doorbell %v: %d violations, want 3", doorbell, commit.counters.Violations)
		}
	}
}

func TestReadRoundTrip(t *testing.T) {
	s, e := testEngine(t)
	r, err := e.Register("kv", 4096)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x5A}, 256)
	copy(r.Bytes()[128:], want)
	var got []byte
	var doneAt sim.Time
	e.Read(r.Key(), 128, 256, func(b []byte, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = append(got, b...) // b is pooled; copy out
		doneAt = s.Now()
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("read returned wrong bytes")
	}
	if doneAt <= 0 {
		t.Error("read completed instantaneously; no transfer time charged")
	}
	c := e.Counters()
	if c.Reads != 1 || c.BytesRead != 256 {
		t.Errorf("reads/bytesRead = %d/%d, want 1/256", c.Reads, c.BytesRead)
	}
}

func TestReadSeesCompletionTimeBytes(t *testing.T) {
	// A one-sided read returns the region's contents as of completion
	// time, not submit time — the owner may still be writing.
	s, e := testEngine(t)
	r, err := e.Register("live", 64)
	if err != nil {
		t.Fatal(err)
	}
	var got byte
	e.Read(r.Key(), 0, 1, func(b []byte, err error) { got = b[0] })
	r.Bytes()[0] = 0x42 // owner writes after submit, before completion
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got != 0x42 {
		t.Errorf("read = %#x, want completion-time value 0x42", got)
	}
}

func TestReadErrors(t *testing.T) {
	s, e := testEngine(t)
	r, err := e.Register("small", 16)
	if err != nil {
		t.Fatal(err)
	}
	var badKey, outOfRegion error
	e.Read(RKey(999), 0, 1, func(_ []byte, err error) { badKey = err })
	e.Read(r.Key(), 8, 16, func(_ []byte, err error) { outOfRegion = err })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(badKey, ErrBadKey) {
		t.Errorf("bad key err = %v, want ErrBadKey", badKey)
	}
	if !errors.Is(outOfRegion, ErrAccessDenied) {
		t.Errorf("out-of-region err = %v, want ErrAccessDenied", outOfRegion)
	}
	if c := e.Counters(); c.Violations != 2 {
		t.Errorf("violations = %d, want 2", c.Violations)
	}
}

func TestQPDoorbellBatching(t *testing.T) {
	// N posted writes flushed by one doorbell: one doorbell charge, N
	// batched ops, all committed.
	s, e := testEngine(t)
	r, err := e.Register("batch", 16*1024)
	if err != nil {
		t.Fatal(err)
	}
	qp := e.NewQP(0)
	const n = 8
	completed := 0
	for i := 0; i < n; i++ {
		payload := bytes.Repeat([]byte{byte(i + 1)}, 100)
		qp.PostWrite(r.Key(), i*1024, payload, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
			completed++
		})
	}
	if qp.Posted() != n {
		t.Fatalf("posted = %d, want %d", qp.Posted(), n)
	}
	qp.RingDoorbell()
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if completed != n {
		t.Fatalf("completed = %d, want %d", completed, n)
	}
	for i := 0; i < n; i++ {
		if r.Bytes()[i*1024] != byte(i+1) {
			t.Errorf("op %d not committed", i)
		}
	}
	c := e.Counters()
	if c.Doorbells != 1 {
		t.Errorf("doorbells = %d, want 1 for the whole batch", c.Doorbells)
	}
	if c.BatchedOps != n {
		t.Errorf("batchedOps = %d, want %d", c.BatchedOps, n)
	}
}

func TestQPDoorbellCostAmortized(t *testing.T) {
	// A batch of N ops under doorbell cost D finishes D later than a
	// free-doorbell batch — not N*D later: one MMIO covers the batch.
	const n = 16
	const dbCost = 10 * time.Microsecond
	run := func(cost sim.Time) sim.Time {
		s := sim.New(1)
		e := New(s, Config{Link: cluster.Default().Link, PerPacketDMA: 200 * time.Nanosecond, MTU: 1400, DoorbellCost: cost})
		r, err := e.Register("amort", n*1400)
		if err != nil {
			t.Fatal(err)
		}
		qp := e.NewQP(0)
		var last sim.Time
		for i := 0; i < n; i++ {
			qp.PostWrite(r.Key(), i*1400, make([]byte, 1400), func(error) { last = s.Now() })
		}
		qp.RingDoorbell()
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	free, charged := run(0), run(dbCost)
	if got := charged - free; got != dbCost {
		t.Errorf("batched doorbell added %v, want exactly %v (one charge per batch)", got, dbCost)
	}
}

func TestQPWindowStallsAndCompletion(t *testing.T) {
	s, e := testEngine(t)
	r, err := e.Register("win", 16*1024)
	if err != nil {
		t.Fatal(err)
	}
	qp := e.NewQP(2)
	const n = 5
	completed := 0
	for i := 0; i < n; i++ {
		qp.PostWrite(r.Key(), 0, make([]byte, 1400), func(error) { completed++ })
	}
	qp.RingDoorbell()
	if qp.Outstanding() != 2 {
		t.Errorf("outstanding = %d, want window limit 2", qp.Outstanding())
	}
	if c := e.Counters(); c.WindowStalls != n-2 {
		t.Errorf("windowStalls = %d, want %d", c.WindowStalls, n-2)
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if completed != n {
		t.Errorf("completed = %d, want %d: deferred ops must issue as the window opens", completed, n)
	}
	if qp.Outstanding() != 0 {
		t.Errorf("outstanding = %d after idle, want 0", qp.Outstanding())
	}
}

func TestQPReadsScaleWithWindow(t *testing.T) {
	// SMART-style behavior in miniature: a wider outstanding window
	// overlaps request hops with link serialization, finishing a fixed
	// op count sooner — up to the bandwidth bound.
	elapsed := func(window int) sim.Time {
		s := sim.New(1)
		e := New(s, Config{Link: cluster.Default().Link, PerPacketDMA: 200 * time.Nanosecond, MTU: 1400})
		r, err := e.Register("curve", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		qp := e.NewQP(window)
		var last sim.Time
		for i := 0; i < 64; i++ {
			qp.PostRead(r.Key(), 0, 128, func([]byte, error) { last = s.Now() })
		}
		qp.RingDoorbell()
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	w1, w8 := elapsed(1), elapsed(8)
	if w8 >= w1 {
		t.Errorf("window 8 (%v) not faster than window 1 (%v)", w8, w1)
	}
}

func TestQPErrorsSkipWindow(t *testing.T) {
	s, e := testEngine(t)
	r, err := e.Register("ok", 1024)
	if err != nil {
		t.Fatal(err)
	}
	qp := e.NewQP(1)
	var badErr error
	goodDone := false
	qp.PostWrite(RKey(999), 0, []byte("x"), func(err error) { badErr = err })
	qp.PostRead(r.Key(), 0, 16, func(_ []byte, err error) { goodDone = err == nil })
	qp.RingDoorbell()
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(badErr, ErrBadKey) {
		t.Errorf("bad op err = %v, want ErrBadKey", badErr)
	}
	if !goodDone {
		t.Error("valid op behind a faulted one never completed")
	}
}

// heapGrowth reports how many heap bytes fn leaves allocated.
func heapGrowth(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

func TestRegisterBacksOnFirstTouch(t *testing.T) {
	const size = 64 << 20
	s, e := testEngine(t)
	var r *Region
	if grew := heapGrowth(func() {
		var err error
		if r, err = e.Register("rpc-staging", size); err != nil {
			t.Fatal(err)
		}
	}); grew >= 1<<20 {
		t.Errorf("Register(64 MiB) grew the heap by %d bytes, want < 1 MiB", grew)
	}

	// The registered size, not the backing, bounds every access.
	var gotErr error
	e.Write(r.Key(), size-4, []byte("12345678"), func(err error) { gotErr = err })
	if !errors.Is(gotErr, ErrAccessDenied) {
		t.Errorf("write past the registered size: err = %v, want ErrAccessDenied", gotErr)
	}
	if want := fmt.Sprintf("rdma: access outside registered region: [%d:%d) of %d", size-4, size+4, size); gotErr == nil || gotErr.Error() != want {
		t.Errorf("err = %q, want %q", gotErr, want)
	}
	if c := e.Counters(); c.Violations != 1 {
		t.Errorf("violations = %d, want 1", c.Violations)
	}

	// A write far into the region lands, and backs no more than it must.
	data := bytes.Repeat([]byte{0x5A}, 1000)
	if grew := heapGrowth(func() {
		e.Write(r.Key(), 1<<20, data, nil)
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}); grew >= 2<<20 {
		t.Errorf("a write ending at 1 MiB+1000 grew the heap by %d bytes, want < 2 MiB", grew)
	}

	// Reads see committed bytes, zeros before them, zeros in ranges never
	// backed, and zeros where a range runs off the end of the backing.
	read := func(offset, length int) []byte {
		var got []byte
		e.Read(r.Key(), offset, length, func(b []byte, err error) {
			if err != nil {
				t.Errorf("read [%d:%d): %v", offset, offset+length, err)
			}
			got = append([]byte{}, b...)
		})
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := read(1<<20, 1000); !bytes.Equal(got, data) {
		t.Error("read of the written range returned other bytes")
	}
	zeros := make([]byte, 4096)
	if got := read(4096, 4096); !bytes.Equal(got, zeros) {
		t.Error("read below the written range is not zeros")
	}
	if got := read(32<<20, 4096); !bytes.Equal(got, zeros) {
		t.Error("read of an untouched range is not zeros")
	}
	if got := read(1<<20+500, 1000); !bytes.Equal(got[:500], data[500:]) || !bytes.Equal(got[500:], zeros[:500]) {
		t.Error("read across the end of the backing: want the written tail, then zeros")
	}

	// The owner's view is the whole region, and it is the region: what
	// the owner stores, a remote read returns.
	all := r.Bytes()
	if len(all) != size {
		t.Fatalf("len(Bytes()) = %d, want the registered %d", len(all), size)
	}
	if !bytes.Equal(all[1<<20:1<<20+1000], data) {
		t.Error("Bytes() lost the committed write")
	}
	all[48<<20] = 0x42
	if got := read(48<<20, 1); got[0] != 0x42 {
		t.Errorf("read of an owner store = %#x, want 0x42", got[0])
	}
}

func TestRegisterBufferIsTheCallersMemory(t *testing.T) {
	s, e := testEngine(t)
	buf := make([]byte, 256)
	r, err := e.RegisterBuffer("kv-table", buf)
	if err != nil {
		t.Fatal(err)
	}
	e.Write(r.Key(), 16, []byte("value"), nil)
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if string(buf[16:21]) != "value" {
		t.Error("write to a RegisterBuffer region did not land in the caller's buffer")
	}
	if all := r.Bytes(); len(all) != len(buf) || &all[0] != &buf[0] {
		t.Error("Bytes() of a RegisterBuffer region is not the caller's buffer")
	}
	var gotErr error
	e.Write(r.Key(), 250, []byte("0123456789"), func(err error) { gotErr = err })
	if !errors.Is(gotErr, ErrAccessDenied) {
		t.Errorf("write past the buffer: err = %v, want ErrAccessDenied", gotErr)
	}
}

// TestWriteStagingSurvivesGC gates the submit-time copy: a warm 1 MiB
// Write allocates its completion closure plus what the sim kernel does
// to queue it, and a collection between writes does not cost it the
// staging buffer (the sync.Pool this replaces was emptied by every GC).
func TestWriteStagingSurvivesGC(t *testing.T) {
	s, e := testEngine(t)
	r, err := e.Register("rpc-staging", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 1<<20)
	done := func(error) {}
	write := func() {
		e.Write(r.Key(), 0, data, done)
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	write() // warm: backs the region, allocates the staging buffer
	for round := 0; round < 3; round++ {
		runtime.GC()
		if avg := testing.AllocsPerRun(10, write); avg > 2 {
			t.Errorf("after %d collections a warm 1 MiB Write allocates %.1f times per op, want <= 2", round+1, avg)
		}
	}
}
