package transport

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"testing"

	"lambdanic/internal/matchlambda"
)

// The endpoint's memory bounds, shown rather than asserted: partial
// messages per shard, dedup-ring bytes per shard.

// allocBytes is how many bytes the whole process allocated while fn ran.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAbandonedPartialsEvicted has a sender give up mid-message on ten
// times as many requests as the shards may hold. The partials must stay
// within the bound, every eviction must be counted, and a complete
// message sent afterwards must still get through.
func TestAbandonedPartialsEvicted(t *testing.T) {
	n := NewMemNetwork(1)
	server, client := newPair(t, n, func(req *Message) ([]byte, error) {
		return req.Payload, nil
	})
	const abandoned = 10 * maxPartialsPerShard * numShards
	from := MemAddr("quitter")
	payload := bytes.Repeat([]byte{0x5A}, 3*DefaultMTU)
	for id := uint64(1); id <= abandoned; id++ {
		pkts, err := Fragment(reqHeader(id, 1), payload, DefaultMTU)
		if err != nil {
			t.Fatal(err)
		}
		// First fragment only: the rest never comes.
		if server.handlePacket(pkts[0], from, from.String(), nil) {
			t.Fatal("a fragment of a partial message took the read buffer")
		}
	}
	held := 0
	for i := range server.shards {
		sh := &server.shards[i]
		sh.mu.Lock()
		pending := sh.reasm.Pending()
		sh.mu.Unlock()
		if pending > maxPartialsPerShard {
			t.Errorf("shard %d holds %d partial messages, bound is %d", i, pending, maxPartialsPerShard)
		}
		held += pending
	}
	if got := server.Evictions(); got != uint64(abandoned-held) {
		t.Errorf("Evictions = %d, want %d (%d abandoned, %d still held)", got, abandoned-held, abandoned, held)
	}
	resp, err := client.Call(context.Background(), MemAddr("server"), 1, payload)
	if err != nil || !bytes.Equal(resp, payload) {
		t.Fatalf("complete message after the abandoned ones: %d bytes, err %v", len(resp), err)
	}
}

// TestResponseWithoutCallerStartsNoPartial: a fragment of a response
// nobody is waiting for (the caller timed out) must be dropped, not
// held as a partial message that can never complete.
func TestResponseWithoutCallerStartsNoPartial(t *testing.T) {
	n := NewMemNetwork(1)
	_, client := newPair(t, n, nil)
	h := matchlambda.WireHeader{Version: matchlambda.Version1, Flags: matchlambda.FlagResponse, WorkloadID: 1}
	from := MemAddr("server")
	for id := uint64(1); id <= 100; id++ {
		h.RequestID = id
		pkts, err := Fragment(h, make([]byte, 3*DefaultMTU), DefaultMTU)
		if err != nil {
			t.Fatal(err)
		}
		client.handlePacket(pkts[0], from, from.String(), nil)
	}
	for i := range client.shards {
		if got := client.shards[i].reasm.Pending(); got != 0 {
			t.Errorf("shard %d holds %d partial responses with no call pending", i, got)
		}
	}
}

// TestSeenCacheBytesBounded fills the dedup ring with 16 KiB responses:
// each shard must stay within its byte budget (64 live entries, not
// 256), account for exactly the arrays it holds, and — once warm — hand
// the evicted entry's array to the new one instead of allocating.
func TestSeenCacheBytesBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("needs thousands of bulk round trips")
	}
	const respLen = 16 << 10
	n := NewMemNetwork(1)
	reply := bytes.Repeat([]byte{0xE1}, respLen)
	server, client := newPair(t, n, func(req *Message) ([]byte, error) { return reply, nil })
	ctx := context.Background()
	call := func() {
		if resp, err := client.Call(ctx, MemAddr("server"), 1, []byte("q")); err != nil || len(resp) != respLen {
			t.Fatalf("%d bytes, err %v", len(resp), err)
		}
	}
	const perShard = seenBytesPerShard / respLen
	for i := 0; i < 2*perShard*numShards; i++ {
		call()
	}
	check := func() {
		t.Helper()
		for i := range server.shards {
			sh := &server.shards[i]
			sh.mu.Lock()
			held := 0
			for _, e := range sh.ring {
				held += cap(e.resp)
			}
			if sh.ringBytes != held || held > seenBytesPerShard {
				t.Errorf("shard %d: ringBytes %d, arrays hold %d, budget %d", i, sh.ringBytes, held, seenBytesPerShard)
			}
			if sh.ringLen != perShard || len(sh.seen) != perShard {
				t.Errorf("shard %d: %d live entries, %d keys, want %d", i, sh.ringLen, len(sh.seen), perShard)
			}
			sh.mu.Unlock()
		}
	}
	check()
	if raceEnabled {
		return // instrumentation inflates alloc counts
	}
	// Warm, the only allocation of any size is the reply that escapes
	// to the caller; a ring that dropped arrays instead of passing them
	// on would allocate a second 16 KiB per call.
	var perCall [2]uint64
	for round := range perCall {
		perCall[round] = allocBytes(func() {
			for i := 0; i < 200; i++ {
				call()
			}
		}) / 200
	}
	if got := min(perCall[0], perCall[1]); got > respLen+respLen/2 {
		t.Errorf("warm bulk-response round trip allocates %d bytes, want about %d (the reply itself)", got, respLen)
	}
	check()
}

func TestPeerNameFormatsOncePerRun(t *testing.T) {
	a := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4000}
	b := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4001}
	var p peerName
	for _, from := range []net.Addr{a, a, b, a, MemAddr("m2"), b} {
		if got := p.of(from); got != from.String() {
			t.Errorf("peer %v named %q", from, got)
		}
	}
	if raceEnabled {
		return
	}
	// ReadFrom returns a fresh *net.UDPAddr per packet: the same peer
	// behind another pointer must cost no formatting, nor must a reader
	// alternating between a few peers (a gateway's clients and workers).
	again := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4000}
	if avg := testing.AllocsPerRun(100, func() {
		_ = p.of(a)
		_ = p.of(b)
		_ = p.of(again)
	}); avg != 0 {
		t.Errorf("naming a repeated peer allocates %.1f times", avg)
	}
}
