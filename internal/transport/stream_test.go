package transport

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"lambdanic/internal/matchlambda"
)

// TestFragmentCountBoundary pins the fragment-count limit exactly at
// the wire header's uint16 capacity: MaxFragments fragments succeed,
// one more fails with ErrTooManyFragments.
func TestFragmentCountBoundary(t *testing.T) {
	h := matchlambda.WireHeader{Version: matchlambda.Version1, WorkloadID: 1, RequestID: 7}

	pkts, err := Fragment(h, make([]byte, MaxFragments), 1)
	if err != nil {
		t.Fatalf("Fragment at exactly MaxFragments: %v", err)
	}
	if len(pkts) != MaxFragments {
		t.Fatalf("fragments = %d, want %d", len(pkts), MaxFragments)
	}

	if _, err := Fragment(h, make([]byte, MaxFragments+1), 1); !errors.Is(err, ErrTooManyFragments) {
		t.Errorf("Fragment one past the limit: err = %v, want ErrTooManyFragments", err)
	}
}

// TestCallRejectsOversizedPayload checks the streaming send path
// refuses a payload that cannot be expressed in MaxFragments fragments
// before anything hits the wire.
func TestCallRejectsOversizedPayload(t *testing.T) {
	n := NewMemNetwork(1)
	_, client := newPair(t, n, func(req *Message) ([]byte, error) { return nil, nil },
		WithMTU(1))
	_, err := client.Call(context.Background(), MemAddr("server"), 1, make([]byte, MaxFragments+1))
	if !errors.Is(err, ErrTooManyFragments) {
		t.Errorf("err = %v, want ErrTooManyFragments", err)
	}
}

// TestMaxFragmentReassemblyReorderDup reassembles a message of exactly
// MaxFragments fragments delivered in a deterministic shuffle with
// injected duplicates — the worst case the uint16 sequence space
// allows.
func TestMaxFragmentReassemblyReorderDup(t *testing.T) {
	if testing.Short() {
		t.Skip("65535-fragment reassembly is slow under -short")
	}
	payload := make([]byte, MaxFragments)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	h := matchlambda.WireHeader{Version: matchlambda.Version1, WorkloadID: 2, RequestID: 42}
	pkts, err := Fragment(h, payload, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	rng.Shuffle(len(pkts), func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
	// Duplicate every 97th fragment immediately after itself.
	dup := make([][]byte, 0, len(pkts)+len(pkts)/97+1)
	for i, p := range pkts {
		dup = append(dup, p)
		if i%97 == 0 {
			dup = append(dup, p)
		}
	}
	r := NewReassembler()
	var got *Message
	for _, p := range dup {
		m, err := r.AddFrom(p, "peer")
		if err != nil {
			t.Fatalf("AddFrom: %v", err)
		}
		if m != nil {
			if got != nil {
				t.Fatal("message assembled twice")
			}
			got = m
		}
	}
	if got == nil {
		t.Fatal("message never assembled")
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Error("reassembled payload differs from original")
	}
	if r.Pending() != 0 {
		t.Errorf("pending = %d after completion, want 0", r.Pending())
	}
}

// TestStreamRoundTripAllocs gates the allocation budget of the
// multi-fragment path: neither the windowed streaming send nor the
// in-place reassembly may allocate per fragment.
func TestStreamRoundTripAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state warmup")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates alloc counts")
	}
	n := NewMemNetwork(1)
	payload := bytes.Repeat([]byte{0x7E}, 6*DefaultMTU) // 6 request fragments
	_, client := newPair(t, n, func(req *Message) ([]byte, error) {
		return req.Payload, nil // 6 response fragments back
	})
	ctx := context.Background()
	call := func() {
		resp, err := client.Call(ctx, MemAddr("server"), 1, payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp) != len(payload) {
			t.Fatalf("resp = %d bytes, want %d", len(resp), len(payload))
		}
	}
	for i := 0; i < 100; i++ {
		call()
	}
	avg := testing.AllocsPerRun(300, call)
	// Each side places every fragment once into one message buffer:
	// the server's is pooled, the client's escapes to the caller and is
	// the one allocation a round trip needs (measured: 2.0). Anything
	// per fragment — the old reassembler's slice per fragment plus the
	// concatenated copy came to 21 — fails the gate.
	if avg > 6 {
		t.Errorf("streamed round trip allocates %.1f allocs/op, want ≤ 6", avg)
	}
}

// TestStreamSmallWindow exercises burst pacing: a one-fragment window
// must still deliver a large message intact.
func TestStreamSmallWindow(t *testing.T) {
	n := NewMemNetwork(17)
	payload := bytes.Repeat([]byte{0xC3}, 20*DefaultMTU)
	_, client := newPair(t, n, func(req *Message) ([]byte, error) {
		if !bytes.Equal(req.Payload, payload) {
			return nil, errors.New("payload corrupted")
		}
		return []byte("ok"), nil
	}, WithSendWindow(1))
	resp, err := client.Call(context.Background(), MemAddr("server"), 1, payload)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != "ok" {
		t.Errorf("resp = %q", resp)
	}
}
