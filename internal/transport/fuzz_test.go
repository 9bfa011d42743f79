package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"lambdanic/internal/matchlambda"
)

// Robustness properties: hostile or corrupted packets must never panic
// the reassembler or header decoder — the λ-NIC framework faces the
// open network (§3.1c: "robust against security attacks ... from
// outside actors").

func TestDecodeWireHeaderNeverPanicsProperty(t *testing.T) {
	f := func(raw []byte) bool {
		_, _, _ = matchlambda.DecodeWireHeader(raw)
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReassemblerSurvivesGarbageProperty(t *testing.T) {
	f := func(packets [][]byte) bool {
		r := NewReassembler()
		r.MaxPending = 16
		for _, p := range packets {
			_, _ = r.Add(p) // errors fine, panics are not
		}
		return r.Pending() <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReassemblerSurvivesForgedHeaders(t *testing.T) {
	// Valid magic/version but adversarial field combinations.
	f := func(wid uint32, rid uint64, seq, total uint16, plen uint32, payload []byte) bool {
		h := matchlambda.WireHeader{
			Version: matchlambda.Version1, WorkloadID: wid, RequestID: rid,
			Seq: seq, Total: total, PayloadLen: plen,
		}
		pkt := h.Encode(nil)
		pkt = append(pkt, payload...)
		r := NewReassembler()
		msg, err := r.Add(pkt)
		if err != nil {
			return true
		}
		if total <= 1 {
			// Single-packet fast path must surface the payload as-is.
			return msg != nil && len(msg.Payload) == len(payload)
		}
		// Multi-packet first fragment: incomplete.
		return msg == nil && r.Pending() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// forged builds one hand-made fragment of request 5, workload 1.
func forged(seq, total uint16, payloadLen uint32, payload string) []byte {
	h := matchlambda.WireHeader{Version: matchlambda.Version1, WorkloadID: 1, RequestID: 5,
		Seq: seq, Total: total, PayloadLen: payloadLen}
	return append(h.Encode(nil), payload...)
}

func TestInconsistentFragmentsRejected(t *testing.T) {
	// A 3-fragment, 7-byte message in fragments of 3: "abc" "def" "g".
	// Every fragment below disagrees with the first one to arrive (or
	// with itself) and must be rejected without corrupting its state.
	r := NewReassembler()
	if _, err := r.Add(forged(0, 3, 7, "abc")); err != nil {
		t.Fatal(err)
	}
	other := matchlambda.WireHeader{Version: matchlambda.Version1, WorkloadID: 9, RequestID: 5,
		Seq: 2, Total: 3, PayloadLen: 7}
	for _, c := range []struct {
		name string
		pkt  []byte
	}{
		{"different total", forged(1, 4, 10, "def")},
		{"different workload", append(other.Encode(nil), 'g')},
		{"different PayloadLen", forged(1, 3, 8, "def")},
		{"different fragment length", forged(1, 3, 7, "de")},
		{"last fragment too long", forged(2, 3, 7, "gh")},
		{"seq past total", forged(3, 3, 7, "abc")},
		{"empty non-last fragment", forged(1, 3, 7, "")},
		{"PayloadLen short of the fragments", forged(1, 3, 5, "def")},
		{"PayloadLen past the fragments", forged(1, 3, 10, "def")},
	} {
		if m, err := r.Add(c.pkt); !errors.Is(err, ErrInconsistentFragment) || m != nil {
			t.Errorf("%s: msg %v, err %v, want ErrInconsistentFragment", c.name, m, err)
		}
	}
	if _, err := r.Add(forged(2, 3, 7, "g")); err != nil {
		t.Fatal(err)
	}
	m, err := r.Add(forged(1, 3, 7, "def"))
	if err != nil || m == nil || string(m.Payload) != "abcdefg" {
		t.Fatalf("after the rejected fragments: msg %v, err %v, want abcdefg", m, err)
	}
}

func TestLastFragmentFirst(t *testing.T) {
	// The last fragment alone fixes the geometry: L = (PayloadLen −
	// len) / (Total − 1) must divide, and the rest must then agree.
	r := NewReassembler()
	if _, err := r.Add(forged(2, 3, 7, "g")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(forged(0, 3, 7, "ab")); !errors.Is(err, ErrInconsistentFragment) {
		t.Errorf("2-byte fragment after a last fragment that implies 3: err = %v", err)
	}
	if _, err := r.Add(forged(1, 3, 7, "def")); err != nil {
		t.Fatal(err)
	}
	m, err := r.Add(forged(0, 3, 7, "abc"))
	if err != nil || m == nil || string(m.Payload) != "abcdefg" {
		t.Fatalf("msg %v, err %v, want abcdefg", m, err)
	}
	// 8 − 1 = 7 bytes do not split over two equal fragments.
	if _, err := NewReassembler().Add(forged(2, 3, 8, "g")); !errors.Is(err, ErrInconsistentFragment) {
		t.Errorf("indivisible geometry: err = %v", err)
	}
}

// committed is the memory a reassembler holds for partial messages: the
// message buffers (a pooled one counts whole) and the bitmaps.
func committed(r *Reassembler) int {
	n := 0
	for _, pm := range r.partial {
		n += 8 * cap(pm.got)
		if pm.pb != nil {
			n += cap(*pm.pb)
		} else {
			n += len(pm.buf)
		}
	}
	return n
}

// proportional reports whether every partial message's buffer is within
// the bound reserve documents.
func proportional(r *Reassembler) bool {
	for _, pm := range r.partial {
		if len(pm.buf) > 2*wholeMsgLimit+4*pm.received() {
			return false
		}
	}
	return true
}

func TestForgedGeometryCommitsLittle(t *testing.T) {
	// A first fragment claiming the largest message the header can
	// describe must cost what its bytes pay for, not what it claims —
	// wherever in the message it says it lands, pooled or not.
	const total, l, lastLen = MaxFragments, 1440, 480
	const size = l*(total-1) + lastLen // 90 MB, and a geometry that holds together
	for _, pooled := range []bool{false, true} {
		for _, seq := range []uint16{0, total / 2, total - 1} {
			r := NewReassembler()
			h := matchlambda.WireHeader{Version: matchlambda.Version1, WorkloadID: 1, RequestID: 5,
				Seq: seq, Total: total, PayloadLen: size}
			n := l
			if seq == total-1 {
				n = lastLen
			}
			var done bool
			var err error
			fragment := make([]byte, n)
			allocated := allocBytes(func() {
				_, _, done, err = r.addFragment(h, fragment, "forger", pooled)
			})
			if done || (err != nil && !errors.Is(err, ErrFragmentAhead)) {
				t.Fatalf("seq %d: done %v, err %v", seq, done, err)
			}
			if seq == 0 && err != nil {
				t.Errorf("seq 0 refused: %v", err)
			}
			if allocated > 2<<20 {
				t.Errorf("seq %d pooled %v: allocated %d bytes, want ≤ 2 MiB", seq, pooled, allocated)
			}
			if got := committed(r); got > 2<<20 || !proportional(r) {
				t.Errorf("seq %d pooled %v: %d bytes committed, want ≤ 2 MiB and proportional", seq, pooled, got)
			}
		}
	}
}

func TestLargeMessageGrowsWithBytesReceived(t *testing.T) {
	// Past wholeMsgLimit the buffer grows geometrically: in order it
	// reassembles like any other message, and a fragment far ahead of
	// what has arrived is refused until the bytes below it are there.
	payload := make([]byte, 3*wholeMsgLimit+777)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	pkts, err := Fragment(reqHeader(8, 2), payload, DefaultMTU)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler()
	if _, err := r.Add(pkts[len(pkts)-1]); !errors.Is(err, ErrFragmentAhead) {
		t.Fatalf("last fragment of a large message first: err = %v, want ErrFragmentAhead", err)
	}
	var got *Message
	for _, pkt := range pkts {
		m, err := r.Add(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if !proportional(r) {
			t.Fatal("buffer outgrew the bytes received")
		}
		got = m
	}
	if got == nil || !bytes.Equal(got.Payload, payload) {
		t.Fatal("large message did not reassemble")
	}
}

// oracleReassembler is the implementation the in-place reassembler
// replaced, kept as the reference FuzzReassembler compares against: it
// copies every fragment into its own slice and concatenates them on
// completion. It never looks at PayloadLen or fragment lengths, so it
// only agrees with the real one on well-formed fragment sets.
type oracleReassembler struct {
	partial map[messageKey]*oraclePartial
}

type oraclePartial struct {
	header    matchlambda.WireHeader
	fragments [][]byte
	have      int
}

func (r *oracleReassembler) add(pkt []byte, src string) (*Message, error) {
	h, payload, err := matchlambda.DecodeWireHeader(pkt)
	if err != nil {
		return nil, err
	}
	if h.Total <= 1 {
		return &Message{Header: h, Payload: append([]byte(nil), payload...)}, nil
	}
	key := messageKey{src: src, id: h.RequestID}
	pm, ok := r.partial[key]
	if !ok {
		pm = &oraclePartial{header: h, fragments: make([][]byte, h.Total)}
		r.partial[key] = pm
	}
	if h.Total != pm.header.Total || h.WorkloadID != pm.header.WorkloadID || int(h.Seq) >= len(pm.fragments) {
		return nil, ErrInconsistentFragment
	}
	if pm.fragments[h.Seq] != nil {
		return nil, nil // duplicate
	}
	pm.fragments[h.Seq] = append([]byte(nil), payload...)
	pm.have++
	if pm.have < int(pm.header.Total) {
		return nil, nil
	}
	delete(r.partial, key)
	full := make([]byte, 0, pm.header.PayloadLen)
	for _, f := range pm.fragments {
		full = append(full, f...)
	}
	msg := &Message{Header: pm.header, Payload: full}
	msg.Header.Seq = 0
	return msg, nil
}

// FuzzReassembler checks the reassembler two ways. Differentially: the
// fragments of payload (at most wholeMsgLimit bytes, cut at an MTU from
// mtuSeed) are delivered in the order and with the repeats that order
// spells out, then once more in sequence, to the real reassembler and
// to the oracle, which must agree packet by packet. And for robustness:
// raw is cut into length-prefixed packets, each delivered as it is and
// again behind a forged header built from its first nine bytes (request
// ID, Seq, Total, PayloadLen); they may be rejected but must never
// panic, exceed MaxPending, or commit more than the bytes received pay
// for.
func FuzzReassembler(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, mtuSeed uint16, order []byte, raw []byte) {
		if len(payload) > wholeMsgLimit {
			payload = payload[:wholeMsgLimit]
		}
		pkts, err := Fragment(reqHeader(77, 3), payload, int(mtuSeed)%1500+1)
		if err != nil {
			t.Skip() // more than MaxFragments: nothing to deliver
		}
		r := NewReassembler()
		oracle := &oracleReassembler{partial: make(map[messageKey]*oraclePartial)}
		deliver := func(pkt []byte) *Message {
			got, err := r.AddFrom(pkt, "peer")
			want, werr := oracle.add(pkt, "peer")
			if err != nil || werr != nil {
				t.Fatalf("well-formed fragment rejected: %v (oracle: %v)", err, werr)
			}
			if (got == nil) != (want == nil) {
				t.Fatalf("completion differs: got %v, oracle %v", got != nil, want != nil)
			}
			if got != nil && (!bytes.Equal(got.Payload, want.Payload) || got.Header != want.Header) {
				t.Fatalf("message differs from the oracle's: %d vs %d bytes", len(got.Payload), len(want.Payload))
			}
			return got
		}
		for _, o := range order {
			deliver(pkts[int(o)%len(pkts)])
		}
		var last *Message
		for _, pkt := range pkts {
			if m := deliver(pkt); m != nil {
				last = m
			}
		}
		if last == nil || !bytes.Equal(last.Payload, payload) {
			t.Fatalf("payload never reassembled (%d bytes, %d fragments)", len(payload), len(pkts))
		}

		hostile := NewReassembler()
		hostile.MaxPending = 4
		for len(raw) > 1 {
			n := min(int(raw[0])%64+1, len(raw)-1)
			pkt := raw[1 : 1+n]
			raw = raw[1+n:]
			_, _ = hostile.Add(pkt)
			if len(pkt) >= 9 {
				h := matchlambda.WireHeader{Version: matchlambda.Version1, WorkloadID: 1,
					RequestID:  uint64(pkt[0] % 8),
					Seq:        binary.BigEndian.Uint16(pkt[1:3]),
					Total:      binary.BigEndian.Uint16(pkt[3:5]),
					PayloadLen: binary.BigEndian.Uint32(pkt[5:9])}
				_, _ = hostile.Add(append(h.Encode(nil), pkt[9:]...))
			}
			if hostile.Pending() > hostile.MaxPending || !proportional(hostile) {
				t.Fatalf("after %x: %d pending, %d bytes committed", pkt, hostile.Pending(), committed(hostile))
			}
		}
	})
}
