package matchlambda

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeWireHeader drives the parser every UDP packet the transport
// receives goes through. Arbitrary bytes never panic and fail only with
// the error their first bytes call for; a packet that decodes
// re-encodes to its own first 24 bytes and yields the rest of the
// packet, in place, as payload; and a header built from arbitrary field
// values round-trips through Encode and DecodeWireHeader.
func FuzzDecodeWireHeader(f *testing.F) {
	valid := (&WireHeader{Version: Version1, Flags: FlagResponse, WorkloadID: 7, RequestID: 42, Seq: 1, Total: 3, PayloadLen: 5}).Encode(nil)
	f.Add(append(valid, "hello"...), uint8(Version1), uint8(0), uint32(1), uint64(2), uint16(0), uint16(1), uint32(3), []byte("abc"))
	f.Add(valid[:WireHeaderSize-1], uint8(2), uint8(FlagError), uint32(0), uint64(0), uint16(9), uint16(9), uint32(0), []byte(nil))
	f.Add(append([]byte{0, 0}, valid[2:]...), uint8(0), uint8(0xff), ^uint32(0), ^uint64(0), ^uint16(0), ^uint16(0), ^uint32(0), []byte{0})
	f.Add((&WireHeader{Version: 9}).Encode(nil), uint8(Version1), uint8(0), uint32(0), uint64(0), uint16(0), uint16(0), uint32(0), []byte{})
	f.Fuzz(func(t *testing.T, pkt []byte, version, flags uint8, wid uint32, rid uint64, seq, total uint16, plen uint32, payload []byte) {
		h, rest, err := DecodeWireHeader(pkt)
		switch {
		case len(pkt) < WireHeaderSize:
			if !errors.Is(err, ErrShortPacket) {
				t.Fatalf("%d-byte packet: err = %v, want ErrShortPacket", len(pkt), err)
			}
		case pkt[0] != Magic>>8 || pkt[1] != Magic&0xff:
			if !errors.Is(err, ErrBadMagic) {
				t.Fatalf("magic %x: err = %v, want ErrBadMagic", pkt[:2], err)
			}
		case pkt[2] != Version1:
			if !errors.Is(err, ErrBadVersion) {
				t.Fatalf("version %d: err = %v, want ErrBadVersion", pkt[2], err)
			}
		case err != nil:
			t.Fatalf("well-formed header rejected: %v", err)
		default:
			if enc := h.Encode(nil); !bytes.Equal(enc, pkt[:WireHeaderSize]) {
				t.Fatalf("decoded %+v re-encodes to %x, packet starts %x", h, enc, pkt[:WireHeaderSize])
			}
			if len(rest) != len(pkt)-WireHeaderSize || (len(rest) > 0 && &rest[0] != &pkt[WireHeaderSize]) {
				t.Fatalf("payload is not the packet's tail: %d of %d bytes", len(rest), len(pkt))
			}
		}

		in := WireHeader{Version: version, Flags: flags, WorkloadID: wid, RequestID: rid, Seq: seq, Total: total, PayloadLen: plen}
		out, rest, err := DecodeWireHeader(append(in.Encode(nil), payload...))
		if version != Version1 {
			if !errors.Is(err, ErrBadVersion) {
				t.Fatalf("version %d encoded: err = %v, want ErrBadVersion", version, err)
			}
			return
		}
		if err != nil || out != in || !bytes.Equal(rest, payload) {
			t.Fatalf("round trip of %+v with %x: got %+v, %x, %v", in, payload, out, rest, err)
		}
	})
}
