package matchlambda

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// WireHeader is the λ-NIC header the gateway inserts into every request
// so the NIC's match stage can select the destination lambda (§4.1).
// Multi-packet RPCs carry fragmentation fields the NIC uses for
// reordering (§4.2.1 D3).
//
// Layout (24 bytes, big-endian):
//
//	magic(2) version(1) flags(1) workloadID(4) requestID(8)
//	seq(2) total(2) payloadLen(4)
type WireHeader struct {
	Version    uint8
	Flags      uint8
	WorkloadID uint32
	RequestID  uint64
	// Seq is this fragment's index; Total the fragment count.
	Seq, Total uint16
	// PayloadLen is the full message payload length across fragments.
	PayloadLen uint32
}

// WireHeaderSize is the encoded header length in bytes.
const WireHeaderSize = 24

// Magic identifies λ-NIC packets on the wire.
const Magic = 0x4C4E // "LN"

// Wire header versions.
const Version1 = 1

// Flag bits.
const (
	// FlagResponse marks a lambda's reply.
	FlagResponse uint8 = 1 << iota
	_                  // bit 1 is unassigned
	// FlagError marks a response conveying an execution error.
	FlagError
)

// Wire header errors.
var (
	ErrShortPacket = errors.New("matchlambda: packet shorter than wire header")
	ErrBadMagic    = errors.New("matchlambda: bad magic")
	ErrBadVersion  = errors.New("matchlambda: unsupported version")
)

// Encode appends the encoded header to dst and returns the result.
func (h *WireHeader) Encode(dst []byte) []byte {
	var buf [WireHeaderSize]byte
	binary.BigEndian.PutUint16(buf[0:2], Magic)
	buf[2] = h.Version
	buf[3] = h.Flags
	binary.BigEndian.PutUint32(buf[4:8], h.WorkloadID)
	binary.BigEndian.PutUint64(buf[8:16], h.RequestID)
	binary.BigEndian.PutUint16(buf[16:18], h.Seq)
	binary.BigEndian.PutUint16(buf[18:20], h.Total)
	binary.BigEndian.PutUint32(buf[20:24], h.PayloadLen)
	return append(dst, buf[:]...)
}

// DecodeWireHeader parses a packet's header, returning the header and
// the remaining payload bytes.
func DecodeWireHeader(pkt []byte) (WireHeader, []byte, error) {
	if len(pkt) < WireHeaderSize {
		return WireHeader{}, nil, fmt.Errorf("%w: %d bytes", ErrShortPacket, len(pkt))
	}
	if binary.BigEndian.Uint16(pkt[0:2]) != Magic {
		return WireHeader{}, nil, ErrBadMagic
	}
	h := WireHeader{
		Version:    pkt[2],
		Flags:      pkt[3],
		WorkloadID: binary.BigEndian.Uint32(pkt[4:8]),
		RequestID:  binary.BigEndian.Uint64(pkt[8:16]),
		Seq:        binary.BigEndian.Uint16(pkt[16:18]),
		Total:      binary.BigEndian.Uint16(pkt[18:20]),
		PayloadLen: binary.BigEndian.Uint32(pkt[20:24]),
	}
	if h.Version != Version1 {
		return WireHeader{}, nil, fmt.Errorf("%w: %d", ErrBadVersion, h.Version)
	}
	return h, pkt[WireHeaderSize:], nil
}

// IsResponse reports whether the response flag is set.
func (h *WireHeader) IsResponse() bool { return h.Flags&FlagResponse != 0 }

// IsError reports whether the error flag is set.
func (h *WireHeader) IsError() bool { return h.Flags&FlagError != 0 }
