package mcc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lambdanic/internal/nicsim"
)

// Header field slots exposed to lambdas through OpHdrGet/OpHdrSet. The
// parse stage fills these from the wire headers before the match stage
// runs (paper Fig. 3: lambdas operate directly on parsed headers).
const (
	FieldWorkloadID = iota
	FieldRequestID
	_ // flags, seq and total: reserved, the parse stage leaves them 0
	_
	_
	FieldPayloadLen
	FieldSrcNode
	FieldArg0
	FieldArg1
	FieldStatus
	NumFields
)

// Lambda return status codes (mirroring RETURN_FORWARD and friends in
// the paper's Listing 2).
const (
	StatusDrop    = 0
	StatusForward = 1
	StatusToHost  = 2
)

// Execution cost constants: bulk operations are backed by the NIC's
// specialized hardware assists (§2.2), so they retire far fewer
// instructions than a software loop and touch memory in bursts.
const (
	// burstBytes is the memory-burst size for bulk transfers.
	burstBytes = 64
	// bulkSetup is the fixed instruction cost of issuing a bulk op.
	bulkSetup = 4
)

// Interpreter limits.
const (
	defaultStepLimit = 1 << 26 // guards against non-terminating lambdas
	maxCallDepth     = 16
)

// Execution errors. Faults are reported through these sentinels; both
// engines return the exact same pre-built error values on the hot path
// (no per-miss fmt.Errorf), so fault-injected bad programs stay cheap
// and the differential tests can compare error identity.
var (
	ErrStepLimit   = errors.New("mcc: step limit exceeded")
	ErrCallDepth   = errors.New("mcc: call depth exceeded")
	ErrOutOfBounds = errors.New("mcc: memory access out of bounds")
	ErrNoEntry     = errors.New("mcc: no entry for lambda")
)

// Pre-built fault values shared by the interpreter and the compiled
// engine. Per-object out-of-bounds errors live on the objectSlot.
var (
	errHdrRange      = errors.New("mcc: header field out of range")
	errPayloadOOB    = fmt.Errorf("%w: payload", ErrOutOfBounds)
	errMemcpyNegLen  = fmt.Errorf("%w: memcpy negative length", ErrOutOfBounds)
	errGrayLen       = fmt.Errorf("%w: gray length not a pixel multiple", ErrOutOfBounds)
	errUnknownObject = errors.New("mcc: unknown object")
	errUnknownFunc   = errors.New("mcc: call to unknown function")
	errInvalidOp     = errors.New("mcc: invalid opcode")
)

// env is one request's execution context. The compiled engine pools
// envs (and their response buffers) across requests; the interpreter
// allocates one per request.
type env struct {
	exe          *Executable
	headers      [NumFields]int64
	payload      []byte
	payloadLevel nicsim.MemLevel
	resp         []byte
	regs         [NumRegs]int64
	stats        nicsim.ExecStats
	steps        uint64
	depth        int
	// ret receives the status register when a compiled closure executes
	// OpRet (closures signal "return" through a sentinel pc).
	ret int64
	// rec, when set, shadows every instruction the interpreter runs
	// (replay.go). The compiled engine never sets it.
	rec *recorder
}

// reset prepares a pooled env for reuse, keeping the response buffer's
// backing array.
func (e *env) reset() {
	e.headers = [NumFields]int64{}
	e.payload = nil
	e.payloadLevel = 0
	e.resp = e.resp[:0]
	e.regs = [NumRegs]int64{}
	e.stats = nicsim.ExecStats{}
	e.steps = 0
	e.depth = 0
	e.ret = 0
}

// set writes a register, discarding writes to RegZero.
func (e *env) set(r Reg, v int64) {
	if r != RegZero {
		e.regs[r] = v
	}
}

func (e *env) charge(instr uint64) error {
	e.steps += instr
	e.stats.Instructions += instr
	if e.steps > e.exe.stepLimit {
		return ErrStepLimit
	}
	return nil
}

// chargeExact charges n instructions but, when the step limit is
// crossed, reports exactly limit+1 — the count a one-at-a-time charge
// loop would have reached when it tripped. The compiled engine's jump
// table uses it for dispatch chains whose only side effects before the
// limit are scratch registers, keeping ExecStats bit-identical to the
// interpreter walking the same chain.
func (e *env) chargeExact(n uint64) error {
	if e.steps+n > e.exe.stepLimit {
		over := e.exe.stepLimit - e.steps + 1
		e.steps += over
		e.stats.Instructions += over
		return ErrStepLimit
	}
	e.steps += n
	e.stats.Instructions += n
	return nil
}

func bursts(n int64) uint64 {
	if n <= 0 {
		return 0
	}
	return uint64((n + burstBytes - 1) / burstBytes)
}

// object resolves a name to its linked slot (dense array + side map;
// the map is control-plane only, but the interpreter keeps using it so
// its per-access cost profile stays the measured baseline).
func (e *env) object(name string) (*objectSlot, error) {
	idx, ok := e.exe.slotIndex[name]
	if !ok {
		return nil, errUnknownObject
	}
	return &e.exe.slots[idx], nil
}

// run executes a function to completion, returning its status register.
func (e *env) run(f *Function) (int64, error) {
	if e.depth >= maxCallDepth {
		return 0, ErrCallDepth
	}
	e.depth++
	defer func() { e.depth-- }()

	pc := 0
	for pc < len(f.Body) {
		in := &f.Body[pc]
		if err := e.charge(1); err != nil {
			return 0, err
		}
		if e.rec != nil {
			e.rec.step(e, f, pc, in)
		}
		next := pc + 1
		switch in.Op {
		case OpNop:
		case OpMovImm:
			e.set(in.Rd, in.Imm)
		case OpMov:
			e.set(in.Rd, e.regs[in.Rs1])
		case OpAdd:
			e.set(in.Rd, e.regs[in.Rs1]+e.regs[in.Rs2])
		case OpSub:
			e.set(in.Rd, e.regs[in.Rs1]-e.regs[in.Rs2])
		case OpMul:
			e.set(in.Rd, e.regs[in.Rs1]*e.regs[in.Rs2])
		case OpAnd:
			e.set(in.Rd, e.regs[in.Rs1]&e.regs[in.Rs2])
		case OpOr:
			e.set(in.Rd, e.regs[in.Rs1]|e.regs[in.Rs2])
		case OpXor:
			e.set(in.Rd, e.regs[in.Rs1]^e.regs[in.Rs2])
		case OpShl:
			e.set(in.Rd, e.regs[in.Rs1]<<uint64(e.regs[in.Rs2]&63))
		case OpShr:
			e.set(in.Rd, int64(uint64(e.regs[in.Rs1])>>uint64(e.regs[in.Rs2]&63)))
		case OpEq:
			e.set(in.Rd, boolTo64(e.regs[in.Rs1] == e.regs[in.Rs2]))
		case OpLt:
			e.set(in.Rd, boolTo64(e.regs[in.Rs1] < e.regs[in.Rs2]))
		case OpJmp:
			next = int(in.Imm)
		case OpBrz:
			if e.regs[in.Rs1] == 0 {
				next = int(in.Imm)
			}
		case OpBrnz:
			if e.regs[in.Rs1] != 0 {
				next = int(in.Imm)
			}
		case OpLoad, OpLoadW:
			slot, err := e.object(in.Sym)
			if err != nil {
				return 0, err
			}
			addr := e.regs[in.Rs1] + in.Imm
			width := int64(1)
			if in.Op == OpLoadW {
				width = 8
			}
			if addr < 0 || addr+width > int64(len(slot.mem)) {
				return 0, slot.oobErr
			}
			e.stats.AddAccess(slot.level, 1)
			if in.Op == OpLoad {
				e.set(in.Rd, int64(slot.mem[addr]))
			} else {
				e.set(in.Rd, int64(le64(slot.mem[addr:])))
			}
		case OpStore, OpStoreW:
			slot, err := e.object(in.Sym)
			if err != nil {
				return 0, err
			}
			addr := e.regs[in.Rs1] + in.Imm
			width := int64(1)
			if in.Op == OpStoreW {
				width = 8
			}
			if addr < 0 || addr+width > int64(len(slot.mem)) {
				return 0, slot.oobErr
			}
			e.stats.AddAccess(slot.level, 1)
			if in.Op == OpStore {
				slot.mem[addr] = byte(e.regs[in.Rs2])
			} else {
				putLE64(slot.mem[addr:], uint64(e.regs[in.Rs2]))
			}
		case OpHdrGet:
			if in.Imm < 0 || in.Imm >= NumFields {
				return 0, errHdrRange
			}
			e.set(in.Rd, e.headers[in.Imm])
		case OpHdrSet:
			if in.Imm < 0 || in.Imm >= NumFields {
				return 0, errHdrRange
			}
			e.headers[in.Imm] = e.regs[in.Rs1]
		case OpPktLoad:
			addr := e.regs[in.Rs1] + in.Imm
			if addr < 0 || addr >= int64(len(e.payload)) {
				return 0, errPayloadOOB
			}
			e.stats.AddAccess(e.payloadLevel, 1)
			e.set(in.Rd, int64(e.payload[addr]))
		case OpPktLen:
			e.set(in.Rd, int64(len(e.payload)))
		case OpEmit:
			slot, err := e.object(in.Sym)
			if err != nil {
				return 0, err
			}
			off, n := e.regs[in.Rs1], e.regs[in.Rs2]
			if off < 0 || n < 0 || off+n > int64(len(slot.mem)) {
				return 0, slot.oobErr
			}
			if err := e.charge(1 + bursts(n)); err != nil {
				return 0, err
			}
			e.stats.AddAccess(slot.level, bursts(n))
			e.resp = append(e.resp, slot.mem[off:off+n]...)
		case OpEmitByte:
			e.resp = append(e.resp, byte(e.regs[in.Rs1]))
		case OpCall:
			callee := e.exe.prog.Func(in.Sym)
			if callee == nil {
				return 0, errUnknownFunc
			}
			if _, err := e.run(callee); err != nil {
				return 0, err
			}
		case OpRet:
			return e.regs[in.Rs1], nil
		case OpMemcpy:
			if err := e.bulkCopy(in); err != nil {
				return 0, err
			}
		case OpGray:
			if err := e.bulkGray(in); err != nil {
				return 0, err
			}
		case OpHash:
			if err := e.bulkHash(in); err != nil {
				return 0, err
			}
		default:
			return 0, errInvalidOp
		}
		pc = next
	}
	// Falling off the end is an implicit StatusForward.
	return StatusForward, nil
}

// bulkCopy implements OpMemcpy: dst[rd..] <- src[rs1..], rs2 bytes. A
// source name of PayloadObject copies from the request payload.
func (e *env) bulkCopy(in *Instr) error {
	n := e.regs[in.Rs2]
	if n < 0 {
		return errMemcpyNegLen
	}
	dst, err := e.object(in.Sym)
	if err != nil {
		return err
	}
	var src []byte
	var slvl nicsim.MemLevel
	if in.Sym2 == PayloadObject {
		src, slvl = e.payload, e.payloadLevel
	} else {
		so, err := e.object(in.Sym2)
		if err != nil {
			return err
		}
		src, slvl = so.mem, so.level
	}
	doff, soff := e.regs[in.Rd], e.regs[in.Rs1]
	if doff < 0 || soff < 0 || doff+n > int64(len(dst.mem)) || soff+n > int64(len(src)) {
		return dst.oobErr
	}
	if err := e.charge(bulkSetup + bursts(n)); err != nil {
		return err
	}
	e.stats.AddAccess(slvl, bursts(n))
	e.stats.AddAccess(dst.level, bursts(n))
	copy(dst.mem[doff:doff+n], src[soff:soff+n])
	return nil
}

// bulkGray implements OpGray: convert rs2 bytes of RGBA in src[rs1..]
// to grayscale bytes in dst[rd..] using the integer luma approximation
// (77R + 150G + 29B) >> 8 — NPUs have no floating point (§3.1b).
func (e *env) bulkGray(in *Instr) error {
	n := e.regs[in.Rs2]
	if n < 0 || n%4 != 0 {
		return errGrayLen
	}
	pixels := n / 4
	dst, err := e.object(in.Sym)
	if err != nil {
		return err
	}
	var src []byte
	var slvl nicsim.MemLevel
	if in.Sym2 == PayloadObject {
		src, slvl = e.payload, e.payloadLevel
	} else {
		so, err := e.object(in.Sym2)
		if err != nil {
			return err
		}
		src, slvl = so.mem, so.level
	}
	doff, soff := e.regs[in.Rd], e.regs[in.Rs1]
	if doff < 0 || soff < 0 || soff+n > int64(len(src)) || doff+pixels > int64(len(dst.mem)) {
		return dst.oobErr
	}
	// One instruction per pixel through the conversion assist.
	if err := e.charge(bulkSetup + uint64(pixels)); err != nil {
		return err
	}
	e.stats.AddAccess(slvl, bursts(n))
	e.stats.AddAccess(dst.level, bursts(pixels))
	GrayPixels(dst.mem[doff:doff+pixels], src[soff:soff+n])
	return nil
}

// GrayPixels converts the first len(dst) RGBA pixels of src to luma
// bytes: (77R + 150G + 29B) >> 8 per pixel, alpha ignored. It is the
// conversion assist behind OpGray on both engines, and the image
// workload's native handler.
//
// It converts the two pixels of a 64-bit word at once. Masking the
// word's bytes into 16-bit lanes gives R and B of both pixels in one
// word and G and A in another; one multiply each and an add leave the
// first pixel's 77R+150G+29B in bits 16–31 and the second's in bits
// 48–63. Every lane sums at most 256·255 < 2¹⁶, so no carry crosses a
// lane, and each luma is the high byte of its lane.
func GrayPixels(dst, src []byte) {
	src = src[:4*len(dst)]
	for len(dst) >= 8 {
		s := (*[32]byte)(src)
		binary.LittleEndian.PutUint64(dst, gray2(binary.LittleEndian.Uint64(s[0:]))|
			gray2(binary.LittleEndian.Uint64(s[8:]))<<16|
			gray2(binary.LittleEndian.Uint64(s[16:]))<<32|
			gray2(binary.LittleEndian.Uint64(s[24:]))<<48)
		dst, src = dst[8:], src[32:]
	}
	for p := range dst {
		dst[p] = byte(luma2(uint64(binary.LittleEndian.Uint32(src[4*p:]))) >> 24)
	}
}

// byteLanes masks every other byte of a word into a 16-bit lane.
const byteLanes = 0x00ff00ff00ff00ff

// luma2 returns 77R+150G+29B of w's low pixel in bits 16–31 and of its
// high pixel in bits 48–63.
func luma2(w uint64) uint64 {
	return (w&byteLanes)*(29|77<<16) + (w>>8&byteLanes)*(150<<16)
}

// gray2 returns the lumas of w's two pixels as a little-endian byte pair.
func gray2(w uint64) uint64 {
	y := luma2(w)
	return y>>24&0xff | y>>48&0xff00
}

// bulkHash implements OpHash: FNV-1a over obj[rs1 : rs1+rs2].
func (e *env) bulkHash(in *Instr) error {
	slot, err := e.object(in.Sym)
	if err != nil {
		return err
	}
	off, n := e.regs[in.Rs1], e.regs[in.Rs2]
	if off < 0 || n < 0 || off+n > int64(len(slot.mem)) {
		return slot.oobErr
	}
	if err := e.charge(bulkSetup + uint64(n+7)/8); err != nil {
		return err
	}
	e.stats.AddAccess(slot.level, bursts(n))
	e.set(in.Rd, int64(fnv1a(slot.mem[off:off+n])))
	return nil
}

// fnv1a hashes b with 64-bit FNV-1a.
func fnv1a(b []byte) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

func boolTo64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
