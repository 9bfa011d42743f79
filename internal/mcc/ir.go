// Package mcc is a compiler for λ-NIC lambda bodies, standing in for
// the Micro-C toolchain the paper uses on Netronome NICs (§4.1, §5).
//
// Lambdas are expressed in a small RISC-style intermediate
// representation (IR): sixteen general registers, ALU and branch
// operations, loads/stores against named memory objects, header
// accessors, and a few bulk operations that model the NIC's specialized
// hardware assists (block copy, pixel conversion, hashing). The IR is
// deliberately restricted the way NPUs are (§3.1b): no floating point,
// no dynamic allocation, no recursion — the compiler rejects recursive
// call graphs.
//
// The package provides
//
//   - a builder for composing functions and programs;
//   - an optimizer implementing the paper's three target-specific
//     passes (§5.1): lambda coalescing, match reduction, and memory
//     stratification;
//   - a linker producing firmware that implements nicsim.Program: the
//     interpreter executes requests functionally while counting
//     instructions and per-level memory accesses, which the NIC
//     simulator converts to cycles.
//
// Static instruction counts from this package regenerate Figure 9 and
// enforce the 16 K per-core instruction-store limit.
package mcc

import (
	"fmt"

	"lambdanic/internal/nicsim"
)

// Reg is one of the sixteen general-purpose registers r0..r15.
type Reg uint8

// NumRegs is the register-file size.
const NumRegs = 16

// RegZero (r15) is hardwired to zero: reads return 0 and writes are
// discarded, as on many RISC ISAs. Direct-addressed near-memory
// accesses use it as their base register after memory stratification.
const RegZero Reg = 15

// Opcode enumerates IR operations. Every opcode costs one instruction
// slot; memory opcodes additionally charge accesses at the level their
// object is placed in.
type Opcode uint8

// IR opcodes.
const (
	OpNop Opcode = iota + 1
	// Data movement.
	OpMovImm // rd <- Imm
	OpMov    // rd <- rs1
	// ALU.
	OpAdd // rd <- rs1 + rs2
	OpSub // rd <- rs1 - rs2
	OpMul // rd <- rs1 * rs2
	OpAnd // rd <- rs1 & rs2
	OpOr  // rd <- rs1 | rs2
	OpXor // rd <- rs1 ^ rs2
	OpShl // rd <- rs1 << rs2
	OpShr // rd <- rs1 >> rs2 (logical)
	OpEq  // rd <- rs1 == rs2 ? 1 : 0
	OpLt  // rd <- rs1 < rs2 ? 1 : 0 (signed)
	// Control flow. Imm is the absolute target index in the function.
	OpJmp  // pc <- Imm
	OpBrz  // if rs1 == 0: pc <- Imm
	OpBrnz // if rs1 != 0: pc <- Imm
	// Memory. Sym names the object; address is rs1 + Imm.
	OpLoad  // rd <- object[rs1+Imm] (byte)
	OpStore // object[rs1+Imm] <- rs1's low byte... see Interp
	OpLoadW // rd <- 8-byte word at object[rs1+Imm]
	OpStoreW
	// Header access. Imm is the header field index.
	OpHdrGet // rd <- header[Imm]
	OpHdrSet // header[Imm] <- rs1
	// Packet payload access (the parsed request's payload region).
	OpPktLoad // rd <- payload[rs1+Imm]
	OpPktLen  // rd <- len(payload)
	// Response construction.
	OpEmit     // append object[rs1 : rs1+rs2] to the response
	OpEmitByte // append rs1's low byte to the response
	// Calls.
	OpCall // call function Sym
	OpRet  // return; rs1 holds the status code
	// Bulk operations backed by NIC hardware assists.
	OpMemcpy // object[Sym][rd..] <- object[Sym2][rs1..], rs2 bytes
	OpGray   // grayscale rs2/4 RGBA pixels: Sym2 -> Sym
	OpHash   // rd <- FNV hash of object[Sym][rs1 : rs1+rs2]
)

// String returns the mnemonic.
func (o Opcode) String() string {
	names := map[Opcode]string{
		OpNop: "nop", OpMovImm: "movi", OpMov: "mov", OpAdd: "add",
		OpSub: "sub", OpMul: "mul", OpAnd: "and", OpOr: "or",
		OpXor: "xor", OpShl: "shl", OpShr: "shr", OpEq: "eq",
		OpLt: "lt", OpJmp: "jmp", OpBrz: "brz", OpBrnz: "brnz",
		OpLoad: "ld", OpStore: "st", OpLoadW: "ldw", OpStoreW: "stw",
		OpHdrGet: "hget", OpHdrSet: "hset", OpPktLoad: "pld",
		OpPktLen: "plen", OpEmit: "emit", OpEmitByte: "emitb",
		OpCall: "call", OpRet: "ret", OpMemcpy: "memcpy",
		OpGray: "gray", OpHash: "hash",
	}
	if s, ok := names[o]; ok {
		return s
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// Instr is one IR instruction.
type Instr struct {
	Op       Opcode
	Rd       Reg
	Rs1, Rs2 Reg
	Imm      int64
	// Sym is a function name (OpCall) or object name (memory ops).
	Sym string
	// Sym2 is the source object for OpMemcpy/OpGray.
	Sym2 string
}

// Function is a named sequence of instructions.
type Function struct {
	Name string
	Body []Instr
}

// Size returns the function's instruction count.
func (f *Function) Size() int { return len(f.Body) }

// Clone returns a deep copy.
func (f *Function) Clone() *Function {
	body := make([]Instr, len(f.Body))
	copy(body, f.Body)
	return &Function{Name: f.Name, Body: body}
}

// AccessHint is the user pragma guiding memory stratification (§4.2.1
// D2: "users can also provide pragmas specifying which objects are read
// more frequently").
type AccessHint int

// Access hints.
const (
	HintAuto AccessHint = iota // compiler decides from size
	HintHot                    // accessed on every request: keep close
	HintCold                   // rarely accessed: external memory is fine
)

// Object is a named memory region in the lambda's flat address space
// (D2). The naive compiler places every object in EMEM; the memory-
// stratification pass reassigns levels.
type Object struct {
	Name string
	Size int
	Hint AccessHint
	// Level is the assigned memory level; zero means unassigned (the
	// naive placement treats it as EMEM).
	Level nicsim.MemLevel
	// Init optionally seeds the region's contents.
	Init []byte
}

// EffectiveLevel returns the placement used at execution time.
func (o *Object) EffectiveLevel() nicsim.MemLevel {
	if o.Level == 0 {
		return nicsim.MemEMEM
	}
	return o.Level
}

// Program is a complete Match+Lambda image before linking: the match
// stage and parser are synthesized functions (by internal/matchlambda),
// lambda entry points map workload IDs to functions.
type Program struct {
	Funcs   []*Function
	Objects []*Object
	// Entries maps lambda (workload) ID to its entry function name.
	Entries map[uint32]string
	// EntryOrder preserves deterministic iteration (map order is
	// randomized in Go); filled by AddEntry.
	EntryOrder []uint32
	// Match describes the synthesized parse+match stage, when present;
	// the match-reduction pass rewrites it.
	Match *MatchPlan
	// Native maps a lambda ID to a Go function computing the same reply
	// bytes as the lambda's IR. A compiled image may answer a request of
	// a lambda that has one by replaying its recorded NIC cost
	// (replay.go); a lambda without one always executes.
	Native map[uint32]func([]byte) ([]byte, error)
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{Entries: make(map[uint32]string)}
}

// AddFunc appends a function, rejecting duplicates.
func (p *Program) AddFunc(f *Function) error {
	if p.Func(f.Name) != nil {
		return fmt.Errorf("mcc: duplicate function %q", f.Name)
	}
	p.Funcs = append(p.Funcs, f)
	return nil
}

// Func returns the named function, or nil.
func (p *Program) Func(name string) *Function {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// AddObject appends an object, rejecting duplicates.
func (p *Program) AddObject(o *Object) error {
	if p.Object(o.Name) != nil {
		return fmt.Errorf("mcc: duplicate object %q", o.Name)
	}
	p.Objects = append(p.Objects, o)
	return nil
}

// Object returns the named object, or nil.
func (p *Program) Object(name string) *Object {
	for _, o := range p.Objects {
		if o.Name == name {
			return o
		}
	}
	return nil
}

// AddEntry registers a lambda entry point.
func (p *Program) AddEntry(id uint32, fn string) error {
	if _, ok := p.Entries[id]; ok {
		return fmt.Errorf("mcc: duplicate lambda ID %d", id)
	}
	if p.Func(fn) == nil {
		return fmt.Errorf("mcc: entry %d references unknown function %q", id, fn)
	}
	p.Entries[id] = fn
	p.EntryOrder = append(p.EntryOrder, id)
	return nil
}

// StaticInstructions is the program's total code size — the quantity
// Figure 9 tracks and the per-core instruction store bounds.
func (p *Program) StaticInstructions() int {
	total := 0
	for _, f := range p.Funcs {
		total += f.Size()
	}
	return total
}

// Clone deep-copies the program (passes operate on copies so the naive
// program remains available for comparison).
func (p *Program) Clone() *Program {
	cp := NewProgram()
	for _, f := range p.Funcs {
		cp.Funcs = append(cp.Funcs, f.Clone())
	}
	for _, o := range p.Objects {
		oc := *o
		if o.Init != nil {
			oc.Init = append([]byte(nil), o.Init...)
		}
		cp.Objects = append(cp.Objects, &oc)
	}
	for id, fn := range p.Entries {
		cp.Entries[id] = fn
	}
	cp.EntryOrder = append(cp.EntryOrder, p.EntryOrder...)
	cp.Match = p.Match.clone()
	// Shared, not copied: no pass edits it, and functions have no copy.
	cp.Native = p.Native
	return cp
}

// Validate checks structural invariants: resolvable symbols, in-range
// branch targets, register bounds, and the NPU restriction that the
// call graph is acyclic (no recursion, §3.1b).
func (p *Program) Validate() error {
	for _, f := range p.Funcs {
		for i, in := range f.Body {
			if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
				return fmt.Errorf("mcc: %s+%d: register out of range", f.Name, i)
			}
			switch in.Op {
			case OpJmp, OpBrz, OpBrnz:
				if in.Imm < 0 || in.Imm >= int64(len(f.Body)) {
					return fmt.Errorf("mcc: %s+%d: branch target %d out of range", f.Name, i, in.Imm)
				}
			case OpCall:
				if p.Func(in.Sym) == nil {
					return fmt.Errorf("mcc: %s+%d: call to unknown function %q", f.Name, i, in.Sym)
				}
			case OpLoad, OpStore, OpLoadW, OpStoreW, OpEmit, OpHash:
				if p.Object(in.Sym) == nil {
					return fmt.Errorf("mcc: %s+%d: unknown object %q", f.Name, i, in.Sym)
				}
			case OpMemcpy, OpGray:
				if p.Object(in.Sym) == nil {
					return fmt.Errorf("mcc: %s+%d: unknown object %q", f.Name, i, in.Sym)
				}
				if in.Sym2 != PayloadObject && p.Object(in.Sym2) == nil {
					return fmt.Errorf("mcc: %s+%d: unknown object %q", f.Name, i, in.Sym2)
				}
			}
		}
	}
	for id, fn := range p.Entries {
		if p.Func(fn) == nil {
			return fmt.Errorf("mcc: lambda %d entry %q missing", id, fn)
		}
	}
	return p.checkNoRecursion()
}

// checkNoRecursion rejects cyclic call graphs.
func (p *Program) checkNoRecursion() error {
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make(map[string]int, len(p.Funcs))
	var visit func(name string) error
	visit = func(name string) error {
		switch state[name] {
		case inStack:
			return fmt.Errorf("mcc: recursion through %q is not supported on NPUs", name)
		case done:
			return nil
		}
		state[name] = inStack
		f := p.Func(name)
		if f != nil {
			for _, in := range f.Body {
				if in.Op == OpCall {
					if err := visit(in.Sym); err != nil {
						return err
					}
				}
			}
		}
		state[name] = done
		return nil
	}
	for _, f := range p.Funcs {
		if err := visit(f.Name); err != nil {
			return err
		}
	}
	return nil
}
