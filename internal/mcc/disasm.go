package mcc

import (
	"fmt"
	"sort"
	"strings"
)

// Disassemble renders a function as readable assembly with labels at
// branch targets, for debugging and compiler reports.
func (f *Function) Disassemble() string {
	targets := map[int]string{}
	for _, in := range f.Body {
		switch in.Op {
		case OpJmp, OpBrz, OpBrnz:
			idx := int(in.Imm)
			if _, ok := targets[idx]; !ok {
				targets[idx] = fmt.Sprintf("L%d", len(targets))
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: ; %d instructions\n", f.Name, len(f.Body))
	for pc, in := range f.Body {
		if label, ok := targets[pc]; ok {
			fmt.Fprintf(&b, "%s:\n", label)
		}
		fmt.Fprintf(&b, "  %4d  %s\n", pc, formatInstr(&in, targets))
	}
	return b.String()
}

func formatInstr(in *Instr, targets map[int]string) string {
	reg := func(r Reg) string {
		if r == RegZero {
			return "rz"
		}
		return fmt.Sprintf("r%d", r)
	}
	target := func(imm int64) string {
		if label, ok := targets[int(imm)]; ok {
			return label
		}
		return fmt.Sprintf("@%d", imm)
	}
	switch in.Op {
	case OpNop:
		return "nop"
	case OpMovImm:
		return fmt.Sprintf("movi %s, %d", reg(in.Rd), in.Imm)
	case OpMov:
		return fmt.Sprintf("mov %s, %s", reg(in.Rd), reg(in.Rs1))
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr, OpEq, OpLt:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, reg(in.Rd), reg(in.Rs1), reg(in.Rs2))
	case OpJmp:
		return fmt.Sprintf("jmp %s", target(in.Imm))
	case OpBrz:
		return fmt.Sprintf("brz %s, %s", reg(in.Rs1), target(in.Imm))
	case OpBrnz:
		return fmt.Sprintf("brnz %s, %s", reg(in.Rs1), target(in.Imm))
	case OpLoad, OpLoadW:
		return fmt.Sprintf("%s %s, %s[%s+%d]", in.Op, reg(in.Rd), in.Sym, reg(in.Rs1), in.Imm)
	case OpStore, OpStoreW:
		return fmt.Sprintf("%s %s[%s+%d], %s", in.Op, in.Sym, reg(in.Rs1), in.Imm, reg(in.Rs2))
	case OpHdrGet:
		return fmt.Sprintf("hget %s, hdr[%d]", reg(in.Rd), in.Imm)
	case OpHdrSet:
		return fmt.Sprintf("hset hdr[%d], %s", in.Imm, reg(in.Rs1))
	case OpPktLoad:
		return fmt.Sprintf("pld %s, pkt[%s+%d]", reg(in.Rd), reg(in.Rs1), in.Imm)
	case OpPktLen:
		return fmt.Sprintf("plen %s", reg(in.Rd))
	case OpEmit:
		return fmt.Sprintf("emit %s[%s : %s+%s]", in.Sym, reg(in.Rs1), reg(in.Rs1), reg(in.Rs2))
	case OpEmitByte:
		return fmt.Sprintf("emitb %s", reg(in.Rs1))
	case OpCall:
		return fmt.Sprintf("call %s", in.Sym)
	case OpRet:
		return fmt.Sprintf("ret %s", reg(in.Rs1))
	case OpMemcpy:
		return fmt.Sprintf("memcpy %s[%s], %s[%s], %s", in.Sym, reg(in.Rd), in.Sym2, reg(in.Rs1), reg(in.Rs2))
	case OpGray:
		return fmt.Sprintf("gray %s[%s], %s[%s], %s", in.Sym, reg(in.Rd), in.Sym2, reg(in.Rs1), reg(in.Rs2))
	case OpHash:
		return fmt.Sprintf("hash %s, %s[%s : %s+%s]", reg(in.Rd), in.Sym, reg(in.Rs1), reg(in.Rs1), reg(in.Rs2))
	default:
		return in.Op.String()
	}
}

// Disassemble renders the whole program: objects, entries, then every
// function in declaration order.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; program: %d functions, %d instructions\n",
		len(p.Funcs), p.StaticInstructions())
	for _, o := range p.Objects {
		fmt.Fprintf(&b, ".object %s %d bytes level=%s hint=%d\n",
			o.Name, o.Size, o.EffectiveLevel(), o.Hint)
	}
	ids := append([]uint32(nil), p.EntryOrder...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(&b, ".entry %d -> %s\n", id, p.Entries[id])
	}
	for _, f := range p.Funcs {
		b.WriteString(f.Disassemble())
	}
	return b.String()
}
