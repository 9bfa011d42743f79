package mcc

import (
	"fmt"
	"slices"
	"sort"

	"lambdanic/internal/cluster"
	"lambdanic/internal/nicsim"
)

// This file implements the paper's three target-specific optimizations
// (§5.1) whose combined effect Figure 9 reports:
//
//   - lambda coalescing: duplicate logic brought in by separately
//     compiled lambdas is deduplicated into shared helper functions,
//     and unreachable code is eliminated;
//   - match reduction: per-lambda parse and match tables are composed
//     into one if-else dispatch sequence, removing duplicate match
//     fields, per-table lookup machinery, and parsers for headers no
//     lambda uses;
//   - memory stratification: objects are placed into LMEM/CTM/IMEM/EMEM
//     by size and user pragma, and accesses to near memories drop their
//     wide-address setup instructions.

// MatchTable is one P4-style table in the match stage (paper Listing
// 3): match on a header field, dispatch to a lambda function.
type MatchTable struct {
	// Name identifies the table (e.g. "route_web_server").
	Name string
	// Field is the header slot the table matches on.
	Field int64
	// Entries map matched values to called functions.
	Entries []MatchEntry
}

// MatchEntry is one table row.
type MatchEntry struct {
	Value  int64
	Action string
}

// MatchPlan is the declarative description of the parse and match
// stages, attached to a Program by the Match+Lambda composer. Codegen
// turns it into the __match function; match reduction rewrites it.
type MatchPlan struct {
	Tables []MatchTable
	// Parsers lists generated header-parser function names in parse
	// order.
	Parsers []string
	// UsedParsers marks parsers whose header some lambda actually
	// reads; match reduction drops the rest.
	UsedParsers map[string]bool
	// Reduced records that match reduction ran.
	Reduced bool
}

func (m *MatchPlan) clone() *MatchPlan {
	if m == nil {
		return nil
	}
	cp := &MatchPlan{Reduced: m.Reduced}
	for _, t := range m.Tables {
		entries := make([]MatchEntry, len(t.Entries))
		copy(entries, t.Entries)
		cp.Tables = append(cp.Tables, MatchTable{Name: t.Name, Field: t.Field, Entries: entries})
	}
	cp.Parsers = append(cp.Parsers, m.Parsers...)
	if m.UsedParsers != nil {
		cp.UsedParsers = make(map[string]bool, len(m.UsedParsers))
		for k, v := range m.UsedParsers {
			cp.UsedParsers[k] = v
		}
	}
	return cp
}

// tablePreambleInstrs is the per-table lookup machinery a naive table
// apply emits (key hashing and way selection, emulating a CAM lookup on
// NPUs). Reduced if-else dispatch does not need it.
const tablePreambleInstrs = 30

// GenerateMatch synthesizes the __match function from the plan. In
// naive form each table keeps its own preamble and key extraction; in
// reduced form tables matching the same field are merged into a single
// if-else chain with one key extraction (paper §5.1: "the P4 tables are
// converted into if-else sequences"). The two forms leave different
// scratch values in the registers the lambda starts with, which Reg
// leaves undefined.
func GenerateMatch(plan *MatchPlan) (*Function, error) {
	b := NewBuilder(MatchFunction)
	// Run the parsers first (parse stage precedes match, Fig. 3).
	for _, p := range plan.Parsers {
		if plan.Reduced && plan.UsedParsers != nil && !plan.UsedParsers[p] {
			continue
		}
		b.Call(p)
	}
	if plan.Reduced {
		generateReducedMatch(b, plan)
	} else {
		generateNaiveMatch(b, plan)
	}
	// Fall-through: no table matched; hand the packet to the host OS.
	b.MovImm(1, StatusToHost)
	b.Ret(1)
	return b.Build()
}

func generateNaiveMatch(b *Builder, plan *MatchPlan) {
	for ti, t := range plan.Tables {
		// Key extraction for this table.
		b.HdrGet(2, t.Field)
		// Table-apply machinery: key mix + way select.
		b.MovImm(3, int64(0x9E3779B9))
		b.Mul(3, 2, 3)
		b.MovImm(4, 16)
		b.Shr(3, 3, 4)
		b.Xor(3, 3, 2)
		for i := 0; i < tablePreambleInstrs-5; i++ {
			b.Nop() // remaining fixed lookup machinery
		}
		for ei, entry := range t.Entries {
			skip := fmt.Sprintf("t%d_e%d_skip", ti, ei)
			b.MovImm(5, entry.Value)
			b.Eq(6, 2, 5)
			b.Brz(6, skip)
			b.Call(entry.Action)
			b.MovImm(1, StatusForward)
			b.Ret(1)
			b.Label(skip)
		}
	}
}

// matchGroup is one merged per-field dispatch group of the reduced
// match stage.
type matchGroup struct {
	field   int64
	entries []MatchEntry
}

// groupMatchTables merges tables by match field, preserving order of
// first appearance and dropping duplicate values within a group.
func groupMatchTables(plan *MatchPlan) []*matchGroup {
	var groups []*matchGroup
	index := make(map[int64]*matchGroup)
	for _, t := range plan.Tables {
		g, ok := index[t.Field]
		if !ok {
			g = &matchGroup{field: t.Field}
			index[t.Field] = g
			groups = append(groups, g)
		}
		for _, e := range t.Entries {
			dup := false
			for _, have := range g.entries {
				if have.Value == e.Value {
					dup = true
					break
				}
			}
			if !dup {
				g.entries = append(g.entries, e)
			}
		}
	}
	return groups
}

func generateReducedMatch(b *Builder, plan *MatchPlan) {
	for gi, g := range groupMatchTables(plan) {
		b.HdrGet(2, g.field) // one key extraction per field
		for ei, entry := range g.entries {
			skip := fmt.Sprintf("g%d_e%d_skip", gi, ei)
			b.MovImm(5, entry.Value)
			b.Eq(6, 2, 5)
			b.Brz(6, skip)
			b.Call(entry.Action)
			b.MovImm(1, StatusForward)
			b.Ret(1)
			b.Label(skip)
		}
	}
}

// PassResult records one optimization step for Figure 9.
type PassResult struct {
	// Pass is the optimization name.
	Pass string
	// Instructions is the program size after the pass.
	Instructions int
	// Saved is the instruction count removed by this pass.
	Saved int
}

// OptimizeConfig selects passes and provides placement budgets.
type OptimizeConfig struct {
	Coalesce    bool
	ReduceMatch bool
	Stratify    bool
	// NIC provides memory capacities for stratification; zero values
	// use cluster.Default().
	NIC cluster.NICConfig
}

// AllPasses enables every optimization.
func AllPasses() OptimizeConfig {
	return OptimizeConfig{Coalesce: true, ReduceMatch: true, Stratify: true}
}

// Optimize applies the configured passes in the paper's order and
// returns the optimized copy plus the per-pass size trajectory
// (Figure 9). The input program is not modified.
func Optimize(p *Program, cfg OptimizeConfig) (*Program, []PassResult, error) {
	if cfg.NIC.NPUCores() == 0 {
		cfg.NIC = cluster.Default().NIC
	}
	out := p.Clone()
	results := []PassResult{{Pass: "unoptimized", Instructions: out.StaticInstructions()}}
	prev := out.StaticInstructions()

	apply := func(name string, enabled bool, pass func(*Program) error) error {
		if !enabled {
			return nil
		}
		if err := pass(out); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		now := out.StaticInstructions()
		results = append(results, PassResult{Pass: name, Instructions: now, Saved: prev - now})
		prev = now
		return nil
	}

	if err := apply("lambda coalescing", cfg.Coalesce, coalesceLambdas); err != nil {
		return nil, nil, err
	}
	if err := apply("match reduction", cfg.ReduceMatch, reduceMatch); err != nil {
		return nil, nil, err
	}
	if err := apply("memory stratification", cfg.Stratify, func(pr *Program) error {
		return stratifyMemory(pr, cfg.NIC)
	}); err != nil {
		return nil, nil, err
	}
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("mcc: optimized program invalid: %w", err)
	}
	return out, results, nil
}

// coalesceLambdas deduplicates functions with identical bodies
// (separately compiled lambdas each carry private copies of shared
// helpers) and removes code unreachable from any entry point.
func coalesceLambdas(p *Program) error {
	// Each function maps to the first function with an equal body.
	replace := make(map[string]string)
	for i, f := range p.Funcs {
		for _, first := range p.Funcs[:i] {
			if slices.Equal(first.Body, f.Body) {
				replace[f.Name] = first.Name
				break
			}
		}
	}
	// Entry functions must survive under their own IDs even when their
	// bodies coincide; only non-entry helpers are replaced.
	entryNames := make(map[string]bool, len(p.Entries))
	for _, fn := range p.Entries {
		entryNames[fn] = true
	}
	for dup := range replace {
		if entryNames[dup] || dup == MatchFunction {
			delete(replace, dup)
		}
	}
	// Rewrite call sites.
	for _, f := range p.Funcs {
		for i := range f.Body {
			if f.Body[i].Op == OpCall {
				if target, ok := replace[f.Body[i].Sym]; ok {
					f.Body[i].Sym = target
				}
			}
		}
	}
	// Rewrite match-plan actions and parsers: match reduction
	// regenerates __match from the plan. A merged parser keeps its place
	// in the parse order, and is used where its duplicate was.
	if p.Match != nil {
		for ti := range p.Match.Tables {
			for ei := range p.Match.Tables[ti].Entries {
				if target, ok := replace[p.Match.Tables[ti].Entries[ei].Action]; ok {
					p.Match.Tables[ti].Entries[ei].Action = target
				}
			}
		}
		for i, name := range p.Match.Parsers {
			if target, ok := replace[name]; ok {
				p.Match.Parsers[i] = target
				if p.Match.UsedParsers[name] {
					p.Match.UsedParsers[target] = true
				}
			}
		}
	}
	removeDeadFunctions(p)
	return nil
}

// removeDeadFunctions drops functions unreachable from entries and
// __match (dead-code elimination, §5.1).
func removeDeadFunctions(p *Program) {
	reachable := make(map[string]bool)
	var visit func(name string)
	visit = func(name string) {
		if reachable[name] {
			return
		}
		reachable[name] = true
		f := p.Func(name)
		if f == nil {
			return
		}
		for _, in := range f.Body {
			if in.Op == OpCall {
				visit(in.Sym)
			}
		}
	}
	if p.Func(MatchFunction) != nil {
		visit(MatchFunction)
	}
	for _, fn := range p.Entries {
		visit(fn)
	}
	kept := p.Funcs[:0]
	for _, f := range p.Funcs {
		if reachable[f.Name] {
			kept = append(kept, f)
		}
	}
	p.Funcs = kept
}

// reduceMatch regenerates the __match function in reduced form: merged
// tables, single key extraction per field, no per-table lookup
// machinery, and parsers for unused headers dropped.
func reduceMatch(p *Program) error {
	if p.Match == nil || p.Func(MatchFunction) == nil {
		return nil // nothing to reduce (no synthesized match stage)
	}
	p.Match.Reduced = true
	nf, err := GenerateMatch(p.Match)
	if err != nil {
		return err
	}
	for i, f := range p.Funcs {
		if f.Name == MatchFunction {
			p.Funcs[i] = nf
			break
		}
	}
	removeDeadFunctions(p)
	return nil
}

// stratifyMemory assigns each object a memory level by pragma and size
// (§4.2.1 D2, §5.1), then strength-reduces the wide-address setup for
// near-memory accesses: a `movi rX, 0` feeding only the address operand
// of a LMEM/CTM access is folded into the access.
func stratifyMemory(p *Program, nic cluster.NICConfig) error {
	// Budgets: keep a reserve for the packet buffers and basic NIC
	// operations (§3.1c: "reserve ample SmartNIC resources").
	localBudget := nic.LocalMemPerThread / 2
	ctmBudget := nic.CTMPerIsland / 2
	imemBudget := nic.IMEMBytes / 2

	// Deterministic placement order: hot first, then by size ascending.
	// Core-local memory is reserved for hot-hinted objects (it is tiny
	// and register-addressed); everything else descends CTM -> IMEM ->
	// EMEM by size.
	objs := make([]*Object, len(p.Objects))
	copy(objs, p.Objects)
	sort.SliceStable(objs, func(i, j int) bool {
		hi, hj := objs[i].Hint == HintHot, objs[j].Hint == HintHot
		if hi != hj {
			return hi
		}
		if objs[i].Size != objs[j].Size {
			return objs[i].Size < objs[j].Size
		}
		return objs[i].Name < objs[j].Name
	})
	for _, o := range objs {
		switch {
		case o.Hint == HintCold:
			o.Level = nicsim.MemEMEM
		case o.Hint == HintHot && o.Size <= localBudget:
			o.Level = nicsim.MemLocal
			localBudget -= o.Size
		case o.Size <= ctmBudget:
			o.Level = nicsim.MemCTM
			ctmBudget -= o.Size
		case o.Size <= imemBudget:
			o.Level = nicsim.MemIMEM
			imemBudget -= o.Size
		default:
			o.Level = nicsim.MemEMEM
		}
	}

	// Only LMEM supports direct addressing; CTM and beyond still need
	// the base register.
	near := func(name string) bool {
		o := p.Object(name)
		return o != nil && o.EffectiveLevel() == nicsim.MemLocal
	}
	// Registers are shared across calls: a function another one calls
	// returns them to that caller. Only the match stage, which sets r1
	// and returns after its call, discards what its lambdas leave.
	called := make(map[string]bool)
	for _, f := range p.Funcs {
		for _, in := range f.Body {
			if in.Op == OpCall && f.Name != MatchFunction {
				called[in.Sym] = true
			}
		}
	}
	for _, f := range p.Funcs {
		f.Body = foldNearAddressSetup(f.Body, near, called[f.Name])
	}
	return nil
}

// foldNearAddressSetup removes `movi rX, 0` instructions whose only
// consumer is the address register of an immediately following near-
// memory access: direct addressing needs no base register on LMEM/CTM,
// so the access is rewritten to RegZero. The fold only applies when a
// conservative forward scan proves rX is dead afterwards (rewritten
// before any read, with no intervening control flow). Branch targets
// are remapped. With liveOut the caller reads registers after a return,
// so none is dead there.
func foldNearAddressSetup(body []Instr, near func(string) bool, liveOut bool) []Instr {
	remove := make([]bool, len(body))
	for i := 0; i+1 < len(body); i++ {
		cur := body[i]
		next := &body[i+1]
		if cur.Op != OpMovImm || cur.Imm != 0 || cur.Rd == RegZero {
			continue
		}
		isAccess := next.Op == OpLoad || next.Op == OpStore || next.Op == OpLoadW || next.Op == OpStoreW
		// A store of the base register itself stores the zero.
		storesBase := (next.Op == OpStore || next.Op == OpStoreW) && next.Rs2 == cur.Rd
		if !isAccess || next.Rs1 != cur.Rd || storesBase || !near(next.Sym) {
			continue
		}
		if !deadAfter(body, i+1, cur.Rd, liveOut) {
			continue
		}
		remove[i] = true
		next.Rs1 = RegZero
	}
	// Build old->new index map.
	newIdx := make([]int, len(body)+1)
	n := 0
	for i := range body {
		newIdx[i] = n
		if !remove[i] {
			n++
		}
	}
	newIdx[len(body)] = n
	out := make([]Instr, 0, n)
	for i, in := range body {
		if remove[i] {
			continue
		}
		switch in.Op {
		case OpJmp, OpBrz, OpBrnz:
			in.Imm = int64(newIdx[in.Imm])
		}
		out = append(out, in)
	}
	return out
}

// deadAfter reports whether register r is provably dead after the
// instruction at index idx: every path from idx+1 rewrites r before
// reading it, established by a linear scan that gives up (returns
// false) at any branch or call, and at a return when liveOut.
func deadAfter(body []Instr, idx int, r Reg, liveOut bool) bool {
	// The access at idx may itself rewrite r (a load into its own
	// address register).
	if writesReg(&body[idx], r) {
		return true
	}
	for i := idx + 1; i < len(body); i++ {
		in := &body[i]
		switch in.Op {
		case OpJmp, OpBrz, OpBrnz, OpCall:
			return false // control flow or callee may observe r
		case OpRet:
			return !liveOut && !readsReg(in, r)
		}
		if readsReg(in, r) {
			return false
		}
		if writesReg(in, r) {
			return true
		}
	}
	return !liveOut // fell off the end
}

// writesReg reports whether the instruction defines r.
func writesReg(in *Instr, r Reg) bool {
	switch in.Op {
	case OpMovImm, OpMov, OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpEq, OpLt, OpLoad, OpLoadW, OpHdrGet,
		OpPktLoad, OpPktLen, OpHash:
		return in.Rd == r
	default:
		return false
	}
}

// readsReg reports whether the instruction uses r as a source.
func readsReg(in *Instr, r Reg) bool {
	switch in.Op {
	case OpMov, OpBrz, OpBrnz, OpLoad, OpLoadW, OpHdrSet, OpPktLoad,
		OpEmitByte, OpRet:
		return in.Rs1 == r
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr, OpEq,
		OpLt, OpStore, OpStoreW, OpEmit, OpHash:
		return in.Rs1 == r || in.Rs2 == r
	case OpMemcpy, OpGray:
		return in.Rd == r || in.Rs1 == r || in.Rs2 == r
	default:
		return false
	}
}
