// Package matchlambda implements λ-NIC's Match+Lambda programming
// abstraction (paper §4.1): users supply lambdas (mcc functions plus
// helpers and memory objects) and declare which application headers
// each lambda reads; the composer pairs them with a synthesized parse
// stage and a P4-style match stage into a single program that the
// workload manager compiles for the NIC.
//
// The composition mirrors the paper's pipeline exactly:
//
//   - each lambda gets its own route/dispatch table in the naive match
//     plan ("the naive implementation adds a separate table for
//     managing routes for each lambda", §6.4);
//   - a parser function is generated per declared header, extracting
//     fields into the header slots lambdas read with OpHdrGet;
//   - the workload manager later runs mcc.Optimize to apply lambda
//     coalescing, match reduction, and memory stratification (§5.1).
package matchlambda

import (
	"errors"
	"fmt"

	"lambdanic/internal/mcc"
)

// FieldSpec extracts one big-endian header field from the request
// payload into a header slot.
type FieldSpec struct {
	// Slot is the mcc header slot (mcc.FieldArg0 etc.) the value lands
	// in. Slots below mcc.FieldPayloadLen are reserved for the wire
	// header and may not be written by parsers.
	Slot int
	// Offset is the byte offset within the payload.
	Offset int
	// Bytes is the field width (1-8).
	Bytes int
}

// HeaderSpec describes one application-level header a lambda may use.
type HeaderSpec struct {
	// Name identifies the header; the generated parser is named
	// "__parse_<Name>".
	Name   string
	Fields []FieldSpec
}

// ParserName returns the generated parser function's name.
func (h HeaderSpec) ParserName() string { return "__parse_" + h.Name }

// Validate checks the spec.
func (h HeaderSpec) Validate() error {
	if h.Name == "" {
		return errors.New("matchlambda: header has no name")
	}
	for _, f := range h.Fields {
		if f.Slot < mcc.FieldPayloadLen || f.Slot >= mcc.NumFields {
			return fmt.Errorf("matchlambda: header %q writes reserved or invalid slot %d", h.Name, f.Slot)
		}
		if f.Bytes < 1 || f.Bytes > 8 {
			return fmt.Errorf("matchlambda: header %q field width %d out of range", h.Name, f.Bytes)
		}
		if f.Offset < 0 {
			return fmt.Errorf("matchlambda: header %q field offset %d negative", h.Name, f.Offset)
		}
	}
	return nil
}

// LambdaSpec is one user-provided lambda: the Micro-C-style entry
// function (paper Listing 1/2), private helper functions, persistent
// memory objects, and the headers it reads.
type LambdaSpec struct {
	// Name is the human-readable workload name.
	Name string
	// ID is the workload identifier the gateway stamps into requests;
	// assigned by the workload manager (§4.1).
	ID uint32
	// Entry is the top-level function invoked by the match stage.
	Entry *mcc.Function
	// Helpers are private functions the entry may call. Separately
	// compiled lambdas each carry their own copies of common helpers —
	// exactly what lambda coalescing later deduplicates.
	Helpers []*mcc.Function
	// Objects are the lambda's memory objects (flat address space, D2).
	Objects []*mcc.Object
	// Uses lists the application headers the lambda reads; the composer
	// generates parsers for them. Headers declared by no lambda still
	// get parsers in the naive program (the generic parse logic the
	// paper prepends) and are pruned by match reduction.
	Uses []string
	// Native, when set, computes the lambda's reply bytes in Go from the
	// request payload alone, exactly as Entry does. It is what a compiled
	// image answers with when it replays the lambda's NIC cost instead of
	// executing it (mcc.Program.Native).
	Native func([]byte) ([]byte, error)
}

// Validate checks the spec is self-consistent.
func (s *LambdaSpec) Validate() error {
	if s.Name == "" {
		return errors.New("matchlambda: lambda has no name")
	}
	if s.Entry == nil {
		return fmt.Errorf("matchlambda: lambda %q has no entry function", s.Name)
	}
	return nil
}

// ComposeOptions tune composition.
type ComposeOptions struct {
	// Headers is the full set of known application headers. The naive
	// program parses all of them ("prepends a generic P4 packet-parsing
	// logic", §4.1); match reduction keeps only the used ones.
	Headers []HeaderSpec
	// Shared are library functions linked once into the image (the
	// shared runtime every lambda calls), as opposed to per-lambda
	// helpers.
	Shared []*mcc.Function
	// SharedObjects are library-owned memory objects linked once.
	SharedObjects []*mcc.Object
}

// Compose pairs the lambdas and the match stage into one naive
// Match+Lambda program (paper §4.1 end: "the workload manager pairs the
// lambdas and match stage into a single Match+Lambda program").
func Compose(specs []*LambdaSpec, opts ComposeOptions) (*mcc.Program, error) {
	if len(specs) == 0 {
		return nil, errors.New("matchlambda: no lambdas to compose")
	}
	p := mcc.NewProgram()

	used := make(map[string]bool)
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		for _, h := range s.Uses {
			used[h] = true
		}
	}

	// Generate parsers for every known header.
	plan := &mcc.MatchPlan{UsedParsers: make(map[string]bool)}
	for _, h := range opts.Headers {
		if err := h.Validate(); err != nil {
			return nil, err
		}
		pf, err := GenerateParser(h)
		if err != nil {
			return nil, err
		}
		if err := p.AddFunc(pf); err != nil {
			return nil, err
		}
		plan.Parsers = append(plan.Parsers, pf.Name)
		if used[h.Name] {
			plan.UsedParsers[pf.Name] = true
		}
	}

	// Link shared library code and state once.
	for _, f := range opts.Shared {
		if err := p.AddFunc(f); err != nil {
			return nil, err
		}
	}
	for _, o := range opts.SharedObjects {
		if err := p.AddObject(o); err != nil {
			return nil, err
		}
	}

	// Add lambda code, objects, entries, and per-lambda route tables.
	for _, s := range specs {
		if err := p.AddFunc(s.Entry); err != nil {
			return nil, err
		}
		for _, h := range s.Helpers {
			if err := p.AddFunc(h); err != nil {
				return nil, err
			}
		}
		for _, o := range s.Objects {
			if err := p.AddObject(o); err != nil {
				return nil, err
			}
		}
		if err := p.AddEntry(s.ID, s.Entry.Name); err != nil {
			return nil, err
		}
		if s.Native != nil {
			if p.Native == nil {
				p.Native = make(map[uint32]func([]byte) ([]byte, error))
			}
			p.Native[s.ID] = s.Native
		}
		plan.Tables = append(plan.Tables, mcc.MatchTable{
			Name:  "route_" + s.Name,
			Field: mcc.FieldWorkloadID,
			Entries: []mcc.MatchEntry{
				{Value: int64(s.ID), Action: s.Entry.Name},
			},
		})
	}
	p.Match = plan

	mf, err := mcc.GenerateMatch(plan)
	if err != nil {
		return nil, err
	}
	if err := p.AddFunc(mf); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("matchlambda: composed program invalid: %w", err)
	}
	return p, nil
}

// Extent returns the number of payload bytes the full header occupies.
func (h HeaderSpec) Extent() int {
	extent := 0
	for _, f := range h.Fields {
		if end := f.Offset + f.Bytes; end > extent {
			extent = end
		}
	}
	return extent
}

// GenerateParser synthesizes the parse function for a header: it
// bounds-checks the payload against the header's full extent (a header
// either matches whole or not at all), then assembles each big-endian
// field into its header slot. This is the "automatically generates the
// corresponding parser" step of §4.1.
func GenerateParser(h HeaderSpec) (*mcc.Function, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	b := mcc.NewBuilder(h.ParserName())
	b.PktLen(2) // r2 = payload length
	// if payloadLen < extent: the header is absent; skip everything.
	b.MovImm(3, int64(h.Extent()))
	b.Lt(4, 2, 3)
	b.Brnz(4, "absent")
	for _, f := range h.Fields {
		// Assemble big-endian into r5.
		b.MovImm(5, 0)
		b.MovImm(6, 8)
		for i := 0; i < f.Bytes; i++ {
			b.Shl(5, 5, 6)
			b.PktLoad(7, mcc.RegZero, int64(f.Offset+i))
			b.Or(5, 5, 7)
		}
		b.HdrSet(int64(f.Slot), 5)
	}
	b.Label("absent")
	b.Ret(mcc.RegZero)
	return b.Build()
}
