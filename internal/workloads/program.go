package workloads

import (
	"fmt"

	"lambdanic/internal/matchlambda"
	"lambdanic/internal/mcc"
	"lambdanic/internal/nicsim"
)

// NaiveProgramTarget is the paper's naive four-lambda program size:
// 8,902 instructions (§6.4, Figure 9). BuildNaiveProgram pads the
// shared runtime library so the composed program lands exactly there.
const NaiveProgramTarget = 8902

// Headers returns the full header dictionary the naive program parses:
// the application headers the lambdas declare plus a generic protocol
// stack (ethernet/ipv4/udp/tunnel) that no lambda uses — the parse
// logic match reduction removes ("removing the unused headers and
// duplicate match fields from the final code", §5.1).
//
// Parser order matters and is part of the contract: parsers run in
// slice order and later parsers overwrite earlier ones' slots, so the
// most specific application header (imgreq, with the longest minimum
// payload) comes last. Each parser bounds-checks the payload, so a
// shorter request leaves the more specific slots untouched.
func Headers() []matchlambda.HeaderSpec {
	return []matchlambda.HeaderSpec{
		{Name: "ethernet", Fields: []matchlambda.FieldSpec{
			{Slot: mcc.FieldSrcNode, Offset: 0, Bytes: 6},
			{Slot: mcc.FieldSrcNode, Offset: 6, Bytes: 6},
			{Slot: mcc.FieldSrcNode, Offset: 12, Bytes: 2},
		}},
		{Name: "ipv4", Fields: []matchlambda.FieldSpec{
			{Slot: mcc.FieldSrcNode, Offset: 14, Bytes: 1},
			{Slot: mcc.FieldSrcNode, Offset: 15, Bytes: 1},
			{Slot: mcc.FieldSrcNode, Offset: 16, Bytes: 2},
			{Slot: mcc.FieldSrcNode, Offset: 18, Bytes: 4},
			{Slot: mcc.FieldSrcNode, Offset: 22, Bytes: 4},
		}},
		{Name: "udp", Fields: []matchlambda.FieldSpec{
			{Slot: mcc.FieldSrcNode, Offset: 26, Bytes: 2},
			{Slot: mcc.FieldSrcNode, Offset: 28, Bytes: 2},
			{Slot: mcc.FieldSrcNode, Offset: 30, Bytes: 2},
		}},
		{Name: "tunnel", Fields: []matchlambda.FieldSpec{
			{Slot: mcc.FieldSrcNode, Offset: 32, Bytes: 4},
			{Slot: mcc.FieldSrcNode, Offset: 36, Bytes: 4},
			{Slot: mcc.FieldSrcNode, Offset: 40, Bytes: 2},
		}},
		// Application headers, least- to most-specific.
		{Name: "webreq", Fields: []matchlambda.FieldSpec{
			{Slot: mcc.FieldArg0, Offset: 0, Bytes: 2},
		}},
		{Name: "kvreq", Fields: []matchlambda.FieldSpec{
			{Slot: mcc.FieldArg0, Offset: 0, Bytes: 1},
			{Slot: mcc.FieldArg1, Offset: 1, Bytes: 4},
		}},
		{Name: "imgreq", Fields: []matchlambda.FieldSpec{
			{Slot: mcc.FieldArg0, Offset: 0, Bytes: 4},
			{Slot: mcc.FieldArg1, Offset: 4, Bytes: 4},
		}},
	}
}

// DefaultSet returns the paper's benchmark set in Figure 9's
// composition: two key-value clients, a web server, and an image
// transformer (§6.4).
func DefaultSet() []*Workload {
	return []*Workload{
		WebServer(),
		KVGetClient(),
		KVSetClient(),
		ImageTransformer(DefaultImageWidth, DefaultImageHeight),
	}
}

// BuildNaiveProgram composes the workloads into one naive Match+Lambda
// program, padding the shared runtime library so the total code size
// lands on target (0 means no padding). The result is the "Unoptimized"
// program of Figure 9; run mcc.Optimize on it for the optimized
// trajectory.
func BuildNaiveProgram(ws []*Workload, target int) (*mcc.Program, error) {
	compose := func(pad int) (*mcc.Program, error) {
		specs := make([]*matchlambda.LambdaSpec, 0, len(ws))
		for _, w := range ws {
			// Entries and helpers are reused across compositions;
			// compose clones nothing, so rebuild specs fresh each call
			// to avoid cross-program aliasing of mutable bodies.
			specs = append(specs, w.Spec)
		}
		return matchlambda.Compose(specs, matchlambda.ComposeOptions{
			Headers: Headers(),
			Shared:  []*mcc.Function{BuildRuntimeLib(pad)},
			SharedObjects: []*mcc.Object{
				{Name: "lib_state", Size: 64},
			},
		})
	}
	p, err := compose(0)
	if err != nil {
		return nil, err
	}
	if target <= 0 {
		return p, nil
	}
	size := p.StaticInstructions()
	if size >= target {
		return p, nil
	}
	p, err = compose(target - size)
	if err != nil {
		return nil, err
	}
	if got := p.StaticInstructions(); got != target {
		return nil, fmt.Errorf("workloads: padded program is %d instructions, want %d", got, target)
	}
	return p, nil
}

// CompileOptimized builds the naive program, runs all optimizer passes,
// and links the result, returning the executable image and the per-pass
// trajectory (Figure 9).
func CompileOptimized(ws []*Workload, target int) (*mcc.Executable, []mcc.PassResult, error) {
	return CompileOptimizedWith(ws, target, mcc.LinkOptions{})
}

// CompileOptimizedWith is CompileOptimized with explicit link options
// (execution engine, step limit, payload placement). The reduced match
// stage the optimizer emits is what the compiled engine turns into its
// WorkloadID jump table.
func CompileOptimizedWith(ws []*Workload, target int, opts mcc.LinkOptions) (*mcc.Executable, []mcc.PassResult, error) {
	opt, results, err := OptimizedProgram(ws, target)
	if err != nil {
		return nil, nil, err
	}
	exe, err := mcc.Link(opt, opts)
	if err != nil {
		return nil, nil, err
	}
	return exe, results, nil
}

// OptimizedProgram is the compiler front end alone: the naive program
// run through all optimizer passes, not yet linked. mcc.Link does not
// modify it, so one result can be linked once per NIC.
func OptimizedProgram(ws []*Workload, target int) (*mcc.Program, []mcc.PassResult, error) {
	naive, err := BuildNaiveProgram(ws, target)
	if err != nil {
		return nil, nil, err
	}
	return mcc.Optimize(naive, mcc.AllPasses())
}

// ExplainReplay compiles w on its own, runs its request 0 so persistent
// state is warm (the runtime library's one-time init), and returns what
// a compiled image decides for its request 1: "replayed: <guard>" when
// the lambda's NIC cost is recorded once and replayed, "executed:
// <reason>" when every request runs the IR (mcc.Executable.Explain).
func ExplainReplay(w *Workload) (string, error) {
	exe, _, err := CompileOptimized([]*Workload{w}, 0)
	if err != nil {
		return "", err
	}
	request := func(i int) *nicsim.Request {
		payload := w.MakeRequest(i)
		return &nicsim.Request{LambdaID: w.ID, Payload: payload, Packets: Packets(len(payload))}
	}
	if _, err := exe.Execute(request(0)); err != nil {
		return "", fmt.Errorf("%s: %w", w.Name, err)
	}
	return exe.Explain(request(1)), nil
}
