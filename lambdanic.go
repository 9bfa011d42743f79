// Package lambdanic is an open-source reproduction of "λ-NIC:
// Interactive Serverless Compute on Programmable SmartNICs" (Choi,
// Shahbaz, Prabhakar, Rosenblum — ICDCS 2020): a serverless framework
// that runs interactive lambdas entirely on an ASIC-based SmartNIC
// through the Match+Lambda programming abstraction.
//
// The package is a façade over the implementation packages:
//
//   - write lambdas against the Match+Lambda abstraction with the IR
//     Builder (the Micro-C stand-in) and LambdaSpec;
//   - Compose pairs lambdas with a synthesized parse+match stage;
//     Optimize applies the paper's three target-specific passes (lambda
//     coalescing, match reduction, memory stratification); Link
//     produces executable firmware;
//   - NewDeployment runs the full functional control plane — workload
//     manager, Raft-backed control store, gateway, workers, memcached
//     substitute — over an in-memory packet network or real UDP;
//   - NewSimulation builds discrete-event backends (λ-NIC SmartNIC,
//     bare-metal, container) for performance studies; the experiment
//     harness in cmd/lnic-bench regenerates every table and figure of
//     the paper's evaluation.
package lambdanic

import (
	"lambdanic/internal/backend"
	"lambdanic/internal/cluster"
	"lambdanic/internal/matchlambda"
	"lambdanic/internal/mcc"
	"lambdanic/internal/mcl"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/sim"
	"lambdanic/internal/workloads"
)

// Compiler and abstraction types (see internal/mcc and
// internal/matchlambda for full documentation).
type (
	// Builder composes IR functions with label-based control flow.
	Builder = mcc.Builder
	// Function is one compiled lambda function.
	Function = mcc.Function
	// Object is a named memory object in the lambda's flat address
	// space (design characteristic D2).
	Object = mcc.Object
	// Program is a composed Match+Lambda program.
	Program = mcc.Program
	// Executable is linked firmware runnable on the simulated NIC.
	Executable = mcc.Executable
	// PassResult is one optimizer step of the Figure 9 trajectory.
	PassResult = mcc.PassResult
	// LambdaSpec is one user lambda: entry, helpers, objects, headers.
	LambdaSpec = matchlambda.LambdaSpec
	// HeaderSpec declares an application header and its fields.
	HeaderSpec = matchlambda.HeaderSpec
	// FieldSpec maps payload bytes to a header slot.
	FieldSpec = matchlambda.FieldSpec
	// ComposeOptions tunes Match+Lambda composition.
	ComposeOptions = matchlambda.ComposeOptions
	// OptimizeConfig selects optimizer passes.
	OptimizeConfig = mcc.OptimizeConfig
	// Workload is a benchmark lambda in NIC and native forms.
	Workload = workloads.Workload
	// Testbed is the modeled evaluation environment.
	Testbed = cluster.Testbed
	// Backend is a deploy-and-invoke execution target in simulation.
	Backend = backend.Backend
	// Result is one completed simulated request.
	Result = backend.Result
	// Usage is a backend's resource consumption (Table 3).
	Usage = backend.Usage
	// NICRequest is a request as the simulated NIC sees it.
	NICRequest = nicsim.Request
)

// Header field slots available to lambdas (OpHdrGet/OpHdrSet).
const (
	FieldWorkloadID = mcc.FieldWorkloadID
	FieldRequestID  = mcc.FieldRequestID
	FieldPayloadLen = mcc.FieldPayloadLen
	FieldArg0       = mcc.FieldArg0
	FieldArg1       = mcc.FieldArg1
)

// Lambda return status codes.
const (
	StatusDrop    = mcc.StatusDrop
	StatusForward = mcc.StatusForward
	StatusToHost  = mcc.StatusToHost
)

// Memory-placement pragmas (D2).
const (
	HintAuto = mcc.HintAuto
	HintHot  = mcc.HintHot
	HintCold = mcc.HintCold
)

// PayloadObject names the request payload pseudo-object usable as a
// bulk-operation source.
const PayloadObject = mcc.PayloadObject

// NewBuilder starts a lambda function.
func NewBuilder(name string) *Builder { return mcc.NewBuilder(name) }

// CompileSource compiles a lambda written in the restricted C-like
// source language (the Micro-C stand-in, §4.1) into a LambdaSpec. The
// function named entry becomes the lambda entry point; other functions
// become private helpers and `object` declarations become memory
// objects. See internal/mcl for the language reference.
func CompileSource(name string, id uint32, entry, src string, uses []string) (*LambdaSpec, error) {
	return mcl.CompileLambda(name, id, entry, src, uses)
}

// Compose pairs lambdas and the match stage into one naive
// Match+Lambda program (§4.1).
func Compose(specs []*LambdaSpec, opts ComposeOptions) (*Program, error) {
	return matchlambda.Compose(specs, opts)
}

// AllPasses enables every optimizer pass (§5.1).
func AllPasses() OptimizeConfig { return mcc.AllPasses() }

// Optimize applies the selected passes, returning the optimized program
// and the per-pass size trajectory (Figure 9).
func Optimize(p *Program, cfg OptimizeConfig) (*Program, []PassResult, error) {
	return mcc.Optimize(p, cfg)
}

// Link produces executable firmware from a composed program.
func Link(p *Program) (*Executable, error) {
	return mcc.Link(p)
}

// DefaultTestbed returns the paper's five-node evaluation testbed
// (§6.1.2): Netronome-style 56-core/448-thread SmartNICs, dual Xeon
// Gold 5117 hosts, a 10 G switch.
func DefaultTestbed() Testbed { return cluster.Default() }

// BenchmarkWorkloads returns the paper's benchmark set (§6.2): web
// server, two key-value clients, image transformer.
func BenchmarkWorkloads() []*Workload { return workloads.DefaultSet() }

// WebServer returns the web-server benchmark workload.
func WebServer() *Workload { return workloads.WebServer() }

// WebServerVariant returns a distinct web-server lambda with its own
// name, ID, and memory objects (the contention experiment of §6.3.2
// deploys three side by side).
func WebServerVariant(name string, id uint32) *Workload {
	return workloads.WebServerVariant(name, id)
}

// KVGetClient returns the memcached GET client workload.
func KVGetClient() *Workload { return workloads.KVGetClient() }

// KVSetClient returns the memcached SET client workload.
func KVSetClient() *Workload { return workloads.KVSetClient() }

// ImageTransformer returns the RGBA→grayscale workload for images up to
// width x height.
func ImageTransformer(width, height int) *Workload {
	return workloads.ImageTransformer(width, height)
}

// Simulation is a discrete-event performance environment hosting the
// three backends the paper compares.
type Simulation struct {
	sim     *sim.Sim
	testbed Testbed
}

// NewSimulation creates a simulation of the paper's testbed with a
// deterministic seed.
func NewSimulation(seed int64) *Simulation {
	return &Simulation{sim: sim.New(seed), testbed: cluster.Default()}
}

// NewSimulationWithTestbed uses a custom testbed model.
func NewSimulationWithTestbed(seed int64, tb Testbed) *Simulation {
	return &Simulation{sim: sim.New(seed), testbed: tb}
}

// LambdaNICBackend creates the SmartNIC backend (§4, §5).
func (s *Simulation) LambdaNICBackend() (Backend, error) {
	return backend.NewLambdaNIC(s.sim, s.testbed, nicsim.DispatchUniform)
}

// BareMetalBackend creates the Isolate-style bare-metal backend;
// singleCore restricts it to one hardware thread (Fig. 8).
func (s *Simulation) BareMetalBackend(singleCore bool) (Backend, error) {
	return backend.NewBareMetal(s.sim, s.testbed, singleCore)
}

// ContainerBackend creates the OpenFaaS/Docker-style backend.
func (s *Simulation) ContainerBackend() (Backend, error) {
	return backend.NewContainer(s.sim, s.testbed)
}

// Run drains the simulation's event queue.
func (s *Simulation) Run() error { return s.sim.RunUntilIdle() }

// Now returns the current virtual time.
func (s *Simulation) Now() sim.Time { return s.sim.Now() }
