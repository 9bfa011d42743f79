// Package workloads defines the paper's three benchmark lambdas (§6.2)
// in the two forms the framework runs them:
//
//   - a Match+Lambda form (internal/matchlambda spec with an mcc entry
//     function, helpers, and memory objects) executed by the simulated
//     SmartNIC — instruction counts here regenerate Figure 9;
//   - a native Go handler plus a cpusim service profile, used by the
//     bare-metal and container baseline backends and by the runnable
//     UDP examples.
//
// The lambdas are:
//
//	web server        — returns text content selected by the request
//	                    (§6.2a), modeled on the paper's Listing 2;
//	key-value clients — two distinct clients issuing memcached GET and
//	                    SET requests (§6.2b); their private copies of
//	                    the request-building helper are what lambda
//	                    coalescing deduplicates (§6.4);
//	image transformer — RGBA→grayscale conversion over multi-packet
//	                    RDMA payloads (§6.2c).
package workloads

import (
	"encoding/binary"
	"fmt"

	"lambdanic/internal/cpusim"
	"lambdanic/internal/kvstore"
	"lambdanic/internal/matchlambda"
	"lambdanic/internal/mcc"
)

// Well-known workload IDs, assigned the way the paper's workload
// manager assigns unique IDs at compilation (§4.1).
const (
	WebServerID        uint32 = 1
	KVGetClientID      uint32 = 2
	KVSetClientID      uint32 = 3
	ImageTransformerID uint32 = 4
	BatchSweepID       uint32 = 5
)

// MTU mirrors transport.DefaultMTU for packet-count estimation without
// importing the transport package.
const MTU = 1400

// Deps carries the external services a native handler may need.
type Deps struct {
	// KV is the memcached-substitute client used by the key-value
	// client lambdas.
	KV *kvstore.Client
	// KVTable is the EMEM-resident mirror of the KV store (the table
	// the NIC registers as an RDMA region). When present, GETs can be
	// served by a one-sided probe without invoking the lambda.
	KVTable *kvstore.Table
}

// Workload is one benchmark lambda in both runnable forms.
type Workload struct {
	Name string
	ID   uint32
	// Tenant names the owning tenant ("" = the default tenant). Set by
	// tenant-aware registration (core.Manager.RegisterFor); it rides
	// into worker metrics as a label so fleet views can scope by owner.
	Tenant string
	// Spec is the Match+Lambda form for the NIC backend.
	Spec *matchlambda.LambdaSpec
	// Profile is the CPU-side service demand for the baseline
	// backends.
	Profile cpusim.Profile
	// MakeRequest builds the i-th request payload.
	MakeRequest func(i int) []byte
	// FillRequest, when non-nil, builds the same payload in buf's backing
	// array when it is large enough, overwriting whatever buf held. Set
	// by workloads whose payloads are worth recycling (the 1 MiB image
	// request); load drivers pair it with trace.Refilled.
	FillRequest func(i int, buf []byte) []byte
	// Handle is the native Go implementation (functional layer).
	Handle func(payload []byte, deps *Deps) ([]byte, error)
	// Bypass, when non-nil, tries to serve a request on the one-sided
	// fast path without invoking the lambda (λ-NIC's RDMA-read GET
	// path). ok=false falls through to Handle — the request is then
	// served exactly as if no bypass existed.
	Bypass func(payload []byte, deps *Deps) (resp []byte, ok bool)
}

// Packets returns the wire packet count for a payload.
func Packets(payloadBytes int) int {
	if payloadBytes <= 0 {
		return 1
	}
	return (payloadBytes + MTU - 1) / MTU
}

// Web server content: three pages of webPageSize bytes, matching the
// paper's self-contained text responses (§6.2a).
const (
	webPages    = 3
	webPageSize = 64
)

// webContent builds the static page store.
func webContent() []byte {
	buf := make([]byte, webPages*webPageSize)
	for p := 0; p < webPages; p++ {
		page := fmt.Sprintf("<html><body>lambda-nic page %d</body></html>", p)
		copy(buf[p*webPageSize:(p+1)*webPageSize], page)
	}
	return buf
}

// WebServer returns the web-server workload. The lambda reads the
// requested page ID from the webreq header (2 bytes at payload offset
// 0), copies the page from its content store, and emits it — the shape
// of the paper's Listing 2 web_server.
func WebServer() *Workload {
	return WebServerVariant("web_server", WebServerID)
}

// WebServerVariant returns a distinct web-server lambda with its own
// name, ID, and memory objects. The contention experiment (§6.3.2)
// deploys three such variants side by side; their helper bodies are
// identical, so lambda coalescing still merges them.
func WebServerVariant(name string, id uint32) *Workload {
	content := webContent()
	entry := buildWebEntry(name)
	return &Workload{
		Name: name,
		ID:   id,
		Spec: &matchlambda.LambdaSpec{
			Name:  name,
			ID:    id,
			Entry: entry,
			Helpers: []*mcc.Function{
				buildResponseHelper(name + "_fmt_response"),
			},
			Objects: []*mcc.Object{
				{Name: name + "_content", Size: len(content), Init: content, Hint: mcc.HintHot},
				{Name: name + "_scratch", Size: 128},
			},
			Uses: []string{"webreq"},
		},
		Profile: cpusim.Profile{
			ID:                 id,
			NativeInstructions: 600,
			GILFraction:        1,
		},
		MakeRequest: func(i int) []byte {
			var p [2]byte
			binary.BigEndian.PutUint16(p[:], uint16(i%webPages))
			return p[:]
		},
		Handle: func(payload []byte, _ *Deps) ([]byte, error) {
			if len(payload) < 2 {
				return nil, fmt.Errorf("web_server: short request")
			}
			page := int(binary.BigEndian.Uint16(payload[:2])) % webPages
			return content[page*webPageSize : (page+1)*webPageSize], nil
		},
	}
}

// buildWebEntry generates a web server's entry function. The body is
// straight-line Micro-C-style code: runtime init, request validation,
// page-offset computation, an unrolled header-templating sequence
// (providing the movi-0/near-load sites stratification folds), the page
// copy, and the shared response formatting helper.
func buildWebEntry(name string) *mcc.Function {
	b := mcc.NewBuilder(name)
	b.Call("lib_runtime")
	// r1 = page id from the parsed webreq header.
	b.HdrGet(1, mcc.FieldArg0)
	// Clamp: id = id % webPages via compare chain (no div on NPUs).
	b.MovImm(2, webPages)
	b.Label("mod")
	b.Lt(3, 1, 2)
	b.Brnz(3, "modded")
	b.Sub(1, 1, 2)
	b.Jmp("mod")
	b.Label("modded")
	// r4 = page offset = id * webPageSize.
	b.MovImm(2, webPageSize)
	b.Mul(4, 1, 2)
	// Unrolled template reads: probe content bytes through near loads
	// (each is a movi-0 + load pair the stratifier strength-reduces).
	for i := 0; i < 4; i++ {
		b.MovImm(8, 0)
		b.Load(9, name+"_content", 8, int64(i%webPageSize))
		b.Xor(10, 10, 9)
	}
	// Copy the page into scratch and format the response.
	b.MovImm(5, webPageSize)
	b.MovImm(6, 0)
	b.Memcpy(name+"_scratch", 6, name+"_content", 4, 5)
	b.Call(name + "_fmt_response")
	b.MovImm(6, 0)
	b.Emit(name+"_scratch", 6, 5)
	// Trailer checksum over the scratch page (unrolled arithmetic the
	// real firmware performs for the L4 checksum).
	padChecksum(b, name+"_scratch", 12)
	b.MovImm(1, mcc.StatusForward)
	b.Ret(1)
	return b.MustBuild()
}

// buildResponseHelper generates the response-formatting helper. The web
// server and image transformer each carry a private copy ("a pattern of
// response that does not query external services... we combine their
// reply logic", §6.4); the bodies are identical so coalescing merges
// them.
func buildResponseHelper(name string) *mcc.Function {
	b := mcc.NewBuilder(name)
	// Build a response header into r7: status line + content length.
	b.MovImm(7, 0x200)
	b.MovImm(8, 8)
	b.Shl(7, 7, 8)
	b.Or(7, 7, 5)
	// Unrolled emit of a canned header template.
	for i := 0; i < 95; i++ {
		b.Xor(9, 7, 8)
		b.Add(9, 9, 7)
	}
	b.Ret(7)
	return b.MustBuild()
}

// BuildRuntimeLib generates the shared runtime-library function every
// lambda calls (linked once by the composer): a guarded one-time
// initialization of library state followed by unrolled table setup.
// Static size is significant — it is the lambda runtime — but the
// dynamic cost after the first (cold) request is four instructions.
// pad sizes the init body; internal/workloads.BuildNaiveProgram tunes
// it so the naive four-lambda program lands at the paper's ~8.9 K
// instructions (§6.4, Figure 9).
func BuildRuntimeLib(pad int) *mcc.Function {
	b := mcc.NewBuilder("lib_runtime")
	b.MovImm(1, 0)
	b.LoadW(2, "lib_state", 1, 0)
	b.Brnz(2, "inited")
	b.MovImm(2, 1)
	b.StoreW("lib_state", 1, 0, 2)
	// One-time table/state initialization (unrolled stores; one
	// instruction per pad unit so padding is exact).
	b.MovImm(3, 0x5A)
	for i := 0; i < pad; i++ {
		b.Store("lib_state", 1, int64(8+i%32), 3)
	}
	b.Label("inited")
	b.Ret(2)
	return b.MustBuild()
}

// padChecksum emits n unrolled checksum steps over an object.
func padChecksum(b *mcc.Builder, obj string, n int) {
	b.MovImm(11, 0)
	for i := 0; i < n; i++ {
		b.MovImm(12, 0)
		b.Load(13, obj, 12, int64(i%16))
		b.Add(11, 11, 13)
	}
}
