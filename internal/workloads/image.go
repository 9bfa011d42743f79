package workloads

import (
	"encoding/binary"
	"fmt"

	"lambdanic/internal/cpusim"
	"lambdanic/internal/matchlambda"
	"lambdanic/internal/mcc"
)

// The image transformer (§6.2c) converts RGBA images to grayscale. Its
// requests span many packets, so on λ-NIC the payload arrives via the
// RDMA path into NIC memory (§4.2.1 D3) and the lambda reads it from
// there. The request payload is an imgreq header (width and height,
// 4 bytes each, big-endian) followed by width*height RGBA pixels.

// imgHeaderSize is the imgreq header length.
const imgHeaderSize = 8

// DefaultImageWidth/Height size the benchmark image; 512x512 RGBA is
// a 1 MiB request payload spanning ~750 wire packets.
const (
	DefaultImageWidth  = 512
	DefaultImageHeight = 512
)

// ImageTransformer returns the image-transformer workload for images up
// to width x height pixels.
func ImageTransformer(width, height int) *Workload {
	if width <= 0 || height <= 0 {
		width, height = DefaultImageWidth, DefaultImageHeight
	}
	maxPixels := width * height
	// Per-pixel native cost on the CPU backends: decode, convert,
	// encode in the interpreted runtime.
	perPixelInstr := uint64(12)
	return &Workload{
		Name: "image_transformer",
		ID:   ImageTransformerID,
		Spec: &matchlambda.LambdaSpec{
			Name:  "image_transformer",
			ID:    ImageTransformerID,
			Entry: buildImageEntry(),
			Helpers: []*mcc.Function{
				// Identical body to the web server's copy; lambda
				// coalescing merges the two (§6.4: "we combine their
				// reply logic").
				buildResponseHelper("img_fmt_response"),
			},
			Objects: []*mcc.Object{
				// The grayscale output buffer: large, so memory
				// stratification maps it to IMEM (§6.4: "the image
				// variable within the image-transformer lambda is
				// mapped to IMEM").
				{Name: "img_out", Size: maxPixels},
				{Name: "img_meta", Size: 64, Hint: mcc.HintHot},
			},
			Uses:   []string{"imgreq"},
			Native: grayscaleNative,
		},
		Profile: cpusim.Profile{
			ID:                 ImageTransformerID,
			NativeInstructions: uint64(maxPixels) * perPixelInstr,
			GILFraction:        0.18, // pixel loops run in C extensions
		},
		MakeRequest: func(i int) []byte {
			return ImageRequest(width, height, byte(i))
		},
		Handle: func(payload []byte, _ *Deps) ([]byte, error) {
			return grayscaleNative(payload)
		},
	}
}

// ImageRequest builds an imgreq payload: header plus a deterministic
// RGBA gradient seeded by seed.
func ImageRequest(width, height int, seed byte) []byte {
	p := make([]byte, imgHeaderSize+width*height*4)
	binary.BigEndian.PutUint32(p[0:4], uint32(width))
	binary.BigEndian.PutUint32(p[4:8], uint32(height))
	// Pixel i is the bytes {i+seed, i>>8, i>>16, 0xFF}: one little-endian
	// word. Within a run of 256 pixels only byte 0 varies, so every run is
	// one table of two-pixel words ORed with the run's constant upper
	// bytes.
	var pairs [128]uint64
	for m := range pairs {
		pairs[m] = 0xFF000000_FF000000 | uint64(byte(2*m)+seed) | uint64(byte(2*m+1)+seed)<<32
	}
	upper := func(run int) uint64 {
		u := uint64(run&0xFFFF) << 8
		return u | u<<32
	}
	px := p[imgHeaderSize:]
	run := 0
	for ; len(px) >= 1024; run, px = run+1, px[1024:] {
		r, u := (*[1024]byte)(px), upper(run)
		for m := range pairs {
			binary.LittleEndian.PutUint64(r[8*m:], pairs[m]|u)
		}
	}
	// The last run is partial: whole pairs, then an odd pixel.
	m, u := 0, upper(run)
	for ; len(px) >= 8; m, px = m+1, px[8:] {
		binary.LittleEndian.PutUint64(px, pairs[m]|u)
	}
	if len(px) > 0 {
		binary.LittleEndian.PutUint32(px, uint32(pairs[m]|u))
	}
	return p
}

// grayscaleNative is the transformer as a Go handler, for the real
// worker and to validate the NIC path: the NIC's conversion assist
// (mcc.GrayPixels) over the request's pixels.
func grayscaleNative(payload []byte) ([]byte, error) {
	if len(payload) < imgHeaderSize {
		return nil, fmt.Errorf("image_transformer: short request")
	}
	w := int(binary.BigEndian.Uint32(payload[0:4]))
	h := int(binary.BigEndian.Uint32(payload[4:8]))
	px := payload[imgHeaderSize:]
	// Divide rather than multiply: a forged header's w*h*4 can wrap.
	if w <= 0 || h <= 0 || len(px)/4/w < h {
		return nil, fmt.Errorf("image_transformer: bad dimensions %dx%d for %d bytes", w, h, len(px))
	}
	out := make([]byte, w*h)
	mcc.GrayPixels(out, px)
	return out, nil
}

// buildImageEntry generates the transformer's entry: runtime init,
// header validation with unrolled metadata bookkeeping (near stores the
// stratifier folds), the grayscale bulk conversion from the
// RDMA-committed payload, response formatting, and the emit.
func buildImageEntry() *mcc.Function {
	b := mcc.NewBuilder("image_transformer")
	b.Call("lib_runtime")
	// Parsed imgreq header: r1 = width, r2 = height.
	b.HdrGet(1, mcc.FieldArg0)
	b.HdrGet(2, mcc.FieldArg1)
	b.Mul(3, 1, 2) // pixels
	// Bounds guard: pixels*4 + header must fit the payload.
	b.MovImm(4, 4)
	b.Mul(4, 3, 4)
	b.PktLen(5)
	b.MovImm(6, imgHeaderSize)
	b.Sub(5, 5, 6)
	b.Lt(7, 5, 4) // payload too small?
	b.Brz(7, "size_ok")
	b.MovImm(1, mcc.StatusDrop)
	b.Ret(1)
	b.Label("size_ok")
	// Metadata bookkeeping: record dimensions and derived values in
	// img_meta through near accesses (movi-0 + store/load pairs).
	for i := 0; i < 16; i++ {
		b.MovImm(8, 0)
		b.Load(9, "img_meta", 8, int64(i%32))
		b.Add(10, 10, 9)
	}
	b.MovImm(8, 0)
	b.StoreW("img_meta", 8, 0, 1)
	b.MovImm(8, 0)
	b.StoreW("img_meta", 8, 8, 2)
	// Grayscale conversion: src = payload after the header, n = 4*px.
	b.MovImm(8, imgHeaderSize) // src offset
	b.MovImm(9, 0)             // dst offset
	b.Gray("img_out", 9, mcc.PayloadObject, 8, 4)
	// Format and emit the grayscale bytes.
	b.Call("img_fmt_response")
	b.MovImm(9, 0)
	b.Emit("img_out", 9, 3)
	// Trailer: unrolled output validation.
	padChecksum(b, "img_out", 10)
	b.MovImm(1, mcc.StatusForward)
	b.Ret(1)
	return b.MustBuild()
}
