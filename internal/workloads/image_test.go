package workloads

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// imageRequestOracle is the byte-at-a-time fill ImageRequest replaced,
// kept as the reference its word stores are checked against.
func imageRequestOracle(width, height int, seed byte) []byte {
	p := make([]byte, imgHeaderSize+width*height*4)
	binary.BigEndian.PutUint32(p[0:4], uint32(width))
	binary.BigEndian.PutUint32(p[4:8], uint32(height))
	px := p[imgHeaderSize:]
	for i := 0; i < width*height; i++ {
		px[i*4] = byte(i) + seed
		px[i*4+1] = byte(i >> 8)
		px[i*4+2] = byte(i >> 16)
		px[i*4+3] = 0xFF
	}
	return p
}

func TestImageRequestMatchesOracle(t *testing.T) {
	sizes := [][2]int{{1, 1}, {2, 1}, {3, 1}, {7, 5}, {16, 16}, {255, 3}, {300, 300}, {DefaultImageWidth, DefaultImageHeight}}
	for _, wh := range sizes {
		w, h := wh[0], wh[1]
		if got, want := ImageRequest(w, h, 7), imageRequestOracle(w, h, 7); !bytes.Equal(got, want) {
			t.Errorf("%dx%d: ImageRequest differs from the byte-wise fill", w, h)
		}
	}
	// Every seed, at an odd and an even pixel count (300x300 above
	// crosses the i>>16 byte).
	for seed := 0; seed < 256; seed++ {
		for _, wh := range [][2]int{{5, 3}, {8, 4}} {
			w, h := wh[0], wh[1]
			if got, want := ImageRequest(w, h, byte(seed)), imageRequestOracle(w, h, byte(seed)); !bytes.Equal(got, want) {
				t.Fatalf("%dx%d seed %d: ImageRequest differs from the byte-wise fill", w, h, seed)
			}
		}
	}
}

// TestImageRequestRunTable holds the run-table fill to the per-pixel
// formula at sizes with whole runs of 256 pixels, a partial last run, an
// odd pixel count, and pixel indices past 1<<16 (a nonzero i>>16 byte).
func TestImageRequestRunTable(t *testing.T) {
	sizes := [][2]int{{512, 512}, {64, 64}, {1, 1}, {3, 5}, {257, 3}, {1000, 300}}
	for _, wh := range sizes {
		for _, seed := range []byte{0, 1, 255} {
			w, h := wh[0], wh[1]
			want := imageRequestOracle(w, h, seed)
			if got := ImageRequest(w, h, seed); !bytes.Equal(got, want) {
				t.Errorf("%dx%d seed %d: ImageRequest differs from the per-pixel formula", w, h, seed)
			}
		}
	}
}

func BenchmarkImageRequest(b *testing.B) {
	b.SetBytes(imgHeaderSize + DefaultImageWidth*DefaultImageHeight*4)
	for i := 0; i < b.N; i++ {
		ImageRequest(DefaultImageWidth, DefaultImageHeight, byte(i))
	}
}
