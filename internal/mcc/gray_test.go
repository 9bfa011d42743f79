package mcc

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// grayOracle is the conversion assist one pixel at a time, as the
// formula reads: the spec GrayPixels is held to.
func grayOracle(dst, src []byte) {
	for p := range dst {
		r, g, b := uint32(src[4*p]), uint32(src[4*p+1]), uint32(src[4*p+2])
		dst[p] = byte((77*r + 150*g + 29*b) >> 8)
	}
}

// TestGrayPixelsExhaustive holds GrayPixels to the oracle on every RGB
// value with alpha 0, 0x80 and 0xff, with each value converted in both
// halves of a word and in the per-pixel tail.
func TestGrayPixelsExhaustive(t *testing.T) {
	const n = 1 << 16 // one red value: every green x blue
	src := make([]byte, 4*n)
	want, got := make([]byte, n), make([]byte, n)
	// The race detector makes the sweep 50x slower and adds nothing to
	// a function that shares no memory: there, every 15th red value.
	redStep := 1
	if raceEnabled {
		redStep = 15
	}
	for _, a := range []byte{0, 0x80, 0xff} {
		for r := 0; r < 256; r += redStep {
			for i := 0; i < n; i++ {
				src[4*i], src[4*i+1], src[4*i+2], src[4*i+3] = byte(r), byte(i>>8), byte(i), a
			}
			grayOracle(want, src)
			// Pixel i sits in the low half of a word when i is even;
			// starting one pixel in swaps the halves.
			GrayPixels(got, src)
			check := func(how string, from int) {
				if !bytes.Equal(got[from:], want[from:]) {
					i := from + firstDiff(got[from:], want[from:])
					t.Fatalf("%s: pixel %02x%02x%02x alpha %02x: got %d, want %d",
						how, src[4*i], src[4*i+1], src[4*i+2], a, got[i], want[i])
				}
			}
			check("aligned", 0)
			clear(got)
			GrayPixels(got[1:], src[4:])
			check("shifted", 1)
			clear(got)
			for p := 0; p < n; p += 7 { // runs shorter than 8: all tail
				end := min(p+7, n)
				GrayPixels(got[p:end], src[4*p:])
			}
			check("tail", 0)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// FuzzGrayPixels holds GrayPixels to the oracle on arbitrary bytes at
// arbitrary source and destination offsets, and checks it writes only
// dst: the bytes around it keep their values.
func FuzzGrayPixels(f *testing.F) {
	rng := rand.New(rand.NewPCG(1, 2))
	for count := 0; count <= 17; count++ {
		data := make([]byte, 4*count+7)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		f.Add(data, uint8(count%8), uint8(7-count%8), uint16(count))
	}
	big := make([]byte, 4*4099+3)
	for i := range big {
		big[i] = byte(rng.Uint32())
	}
	f.Add(big, uint8(3), uint8(5), uint16(4099))
	f.Fuzz(func(t *testing.T, data []byte, soff, doff uint8, count uint16) {
		so, do := int(soff)%8, int(doff)%8
		if so > len(data) {
			so = len(data)
		}
		n := min(int(count), (len(data)-so)/4)
		src := data[so:]
		const fill = 0x5A
		buf := bytes.Repeat([]byte{fill}, do+n+8)
		want := make([]byte, n)
		grayOracle(want, src)
		GrayPixels(buf[do:do+n:do+n], src)
		if !bytes.Equal(buf[do:do+n], want) {
			t.Fatalf("%d pixels at src+%d, dst+%d: got %x, want %x", n, so, do, buf[do:do+n], want)
		}
		for i, c := range buf {
			if (i < do || i >= do+n) && c != fill {
				t.Fatalf("%d pixels at dst+%d: byte %d outside dst written", n, do, i)
			}
		}
	})
}
