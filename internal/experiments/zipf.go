package experiments

// Seeded Zipf popularity generator for the skew experiment.
//
// math/rand's Zipf is not reproducible across Go releases (its
// rejection sampler's draw count depends on internal generator
// details), and the skew experiment's output, held byte for byte by
// cmd/lnic-bench/testdata and bench/golden.json, needs bit-identical
// arrival schedules on every toolchain. This generator therefore owns
// everything: a splitmix64 PRNG and plain CDF inversion over a
// precomputed table, so (seed, n, s) fully determines the i-th draw
// forever.

import (
	"fmt"
	"math"
	"sort"
)

// zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^s. Rank 0 is the most popular. Not safe for concurrent
// use; give each goroutine its own instance.
type zipf struct {
	cdf   []float64
	state uint64
}

// newZipf builds a generator over n ranks with exponent s ≥ 0 (s = 0 is
// uniform; s ≈ 1 is the classic "90/10" web skew) seeded by seed.
func newZipf(n int, s float64, seed uint64) (*zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("zipf needs n ≥ 1, got %d", n)
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("zipf exponent must be finite and ≥ 0, got %v", s)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against accumulated rounding
	return &zipf{cdf: cdf, state: seed}, nil
}

// Next returns the next rank.
func (z *zipf) Next() int {
	u := z.uniform()
	return sort.SearchFloat64s(z.cdf, u)
}

// Uint64 returns the next raw PRNG output — handy for deriving
// secondary choices (e.g. one-shot vs long-lived) from the same seeded
// stream without a second generator.
func (z *zipf) Uint64() uint64 {
	z.state += 0x9e3779b97f4a7c15
	x := z.state
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// uniform returns a float64 in [0, 1) from the top 53 bits.
func (z *zipf) uniform() float64 {
	return float64(z.Uint64()>>11) / (1 << 53)
}
