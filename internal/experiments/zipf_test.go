package experiments

import "testing"

func TestZipfDeterministic(t *testing.T) {
	a, err := newZipf(100, 1.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newZipf(100, 1.1, 42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("draw %d diverged: %d vs %d", i, x, y)
		}
	}
	c, _ := newZipf(100, 1.1, 43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("different seeds produced an identical stream")
	}
}

func TestZipfSkew(t *testing.T) {
	z, err := newZipf(1000, 1.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 20000
	counts := make([]int, 1000)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// With s=1.1 over 1000 ranks, the top 10% of ranks should absorb the
	// large majority of draws — the "90/10" shape the skew experiment
	// relies on.
	top := 0
	for i := 0; i < 100; i++ {
		top += counts[i]
	}
	if frac := float64(top) / draws; frac < 0.75 {
		t.Errorf("top 10%% of ranks got %.0f%% of draws, want ≥75%%", frac*100)
	}
	if counts[0] <= counts[500] {
		t.Errorf("rank 0 (%d draws) not hotter than rank 500 (%d)", counts[0], counts[500])
	}
}

func TestZipfUniformWhenExponentZero(t *testing.T) {
	z, err := newZipf(4, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for i := 0; i < 8000; i++ {
		counts[z.Next()]++
	}
	for r, c := range counts {
		if c < 1500 || c > 2500 {
			t.Errorf("rank %d drew %d of 8000, want ≈2000 (uniform)", r, c)
		}
	}
}

func TestZipfRange(t *testing.T) {
	z, err := newZipf(5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if r := z.Next(); r < 0 || r >= 5 {
			t.Fatalf("rank %d out of [0,5)", r)
		}
	}
}

func TestZipfRejectsBadParams(t *testing.T) {
	if _, err := newZipf(0, 1, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := newZipf(10, -1, 1); err == nil {
		t.Error("negative exponent accepted")
	}
}
