package hashing

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"nodesampling/internal/rng"
)

// TestMulModMersenneAgainstBig cross-checks the fast Mersenne reduction
// against math/big over random operands.
func TestMulModMersenneAgainstBig(t *testing.T) {
	r := rng.New(1)
	p := new(big.Int).SetUint64(MersennePrime)
	for i := 0; i < 20000; i++ {
		a := r.Uint64n(MersennePrime)
		b := r.Uint64n(MersennePrime)
		got := mulModMersenne(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		if got != want.Uint64() {
			t.Fatalf("mulModMersenne(%d, %d) = %d, want %d", a, b, got, want.Uint64())
		}
	}
}

func TestMulModMersenneEdgeCases(t *testing.T) {
	cases := []struct{ a, b uint64 }{
		{0, 0},
		{0, MersennePrime - 1},
		{MersennePrime - 1, MersennePrime - 1},
		{1, MersennePrime - 1},
		{MersennePrime / 2, 2},
	}
	p := new(big.Int).SetUint64(MersennePrime)
	for _, c := range cases {
		got := mulModMersenne(c.a, c.b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(c.a), new(big.Int).SetUint64(c.b))
		want.Mod(want, p)
		if got != want.Uint64() {
			t.Errorf("mulModMersenne(%d, %d) = %d, want %d", c.a, c.b, got, want.Uint64())
		}
	}
}

func TestAddModMersenneProperty(t *testing.T) {
	r := rng.New(2)
	f := func(_ uint64) bool {
		a := r.Uint64n(MersennePrime)
		b := r.Uint64n(MersennePrime)
		got := addModMersenne(a, b)
		want := (a + b) % MersennePrime
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceModMersenne(t *testing.T) {
	r := rng.New(3)
	for i := 0; i < 10000; i++ {
		x := r.Uint64()
		if got, want := reduceModMersenne(x), x%MersennePrime; got != want {
			t.Fatalf("reduceModMersenne(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestNewUniversal2Validation(t *testing.T) {
	r := rng.New(4)
	if _, err := NewUniversal2(0, r); err == nil {
		t.Error("NewUniversal2(0) should fail")
	}
	if _, err := NewUniversal2(-3, r); err == nil {
		t.Error("NewUniversal2(-3) should fail")
	}
	if _, err := NewUniversal2(10, nil); err == nil {
		t.Error("NewUniversal2 with nil rng should fail")
	}
	if _, err := NewUniversal2(maxBuckets+1, r); err == nil {
		t.Error("NewUniversal2 above 2^31 buckets should fail")
	}
	if _, err := NewUniversal2FromParams(1, 0, maxBuckets+1); err == nil {
		t.Error("NewUniversal2FromParams above 2^31 buckets should fail")
	}
}

func TestUniversal2Range(t *testing.T) {
	r := rng.New(5)
	for _, k := range []int{1, 2, 7, 64, 1000} {
		h, err := NewUniversal2(k, r)
		if err != nil {
			t.Fatal(err)
		}
		if h.K() != k {
			t.Fatalf("K() = %d, want %d", h.K(), k)
		}
		for i := 0; i < 1000; i++ {
			if b := h.Hash(r.Uint64()); b < 0 || b >= k {
				t.Fatalf("bucket %d out of range [0,%d)", b, k)
			}
		}
	}
}

// TestUniversal2CollisionBound estimates the pairwise collision probability
// over random draws of the function and checks it is close to 1/k, the
// 2-universality guarantee from Section III-D of the paper.
func TestUniversal2CollisionBound(t *testing.T) {
	r := rng.New(6)
	const k = 16
	const pairs = 64
	const draws = 4000
	collisions := 0
	for i := 0; i < pairs; i++ {
		x := r.Uint64()
		y := r.Uint64()
		if x == y {
			continue
		}
		for j := 0; j < draws/pairs; j++ {
			h, err := NewUniversal2(k, r)
			if err != nil {
				t.Fatal(err)
			}
			if h.Hash(x) == h.Hash(y) {
				collisions++
			}
		}
	}
	p := float64(collisions) / draws
	// 2-universality promises p <= 1/k (up to rounding); allow generous
	// statistical slack above the bound.
	bound := 1.0/k + 4*math.Sqrt((1.0/k)*(1-1.0/k)/draws)
	if p > bound {
		t.Fatalf("collision probability %v exceeds 2-universal bound %v", p, bound)
	}
}

// TestUniversal2Uniformity checks a single drawn function spreads a
// structured key set (consecutive integers) evenly via a chi-square test.
func TestUniversal2Uniformity(t *testing.T) {
	r := rng.New(7)
	const k = 32
	const n = 64000
	h, err := NewUniversal2(k, r)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, k)
	for x := uint64(0); x < n; x++ {
		counts[h.Hash(x)]++
	}
	want := float64(n) / k
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - want
		chi2 += d * d / want
	}
	// 31 degrees of freedom; 99.9th percentile is about 61.1. A pairwise-
	// independent linear map on consecutive keys is in fact very regular, so
	// this is a loose sanity check rather than a sharp test.
	if chi2 > 100 {
		t.Fatalf("chi-square %v too large for uniform buckets", chi2)
	}
}

func TestFamilyIndependentFunctions(t *testing.T) {
	r := rng.New(8)
	f, err := NewFamily(5, 64, r)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 5 || f.K() != 64 {
		t.Fatalf("family shape = (%d, %d), want (5, 64)", f.Size(), f.K())
	}
	// Two distinct rows should disagree on most keys.
	agree := 0
	const n = 1000
	for i := 0; i < n; i++ {
		x := r.Uint64()
		if f.Hash(0, x) == f.Hash(1, x) {
			agree++
		}
	}
	if agree > n/4 {
		t.Fatalf("rows 0 and 1 agreed on %d/%d keys; functions look identical", agree, n)
	}
}

func TestNewFamilyValidation(t *testing.T) {
	r := rng.New(9)
	if _, err := NewFamily(0, 8, r); err == nil {
		t.Error("NewFamily(0, 8) should fail")
	}
	if _, err := NewFamily(3, 0, r); err == nil {
		t.Error("NewFamily(3, 0) should fail")
	}
}

func TestMinWiseIsInjectiveOnSamples(t *testing.T) {
	r := rng.New(10)
	m, err := NewMinWise(r)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]uint64)
	for i := 0; i < 20000; i++ {
		x := r.Uint64n(MersennePrime)
		img := m.Image(x)
		if prev, ok := seen[img]; ok && prev != x {
			t.Fatalf("min-wise image collision: %d and %d both map to %d", prev, x, img)
		}
		seen[img] = x
	}
}

func TestMinWiseMinUniformity(t *testing.T) {
	// The defining property of min-wise families: over the random draw of
	// the permutation, each element of a fixed set is the minimum with
	// probability close to 1/|set|.
	r := rng.New(11)
	ids := []uint64{3, 17, 101, 9999, 123456789}
	const draws = 20000
	wins := make([]int, len(ids))
	for d := 0; d < draws; d++ {
		m, err := NewMinWise(r)
		if err != nil {
			t.Fatal(err)
		}
		best := 0
		for i := 1; i < len(ids); i++ {
			if m.Less(ids[i], ids[best]) {
				best = i
			}
		}
		wins[best]++
	}
	want := float64(draws) / float64(len(ids))
	for i, w := range wins {
		if math.Abs(float64(w)-want) > 6*math.Sqrt(want) {
			t.Fatalf("id %d was minimum %d times, want about %v", ids[i], w, want)
		}
	}
}

func TestMinWiseNilRNG(t *testing.T) {
	if _, err := NewMinWise(nil); err == nil {
		t.Error("NewMinWise(nil) should fail")
	}
}

func BenchmarkUniversal2Hash(b *testing.B) {
	r := rng.New(1)
	h, err := NewUniversal2(1024, r)
	if err != nil {
		b.Fatal(err)
	}
	var sink int
	for i := 0; i < b.N; i++ {
		sink += h.Hash(uint64(i))
	}
	_ = sink
}

func BenchmarkMinWiseImage(b *testing.B) {
	r := rng.New(1)
	m, err := NewMinWise(r)
	if err != nil {
		b.Fatal(err)
	}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Image(uint64(i))
	}
	_ = sink
}

// TestColumnsMatchesHash pins the fused row path (Premix once per key,
// Column per member) against the per-row reference Hash bit-for-bit, over
// randomized shapes and keys and bucket counts up to the limit (k near 2^31
// exercises the scaled multiply's top end).
func TestColumnsMatchesHash(t *testing.T) {
	r := rng.New(99)
	ks := []int{1, 2, 3, 7, 10, 1000, 1 << 20, (1 << 31) - 1, 1 << 31}
	for _, k := range ks {
		for _, s := range []int{1, 4, 17} {
			f, err := NewFamily(s, k, r)
			if err != nil {
				t.Fatal(err)
			}
			fns := f.Members()
			for trial := 0; trial < 200; trial++ {
				x := r.Uint64()
				if trial < 4 {
					// Also cover structured keys: 0, 1, p, ^0.
					x = []uint64{0, 1, MersennePrime, ^uint64(0)}[trial]
				}
				u := Premix(x)
				for row := 0; row < s; row++ {
					want := f.Hash(row, x)
					if got := fns[row].Column(u); got != want {
						t.Fatalf("k=%d s=%d row %d key %#x: Column %d != Hash %d",
							k, s, row, x, got, want)
					}
					if want < 0 || want >= k {
						t.Fatalf("k=%d: bucket %d out of range", k, want)
					}
				}
			}
		}
	}
}

// TestFastrangeUniform: the multiply-shift (fastrange) bucket map composed
// with the family stays statistically uniform over random keys.
func TestFastrangeUniform(t *testing.T) {
	const k, draws = 64, 200000
	r := rng.New(11)
	h, err := NewUniversal2(k, r)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, k)
	for i := 0; i < draws; i++ {
		counts[h.Hash(r.Uint64())]++
	}
	want := float64(draws) / k
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - want
		chi2 += d * d / want
	}
	// 99.9th percentile of chi-square with 63 degrees of freedom ≈ 103.
	if chi2 > 103 {
		t.Fatalf("chi-square %.1f over 63 dof; fastrange buckets not uniform", chi2)
	}
}

// TestFamilyFromParamsModeRoundTrip: a family's params reconstruct the
// exact family under the one bucket map.
func TestFamilyFromParamsModeRoundTrip(t *testing.T) {
	r := rng.New(3)
	f, err := NewFamily(3, 777, r)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewFamilyFromParams(f.Params(), 777)
	if err != nil {
		t.Fatal(err)
	}
	for x := uint64(0); x < 500; x++ {
		for row := 0; row < 3; row++ {
			if f.Hash(row, x) != g.Hash(row, x) {
				t.Fatalf("reconstructed family diverged at key %d", x)
			}
		}
	}
}

func BenchmarkFamilyColumns(b *testing.B) {
	f, err := NewFamily(5, 1024, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	fns := f.Members()
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := Premix(uint64(i))
		for r := range fns {
			sink += fns[r].Column(u)
		}
	}
	_ = sink
}

// TestLinearModMatchesMulAdd pins the one-fold linear step against the
// two-step multiply-mod then add-mod it replaces, at the extremes of the
// operand range (where the fold bounds are tight) and on random operands.
func TestLinearModMatchesMulAdd(t *testing.T) {
	edge := []uint64{0, 1, 2, 7, 8, 1 << 58, 1 << 60, MersennePrime - 2, MersennePrime - 1}
	for _, a := range edge {
		for _, u := range edge {
			for _, b := range edge {
				if got, want := linearMod(a, u, b), addModMersenne(mulModMersenne(a, u), b); got != want {
					t.Fatalf("linearMod(%#x, %#x, %#x) = %#x, want %#x", a, u, b, got, want)
				}
			}
		}
	}
	r := rng.New(17)
	for i := 0; i < 1_000_000; i++ {
		a, u, b := r.Uint64n(MersennePrime), r.Uint64n(MersennePrime), r.Uint64n(MersennePrime)
		if got, want := linearMod(a, u, b), addModMersenne(mulModMersenne(a, u), b); got != want {
			t.Fatalf("linearMod(%#x, %#x, %#x) = %#x, want %#x", a, u, b, got, want)
		}
	}
}
