// Package hashing implements the 2-universal hash family the paper relies on
// (Section III-D) plus the min-wise hashing used by the Brahms-style
// baseline sampler.
//
// The family is the classic Carter–Wegman construction over the Mersenne
// prime p = 2^61 − 1:
//
//	h_{a,b}(x) = ⌊((a·x + b) mod p) · k / 2^61⌋,  a ∈ [1, p−1], b ∈ [0, p−1]
//
// The linear value is mapped onto the k buckets by multiply-shift (contiguous
// blocks of [0, p)) rather than by a residue mod k; it is the package's one
// bucket map, so every family member and every serialised sketch agree on
// it. For any two distinct x, y the collision probability over the random
// choice of (a, b) is at most 1/k (up to the negligible p-rounding term),
// which is exactly the 2-universality property Algorithm 2 (Count-Min
// sketch) and the urn analysis of Section V assume.
package hashing

import (
	"errors"
	"fmt"
	"math/bits"

	"nodesampling/internal/rng"
)

// MersennePrime is p = 2^61 − 1, the modulus of the hash family.
const MersennePrime uint64 = (1 << 61) - 1

// mulModMersenne returns (a * b) mod (2^61 − 1) using a 128-bit intermediate
// product and the standard fold reduction for Mersenne primes.
func mulModMersenne(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi·2^64 + lo. With p = 2^61 − 1 we have 2^61 ≡ 1 (mod p), so we
	// fold the value into 61-bit chunks and sum them.
	// lo = lo61 + 2^61·loHi where loHi has 3 bits; hi contributes hi·2^64 =
	// hi·8·2^61 ≡ 8·hi (mod p).
	sum := (lo & MersennePrime) + (lo >> 61) + ((hi << 3) & MersennePrime) + (hi >> 58)
	sum = (sum & MersennePrime) + (sum >> 61)
	if sum >= MersennePrime {
		sum -= MersennePrime
	}
	return sum
}

// addModMersenne returns (a + b) mod (2^61 − 1) for a, b < 2^61.
func addModMersenne(a, b uint64) uint64 {
	sum := a + b
	sum = (sum & MersennePrime) + (sum >> 61)
	if sum >= MersennePrime {
		sum -= MersennePrime
	}
	return sum
}

// reduceModMersenne reduces an arbitrary 64-bit value mod 2^61 − 1.
func reduceModMersenne(x uint64) uint64 {
	x = (x & MersennePrime) + (x >> 61)
	if x >= MersennePrime {
		x -= MersennePrime
	}
	return x
}

// Universal2 is one member h_{a,b} of the 2-universal family mapping uint64
// keys to buckets [0, K).
//
// The bucket of a linear value v = (a·x+b) mod p is Lemire's multiply-shift
// range reduction: v is scaled to the full 64-bit range (v < 2^61, so v·8
// loses nothing) and bucket = high64(8v · k) = ⌊v·k/2^61⌋, a multiply
// instead of a division. The map is an (almost) equipartition of [0, p)
// into k contiguous blocks, so composed with the 2-universal family it
// keeps the family's collision bound.
type Universal2 struct {
	a, b uint64
	k    uint64
}

// maxBuckets bounds the bucket count so the scaled product 8v·k (v < 2^61)
// stays exact in the 128-bit intermediate; 2^31 is far beyond any sketch
// width the service uses.
const maxBuckets = 1 << 31

// checkBuckets validates a bucket count k.
func checkBuckets(k int) error {
	if k <= 0 {
		return fmt.Errorf("hashing: bucket count must be positive, got %d", k)
	}
	if k > maxBuckets {
		return fmt.Errorf("hashing: bucket count %d exceeds limit %d", k, maxBuckets)
	}
	return nil
}

// NewUniversal2 draws a random member of the family with range [0, k). It
// returns an error if k is outside [1, 2^31] or r is nil.
func NewUniversal2(k int, r *rng.Xoshiro) (Universal2, error) {
	if err := checkBuckets(k); err != nil {
		return Universal2{}, err
	}
	if r == nil {
		return Universal2{}, errors.New("hashing: nil random source")
	}
	a := 1 + r.Uint64n(MersennePrime-1) // a ∈ [1, p−1]
	b := r.Uint64n(MersennePrime)       // b ∈ [0, p−1]
	return Universal2{a: a, b: b, k: uint64(k)}, nil
}

// NewUniversal2FromParams reconstructs a family member from its parameters
// (for deserialising sketches); a must lie in [1, p−1] and b in [0, p−1].
func NewUniversal2FromParams(a, b uint64, k int) (Universal2, error) {
	if err := checkBuckets(k); err != nil {
		return Universal2{}, err
	}
	if a < 1 || a >= MersennePrime {
		return Universal2{}, fmt.Errorf("hashing: parameter a=%d outside [1, p-1]", a)
	}
	if b >= MersennePrime {
		return Universal2{}, fmt.Errorf("hashing: parameter b=%d outside [0, p-1]", b)
	}
	return Universal2{a: a, b: b, k: uint64(k)}, nil
}

// Params returns the (a, b) parameters identifying this family member, so a
// sketch can be serialised and later reconstructed with identical hashing.
func (h Universal2) Params() (a, b uint64) { return h.a, h.b }

// K returns the number of buckets.
func (h Universal2) K() int { return int(h.k) }

// bucket maps a 61-bit linear value v = (a·x+b) mod p onto [0, K). v < 2^61,
// so v<<3 spans the full 64-bit range without overflow and hi = ⌊v·k/2^61⌋
// ∈ [0, k). Without the shift the product would only cover [0, k/8):
// multiply-shift divides the *input* range evenly, so the input must span
// the whole 64-bit word.
func (h Universal2) bucket(v uint64) int {
	hi, _ := bits.Mul64(v<<3, h.k)
	return int(hi)
}

// Hash maps x to a bucket in [0, K).
//
// The key is first passed through a fixed 64-bit bijection (the splitmix64
// finalizer). Composing a 2-universal family with a fixed bijection keeps it
// 2-universal, and the mixing reproduces the paper's setting in which node
// identifiers are SHA-1-sized random values: without it, consecutive integer
// ids form arithmetic progressions under the linear map and can leave hash
// buckets systematically uncovered.
//
// This is the reference implementation of the row hash; the hot path is
// Premix once per key plus Column per row, which a property test pins
// against per-row Hash calls bit-for-bit.
func (h Universal2) Hash(x uint64) int {
	return h.bucket(addModMersenne(mulModMersenne(h.a, reduceModMersenne(rng.Mix64(x))), h.b))
}

// Family is an independent collection of 2-universal hash functions sharing
// the same range, as used by the Count-Min sketch (one function per row).
type Family struct {
	fns []Universal2
}

// NewFamily draws s independent functions with range [0, k).
func NewFamily(s, k int, r *rng.Xoshiro) (*Family, error) {
	if s <= 0 {
		return nil, fmt.Errorf("hashing: family size must be positive, got %d", s)
	}
	fns := make([]Universal2, s)
	for i := range fns {
		h, err := NewUniversal2(k, r)
		if err != nil {
			return nil, fmt.Errorf("draw function %d: %w", i, err)
		}
		fns[i] = h
	}
	return &Family{fns: fns}, nil
}

// NewFamilyFromParams reconstructs a family from serialised member
// parameters, all sharing the bucket count k.
func NewFamilyFromParams(params [][2]uint64, k int) (*Family, error) {
	if len(params) == 0 {
		return nil, errors.New("hashing: empty parameter list")
	}
	fns := make([]Universal2, len(params))
	for i, p := range params {
		h, err := NewUniversal2FromParams(p[0], p[1], k)
		if err != nil {
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
		fns[i] = h
	}
	return &Family{fns: fns}, nil
}

// Params returns each member's (a, b) parameters in order.
func (f *Family) Params() [][2]uint64 {
	out := make([][2]uint64, len(f.fns))
	for i, fn := range f.fns {
		out[i][0], out[i][1] = fn.Params()
	}
	return out
}

// Size returns the number of functions in the family.
func (f *Family) Size() int { return len(f.fns) }

// K returns the shared bucket count.
func (f *Family) K() int { return f.fns[0].K() }

// Hash returns the bucket of x under the i-th function. This per-row form
// is the reference path; batch consumers use Members, Premix and Column.
func (f *Family) Hash(i int, x uint64) int { return f.fns[i].Hash(x) }

// Members returns the family's functions in row order, for kernels that
// walk the rows themselves (Premix once, then Column per row). The slice
// is the family's own and must not be modified.
func (f *Family) Members() []Universal2 { return f.fns }

// Premix returns the row-invariant half of every member's hash of x: the
// splitmix64 bijection reduced mod p. A multi-row consumer computes it
// once per key and hands it to Column for each row.
func Premix(x uint64) uint64 { return reduceModMersenne(rng.Mix64(x)) }

// Column maps a premixed key u = Premix(x) to its bucket, so that
// h.Column(Premix(x)) == h.Hash(x) bit for bit, the property
// TestColumnsMatchesHash pins. The linear step is linearMod's single fold
// instead of Hash's separate multiply-mod and add-mod.
func (h *Universal2) Column(u uint64) int { return h.bucket(linearMod(h.a, u, h.b)) }

// linearMod returns (a·u + b) mod p for a, u, b < p with a single fold.
// Because a, u < 2^61 the product is below 2^122, so its high word is below
// 2^58 and contributes hi·2^64 ≡ hi<<3 (mod p) without a split of its own.
// The four terms sum below 3·2^61+8, one fold brings that to at most p+3,
// and one conditional subtraction lands in [0, p): the same canonical value
// as addModMersenne(mulModMersenne(a, u), b). The subtraction is written as
// a min (sum−p wraps above sum exactly when sum < p), which compiles to a
// conditional move and keeps Column within the inlining budget.
func linearMod(a, u, b uint64) uint64 {
	hi, lo := bits.Mul64(a, u)
	sum := (lo & MersennePrime) + (lo >> 61) + (hi << 3) + b
	sum = (sum & MersennePrime) + (sum >> 61)
	return min(sum, sum-MersennePrime)
}

// MinWise is a random "permutation" over the 61-bit id universe used by the
// Brahms-style baseline (Bortnikov et al.): the sampler keeps the id whose
// image under the permutation is minimal. A pairwise-independent linear
// function modulo a prime is a standard min-wise approximation; we expose it
// as a total order over ids.
type MinWise struct {
	a, b uint64
}

// NewMinWise draws a random member of the min-wise family.
func NewMinWise(r *rng.Xoshiro) (MinWise, error) {
	if r == nil {
		return MinWise{}, errors.New("hashing: nil random source")
	}
	a := 1 + r.Uint64n(MersennePrime-1)
	b := r.Uint64n(MersennePrime)
	return MinWise{a: a, b: b}, nil
}

// Image returns the permutation image of x, a value in [0, p). The key is
// pre-mixed with the same fixed bijection as Universal2.Hash, for the same
// reason: structured integer ids must behave like the paper's random
// SHA-1-sized identifiers.
func (m MinWise) Image(x uint64) uint64 {
	return linearMod(m.a, Premix(x), m.b)
}

// Less reports whether x precedes y under the permutation order.
func (m MinWise) Less(x, y uint64) bool { return m.Image(x) < m.Image(y) }
