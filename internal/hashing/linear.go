// Package hashing implements the two hash families the paper's protocols
// are built on:
//
//   - the linear family of Theorem 3.2 (used by Protocols 1 and 2 and the
//     DSym protocol) — see LinearFamily;
//   - a concrete ε-almost-pairwise-independent family with a distributable
//     seed (used by the GNI protocol of Section 4) — see GSParams.
package hashing

import (
	"fmt"
	"math/big"
	"math/rand"

	"dip/internal/bitset"
)

// LinearFamily is the hash family of Theorem 3.2: for a prime p, the family
// {h_i : i ∈ Z_p} of functions from m-coordinate vectors over Z_p to Z_p,
// with
//
//	h_i(x) = Σ_{j=1..m} x_j · i^j  (mod p).
//
// Properties (Theorem 3.2):
//  1. Linearity: h_i(x + x') = h_i(x) + h_i(x') with coordinatewise sums
//     taken mod p — this is what lets the nodes hash the adjacency matrix
//     by each hashing its own row and summing up the spanning tree;
//  2. Collision: for x ≠ x', Pr_i[h_i(x) = h_i(x')] ≤ m/p, because the
//     difference is a non-zero polynomial of degree ≤ m in i.
//
// Every evaluation runs in one fixed-width Montgomery field built from p
// when the family is made: a single machine word for Protocol 1's
// cubic-window moduli, k words for Protocol 2's Θ(n log n)-bit ones. The
// Montgomery form is only a change of representation and every value
// leaves the field fully reduced, so the hash values are exactly those
// of the definition above — byte-identical reports. A term costs a few
// word multiplications, and HashIndicator, HashRowMatrix and AddMod
// allocate nothing but their result.
type LinearFamily struct {
	m  int      // dimension of the hashed vectors
	p  *big.Int // prime modulus; |H| = p
	fp *field   // Z_p in Montgomery form: every evaluation runs here
}

// NewLinearFamily returns the family for m-dimensional vectors over Z_p.
// p must be an odd prime; primality is the caller's contract (moduli come
// from the prime package) and is not re-checked here, but an even modulus
// is refused, because the Montgomery arithmetic the family evaluates in
// needs p odd.
func NewLinearFamily(m int, p *big.Int) (*LinearFamily, error) {
	if m < 1 {
		return nil, fmt.Errorf("hashing: dimension %d < 1", m)
	}
	if p.Cmp(big.NewInt(2)) < 0 {
		return nil, fmt.Errorf("hashing: modulus %v < 2", p)
	}
	if p.Bit(0) == 0 {
		return nil, fmt.Errorf("hashing: modulus %v is even", p)
	}
	p = new(big.Int).Set(p)
	return &LinearFamily{m: m, p: p, fp: newField(p)}, nil
}

// M returns the dimension of the hashed vectors.
func (f *LinearFamily) M() int { return f.m }

// P returns (a copy of) the modulus.
func (f *LinearFamily) P() *big.Int { return new(big.Int).Set(f.p) }

// Size returns |H| = p: the number of functions in the family.
func (f *LinearFamily) Size() *big.Int { return f.P() }

// RandomSeed returns a uniformly random hash index i ∈ Z_p.
func (f *LinearFamily) RandomSeed(rng *rand.Rand) *big.Int {
	return new(big.Int).Rand(rng, f.p)
}

// ValidSeed reports whether i is a valid hash index (0 ≤ i < p).
func (f *LinearFamily) ValidSeed(i *big.Int) bool {
	return i.Sign() >= 0 && i.Cmp(f.p) < 0
}

// HashIndicator evaluates h_i on the characteristic vector of the given
// coordinate set: h_i(χ) = Σ_{j ∈ set} i^{j+1} mod p. Coordinates are
// 0-based; coordinate j corresponds to the monomial i^{j+1} so that the
// constant term is never used and h_i(0) = 0. Ascending coordinates are
// cheapest (each power steps from the previous one); unsorted and repeated
// coordinates are accepted and hash as the same multiset sum. A seed
// outside [0, p) is reduced mod p first.
func (f *LinearFamily) HashIndicator(i *big.Int, coords []int) *big.Int {
	if f.fp.k() == 1 {
		s := f.fp.powerSum1(i)
		for _, j := range coords {
			f.checkCoord(j)
			s.add(j + 1)
		}
		return s.result()
	}
	var buf [stackScratch]uint
	s := f.fp.powerSumK(i, buf[:])
	for _, j := range coords {
		f.checkCoord(j)
		s.add(j + 1)
	}
	return s.result()
}

func (f *LinearFamily) checkCoord(j int) {
	if j < 0 || j >= f.m {
		panic(fmt.Sprintf("hashing: coordinate %d out of range [0,%d)", j, f.m))
	}
}

// HashRowMatrix evaluates h_i on the row matrix [row, r] of Section 3.1.1 —
// the n×n boolean matrix that is r in the given row and zero elsewhere —
// flattened row-major into an n²-dimensional vector. The family dimension
// must be n². This is the per-node hash both Sym protocols compute locally:
// node v hashes [v, N(v)] and [ρ(v), ρ(N(v))]. The set columns are walked
// ascending, so only the lowest one pays a full exponentiation.
func (f *LinearFamily) HashRowMatrix(i *big.Int, n, row int, r *bitset.Set) *big.Int {
	if n*n != f.m {
		panic(fmt.Sprintf("hashing: matrix side %d for family dimension %d", n, f.m))
	}
	if row < 0 || row >= n {
		panic(fmt.Sprintf("hashing: row %d out of range [0,%d)", row, n))
	}
	if r.Len() != n {
		panic(fmt.Sprintf("hashing: row vector of length %d, want %d", r.Len(), n))
	}
	if f.fp.k() == 1 {
		s := f.fp.powerSum1(i)
		for c := r.NextSet(0); c >= 0; c = r.NextSet(c + 1) {
			s.add(row*n + c + 1)
		}
		return s.result()
	}
	var buf [stackScratch]uint
	s := f.fp.powerSumK(i, buf[:])
	for c := r.NextSet(0); c >= 0; c = r.NextSet(c + 1) {
		s.add(row*n + c + 1)
	}
	return s.result()
}

// HashDense evaluates h_i on an arbitrary vector x over Z_p given as int64
// coordinates (used by tests to exercise linearity with coefficients > 1).
// Coordinates are reduced mod p the Euclidean way, so negative ones count
// as their residues.
func (f *LinearFamily) HashDense(i *big.Int, x []int64) *big.Int {
	if len(x) != f.m {
		panic(fmt.Sprintf("hashing: vector of length %d, want %d", len(x), f.m))
	}
	// Horner from the top coordinate: acc = (acc + x_j)·i, which leaves
	// Σ x_j·i^{j+1}.
	k := f.fp.k()
	var buf [stackScratch]uint
	w := scratch(buf[:], scratchWords(k))
	im, acc, c, tmp, t := w[:k], w[k:2*k], w[2*k:3*k], w[3*k:4*k], w[4*k:]
	f.fp.enter(im, i, tmp, t)
	clear(acc)
	coef := new(big.Int)
	for j := len(x) - 1; j >= 0; j-- {
		f.fp.enter(c, coef.SetInt64(x[j]), tmp, t)
		f.fp.add(acc, acc, c)
		f.fp.mul(acc, acc, im, t)
	}
	return f.fp.leave(acc, tmp, t)
}

// AddMod returns (a + b) mod p for this family's modulus: the tree-sum
// operation used when hash values are aggregated up the spanning tree.
// Operands outside [0, p) are reduced mod p first.
func (f *LinearFamily) AddMod(a, b *big.Int) *big.Int {
	return f.AddModInto(new(big.Int).Set(a), b)
}

// AddModInto is AddMod for accumulation chains: it folds b into dst, which
// the caller must own exclusively (a fresh hash value, not a decoded message
// field someone else still reads). dst's storage is reused, so tree-sum
// loops allocate nothing once dst has room for a residue.
func (f *LinearFamily) AddModInto(dst, b *big.Int) *big.Int {
	if f.fp.k() == 1 {
		return dst.SetUint64(uint64(f.fp.add1(f.fp.load1(dst), f.fp.load1(b))))
	}
	var buf [stackLimbs]uint
	z := scratch(buf[:], f.fp.k())
	f.fp.addPlain(z, dst, b)
	w := dst.Bits()
	if cap(w) < len(z) {
		w = make([]big.Word, len(z))
	}
	w = w[:len(z)]
	for j, v := range z {
		w[j] = big.Word(v)
	}
	return dst.SetBits(w)
}
