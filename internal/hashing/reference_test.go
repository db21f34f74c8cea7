package hashing

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"dip/internal/bitset"
	"dip/internal/prime"
	"dip/internal/wire"
)

// The reference evaluator: the family's definition computed term by term
// with big.Int.Exp, which reduces any seed mod p. The Montgomery kernel
// must agree with it on every input, bit for bit.

func refHashIndicator(p, i *big.Int, coords []int) *big.Int {
	sum := new(big.Int)
	e := new(big.Int)
	for _, j := range coords {
		e.SetInt64(int64(j + 1))
		sum.Add(sum, new(big.Int).Exp(i, e, p))
		sum.Mod(sum, p)
	}
	return sum
}

func refHashRowMatrix(p, i *big.Int, n, row int, r *bitset.Set) *big.Int {
	var coords []int
	for c := r.NextSet(0); c >= 0; c = r.NextSet(c + 1) {
		coords = append(coords, row*n+c)
	}
	return refHashIndicator(p, i, coords)
}

func refHashDense(p, i *big.Int, x []int64) *big.Int {
	sum := new(big.Int)
	e := new(big.Int)
	for j, xj := range x {
		e.SetInt64(int64(j + 1))
		term := new(big.Int).Exp(i, e, p)
		sum.Add(sum, term.Mul(term, big.NewInt(xj)))
		sum.Mod(sum, p)
	}
	return sum
}

func refAddMod(p, a, b *big.Int) *big.Int {
	s := new(big.Int).Add(a, b)
	return s.Mod(s, p)
}

// edgeSeeds returns the seeds every differential test covers: 0, 1, p−1,
// a random residue, and the out-of-range p+5, −1 and 2^w−1, the largest
// value a w = wire.WidthForBig(p)-bit field (a prover-chosen echo) holds.
func edgeSeeds(rng *rand.Rand, p *big.Int) []*big.Int {
	one := big.NewInt(1)
	w := wire.WidthForBig(p)
	return []*big.Int{
		new(big.Int),
		big.NewInt(1),
		new(big.Int).Sub(p, one),
		new(big.Int).Rand(rng, p),
		new(big.Int).Add(p, big.NewInt(5)),
		big.NewInt(-1),
		new(big.Int).Sub(new(big.Int).Lsh(one, uint(w)), one),
	}
}

// checkFamily compares every evaluation of f against the reference at
// matrix side n (f's dimension must be n²) under seed i.
func checkFamily(t *testing.T, f *LinearFamily, n int, i *big.Int, rng *rand.Rand) {
	t.Helper()
	p := f.P()
	full := bitset.New(n)
	for c := 0; c < n; c++ {
		full.Add(c)
	}
	random := bitset.New(n)
	for c := 0; c < n; c++ {
		if rng.Intn(2) == 1 {
			random.Add(c)
		}
	}
	single := bitset.New(n)
	single.Add(rng.Intn(n))
	rows := map[string]*bitset.Set{"empty": bitset.New(n), "full": full, "single": single, "random": random}
	for name, r := range rows {
		for _, row := range []int{0, rng.Intn(n), n - 1} {
			got, want := f.HashRowMatrix(i, n, row, r), refHashRowMatrix(p, i, n, row, r)
			if got.Cmp(want) != 0 {
				t.Fatalf("HashRowMatrix(i=%v, row %d, %s) = %v, reference %v", i, row, name, got, want)
			}
		}
	}
	// Unsorted coordinates with repeats, including the extreme ones.
	coords := []int{n*n - 1, 0, 3, 0, n*n - 1}
	for k := 0; k < 2*n; k++ {
		coords = append(coords, rng.Intn(n*n))
	}
	if got, want := f.HashIndicator(i, coords), refHashIndicator(p, i, coords); got.Cmp(want) != 0 {
		t.Fatalf("HashIndicator(i=%v, %v) = %v, reference %v", i, coords, got, want)
	}
	if got := f.HashIndicator(i, nil); got.Sign() != 0 {
		t.Fatalf("HashIndicator(i=%v, empty) = %v", i, got)
	}
	x := make([]int64, n*n)
	for j := range x {
		x[j] = rng.Int63() - rng.Int63()
	}
	if got, want := f.HashDense(i, x), refHashDense(p, i, x); got.Cmp(want) != 0 {
		t.Fatalf("HashDense(i=%v) = %v, reference %v", i, got, want)
	}
}

// TestKernelMatchesReference runs the differential check over both
// protocol moduli — Protocol 1's cubic window (one limb) and Protocol 2's
// power window (several) — at every listed n, under every edge seed.
func TestKernelMatchesReference(t *testing.T) {
	ns := []int{2, 3, 5, 8, 13, 34, 64, 90}
	if testing.Short() {
		ns = []int{2, 3, 5, 8, 13, 34}
	}
	rng := rand.New(rand.NewSource(42))
	for _, n := range ns {
		for _, window := range []string{"cubic", "power"} {
			t.Run(fmt.Sprintf("%s/n=%d", window, n), func(t *testing.T) {
				p, err := prime.ForCubicWindow(n, 7)
				if window == "power" {
					p, err = prime.ForPowerWindow(n, 7)
				}
				if err != nil {
					t.Fatal(err)
				}
				f, err := NewLinearFamily(n*n, p)
				if err != nil {
					t.Fatal(err)
				}
				if window == "cubic" && f.fp.k() != 1 {
					t.Fatalf("cubic-window modulus %v takes %d limbs, want 1", p, f.fp.k())
				}
				for _, i := range edgeSeeds(rng, p) {
					checkFamily(t, f, n, i, rng)
				}
			})
		}
	}
}

// TestAddModMatchesReference checks AddMod and AddModInto at every limb
// count up to past the stack scratch (so heap scratch runs too), on random
// odd moduli of that many limbs: Montgomery arithmetic needs p odd, not
// prime. Operands include out-of-range and negative values.
func TestAddModMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for k := 1; k <= stackLimbs+2; k++ {
		for trial := 0; trial < 4; trial++ {
			bitsLen := (k-1)*64 + 1 + rng.Intn(64)
			p := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bitsLen)))
			p.SetBit(p, bitsLen-1, 1)
			p.SetBit(p, 0, 1)
			if trial == 0 {
				// Just below 2^(64k): Montgomery products and sums then
				// carry out of the top word.
				p.Lsh(big.NewInt(1), uint(k*64))
				p.Sub(p, big.NewInt(2*rng.Int63n(1<<20)+1))
			}
			if p.Cmp(big.NewInt(3)) < 0 {
				p.SetInt64(3)
			}
			f, err := NewLinearFamily(4, p)
			if err != nil {
				t.Fatal(err)
			}
			if f.fp.k() != len(p.Bits()) {
				t.Fatalf("limbs %d for a %d-word modulus", f.fp.k(), len(p.Bits()))
			}
			vals := edgeSeeds(rng, p)
			vals = append(vals, new(big.Int).Neg(new(big.Int).Lsh(p, 3)), new(big.Int).Mul(p, p))
			for _, a := range vals {
				for _, b := range vals {
					want := refAddMod(p, a, b)
					if got := f.AddMod(a, b); got.Cmp(want) != 0 {
						t.Fatalf("k=%d p=%v AddMod(%v, %v) = %v, want %v", k, p, a, b, got, want)
					}
					dst := new(big.Int).Set(a)
					if got := f.AddModInto(dst, b); got != dst || got.Cmp(want) != 0 {
						t.Fatalf("k=%d p=%v AddModInto(%v, %v) = %v, want %v", k, p, a, b, got, want)
					}
				}
				// Aliased operands fold a value into itself.
				dst := new(big.Int).Set(a)
				if got, want := f.AddModInto(dst, dst), refAddMod(p, a, a); got.Cmp(want) != 0 {
					t.Fatalf("k=%d p=%v AddModInto(x, x) for %v = %v, want %v", k, p, a, got, want)
				}
			}
			// The hash evaluations on an odd, non-prime modulus of this
			// many limbs: a 3×3 matrix under each seed.
			g, err := NewLinearFamily(9, p)
			if err != nil {
				t.Fatal(err)
			}
			checkFamily(t, g, 3, vals[3], rng)
			checkFamily(t, g, 3, vals[6], rng)
		}
	}
}
