package hashing

import (
	"math/big"
	"testing"
)

// TestLemma32Exhaustive is the hashing part of the small-instance oracle
// for the paper's claims. For every dimension m ≤ 8 and several small odd
// primes p > m it hashes every 0/1 vector under every seed i ∈ Z_p,
// checking each value against plain integer arithmetic. Then, for every
// pair of distinct vectors x ≠ x', it asserts Theorem 3.2 exactly rather
// than by sampling: x and x' collide on at most m of the p seeds (so
// Pr_i[h_i(x) = h_i(x')] ≤ m/p), and h_i(x + x') = h_i(x) + h_i(x') on
// every seed. -short stops at m = 5.
func TestLemma32Exhaustive(t *testing.T) {
	primes := []int64{3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
	maxM := 8
	if testing.Short() {
		maxM = 5
	}
	for m := 1; m <= maxM; m++ {
		var ps []int64
		for _, p := range primes {
			if p > int64(m) && len(ps) < 4 {
				ps = append(ps, p)
			}
		}
		for _, p := range ps {
			f := mustFamily(t, m, p)
			vectors := 1 << m
			// h[x*p+i] = h_i(x) for the vector whose one-bits are x's.
			h := make([]int64, vectors*int(p))
			for x := 0; x < vectors; x++ {
				var coords []int
				for j := 0; j < m; j++ {
					if x>>j&1 == 1 {
						coords = append(coords, j)
					}
				}
				for i := int64(0); i < p; i++ {
					var want, pow int64 = 0, 1
					for j := 0; j < m; j++ {
						pow = pow * i % p
						if x>>j&1 == 1 {
							want = (want + pow) % p
						}
					}
					got := f.HashIndicator(big.NewInt(i), coords)
					if got.Int64() != want {
						t.Fatalf("m=%d p=%d: h_%d(%b) = %v, want %d", m, p, i, x, got, want)
					}
					h[x*int(p)+int(i)] = want
				}
			}
			worst := 0
			sum := make([]int64, m)
			for x := 0; x < vectors; x++ {
				for y := x + 1; y < vectors; y++ {
					collisions := 0
					for j := range sum {
						sum[j] = int64(x>>j&1 + y>>j&1)
					}
					for i := int64(0); i < p; i++ {
						hx, hy := h[x*int(p)+int(i)], h[y*int(p)+int(i)]
						if hx == hy {
							collisions++
						}
						seed := big.NewInt(i)
						lhs := f.HashDense(seed, sum)
						if rhs := f.AddMod(big.NewInt(hx), big.NewInt(hy)); lhs.Cmp(rhs) != 0 {
							t.Fatalf("m=%d p=%d i=%d: h(%b + %b) = %v, h(x) + h(x') = %v", m, p, i, x, y, lhs, rhs)
						}
					}
					worst = max(worst, collisions)
				}
			}
			if worst > m {
				t.Fatalf("m=%d p=%d: a pair collides on %d of %d seeds, Theorem 3.2 allows %d", m, p, worst, p, m)
			}
			t.Logf("m=%d p=%d: worst pair collides on %d/%d seeds (bound m/p = %d/%d)", m, p, worst, p, m, p)
		}
	}
}
