package hashing

import (
	"math/big"
	"sync"
	"testing"

	"dip/internal/bitset"
	"dip/internal/prime"
)

// fuzzFamilies caches one family per (window, n, prime seed): finding a
// power-window prime costs far more than one fuzz execution.
var fuzzFamilies sync.Map

func fuzzFamily(t *testing.T, window byte, n int) *LinearFamily {
	key := [3]int{int(window & 1), n, int(window>>1) % 4}
	if f, ok := fuzzFamilies.Load(key); ok {
		return f.(*LinearFamily)
	}
	find := prime.ForCubicWindow
	if key[0] == 1 {
		find = prime.ForPowerWindow
	}
	p, err := find(n, int64(key[2]))
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewLinearFamily(n*n, p)
	if err != nil {
		t.Fatal(err)
	}
	fuzzFamilies.Store(key, f)
	return f
}

// FuzzLinearFamily compares the Montgomery kernel against the reference
// evaluator on fuzzer-drawn inputs. window picks the modulus (low bit:
// Protocol 1's cubic window or Protocol 2's power window; next bits: the
// prime's seed), n ∈ [2, 40] the matrix side, seed and neg the hash seed
// (any size or sign, so out-of-range seeds are reduced as big.Int.Exp
// reduces them), row and bits one row matrix, and bits read pairwise also
// gives an unsorted coordinate list with repeats for HashIndicator. A
// one-word modulus also runs the word entry points on the same inputs. The
// seed corpus is checked in under testdata/fuzz/FuzzLinearFamily.
func FuzzLinearFamily(f *testing.F) {
	f.Fuzz(func(t *testing.T, window, nb byte, seedBytes []byte, neg bool, rowb byte, bits []byte) {
		n := 2 + int(nb)%39
		fam := fuzzFamily(t, window, n)
		p := fam.P()
		i := new(big.Int).SetBytes(seedBytes)
		if neg {
			i.Neg(i)
		}
		row := int(rowb) % n
		r := bitset.New(n)
		for c := 0; c < n && c/8 < len(bits); c++ {
			if bits[c/8]>>(c%8)&1 == 1 {
				r.Add(c)
			}
		}
		got, want := fam.HashRowMatrix(i, n, row, r), refHashRowMatrix(p, i, n, row, r)
		if got.Cmp(want) != 0 {
			t.Fatalf("p=%v HashRowMatrix(%v, row %d, %v) = %v, reference %v", p, i, row, r, got, want)
		}
		var coords []int
		for k := 0; k+1 < len(bits); k += 2 {
			coords = append(coords, (int(bits[k])<<8|int(bits[k+1]))%(n*n))
		}
		if got, want := fam.HashIndicator(i, coords), refHashIndicator(p, i, coords); got.Cmp(want) != 0 {
			t.Fatalf("p=%v HashIndicator(%v, %v) = %v, reference %v", p, i, coords, got, want)
		}
		if sum, want := fam.AddMod(i, got), refAddMod(p, i, got); sum.Cmp(want) != 0 {
			t.Fatalf("p=%v AddMod(%v, %v) = %v, reference %v", p, i, got, sum, want)
		}
		if !fam.OneWord() {
			return
		}
		wi := wordSeed(p, i)
		if got, want := fam.HashRowMatrix64(wi, n, row, r), refHashRowMatrix(p, i, n, row, r); got != want.Uint64() {
			t.Fatalf("p=%v HashRowMatrix64(%d, row %d, %v) = %d, reference %v", p, wi, row, r, got, want)
		}
		h := fam.HashIndicator64(wi, coords)
		if want := refHashIndicator(p, i, coords); h != want.Uint64() {
			t.Fatalf("p=%v HashIndicator64(%d, %v) = %d, reference %v", p, wi, coords, h, want)
		}
		if sum, want := fam.AddMod64(wi, h), refAddMod(p, i, new(big.Int).SetUint64(h)); sum != want.Uint64() {
			t.Fatalf("p=%v AddMod64(%d, %d) = %d, reference %v", p, wi, h, sum, want)
		}
	})
}
