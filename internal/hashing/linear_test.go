package hashing

import (
	"math/big"
	"math/rand"
	"testing"

	"dip/internal/bitset"
	"dip/internal/prime"
)

func mustFamily(t *testing.T, m int, p int64) *LinearFamily {
	t.Helper()
	f, err := NewLinearFamily(m, big.NewInt(p))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewLinearFamilyValidation(t *testing.T) {
	if _, err := NewLinearFamily(0, big.NewInt(7)); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := NewLinearFamily(4, big.NewInt(1)); err == nil {
		t.Fatal("p=1 accepted")
	}
	// Montgomery arithmetic needs an odd modulus, so 2 (prime) and any
	// even number are refused.
	for _, p := range []int64{2, 10, 1 << 40} {
		if _, err := NewLinearFamily(4, big.NewInt(p)); err == nil {
			t.Fatalf("even p=%d accepted", p)
		}
	}
}

func TestHashIndicatorKnownValues(t *testing.T) {
	// p=101, i=2: coordinates {0,2} hash to 2^1 + 2^3 = 10.
	f := mustFamily(t, 4, 101)
	got := f.HashIndicator(big.NewInt(2), []int{0, 2})
	if got.Int64() != 10 {
		t.Fatalf("hash = %v, want 10", got)
	}
	// Empty set hashes to 0.
	if got := f.HashIndicator(big.NewInt(2), nil); got.Sign() != 0 {
		t.Fatalf("hash of empty = %v", got)
	}
	// Seed 0 hashes everything to 0.
	if got := f.HashIndicator(new(big.Int), []int{0, 1, 2, 3}); got.Sign() != 0 {
		t.Fatalf("hash with seed 0 = %v", got)
	}
}

func TestHashIndicatorRangePanics(t *testing.T) {
	f := mustFamily(t, 4, 101)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.HashIndicator(big.NewInt(2), []int{4})
}

func TestLinearity(t *testing.T) {
	// Theorem 3.2 (1): h(x + x') = h(x) + h(x') with sums mod p.
	rng := rand.New(rand.NewSource(1))
	p, err := prime.ForCubicWindow(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewLinearFamily(16, p)
	if err != nil {
		t.Fatal(err)
	}
	pv := p.Int64()
	for trial := 0; trial < 50; trial++ {
		seed := f.RandomSeed(rng)
		x := make([]int64, 16)
		y := make([]int64, 16)
		sum := make([]int64, 16)
		for j := range x {
			x[j] = rng.Int63n(pv)
			y[j] = rng.Int63n(pv)
			sum[j] = (x[j] + y[j]) % pv
		}
		lhs := f.HashDense(seed, sum)
		rhs := f.AddMod(f.HashDense(seed, x), f.HashDense(seed, y))
		if lhs.Cmp(rhs) != 0 {
			t.Fatalf("linearity violated: %v != %v", lhs, rhs)
		}
	}
}

func TestRowMatrixDecomposition(t *testing.T) {
	// Hashing a full matrix row-by-row and summing must equal hashing the
	// flattened indicator directly.
	rng := rand.New(rand.NewSource(2))
	n := 5
	p, err := prime.ForCubicWindow(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewLinearFamily(n*n, p)
	if err != nil {
		t.Fatal(err)
	}
	seed := f.RandomSeed(rng)

	rows := make([]*bitset.Set, n)
	var flat []int
	for v := 0; v < n; v++ {
		rows[v] = bitset.New(n)
		for c := 0; c < n; c++ {
			if rng.Intn(2) == 1 {
				rows[v].Add(c)
				flat = append(flat, v*n+c)
			}
		}
	}
	total := new(big.Int)
	for v := 0; v < n; v++ {
		total = f.AddMod(total, f.HashRowMatrix(seed, n, v, rows[v]))
	}
	direct := f.HashIndicator(seed, flat)
	if total.Cmp(direct) != 0 {
		t.Fatalf("row decomposition: %v != %v", total, direct)
	}
}

func TestHashRowMatrixPanics(t *testing.T) {
	f := mustFamily(t, 16, 101)
	cases := []func(){
		func() { f.HashRowMatrix(big.NewInt(1), 5, 0, bitset.New(5)) }, // wrong n
		func() { f.HashRowMatrix(big.NewInt(1), 4, 4, bitset.New(4)) }, // row range
		func() { f.HashRowMatrix(big.NewInt(1), 4, 0, bitset.New(3)) }, // row length
		func() { f.HashDense(big.NewInt(1), make([]int64, 3)) },        // dense length
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			c()
		}()
	}
}

func TestCollisionBound(t *testing.T) {
	// Theorem 3.2 (2): for x != x', Pr_i[h_i(x)=h_i(x')] <= m/p. With a
	// small prime we can enumerate ALL seeds and count collisions exactly.
	m := 9
	p := int64(97)
	f := mustFamily(t, m, p)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		x := []int{rng.Intn(m)}
		y := []int{rng.Intn(m)}
		for y[0] == x[0] {
			y[0] = rng.Intn(m)
		}
		collisions := 0
		for i := int64(0); i < p; i++ {
			if f.HashIndicator(big.NewInt(i), x).Cmp(f.HashIndicator(big.NewInt(i), y)) == 0 {
				collisions++
			}
		}
		if float64(collisions) > float64(m) {
			t.Fatalf("collisions = %d over p=%d seeds, bound m=%d", collisions, p, m)
		}
	}
}

func TestCollisionRateAtProtocolParameters(t *testing.T) {
	// With p in [10n³,100n³] and m = n², the bound m/p <= 1/(10n) is what
	// gives Protocol 1 soundness 1/3 with room to spare. Sample seeds.
	n := 6
	p, err := prime.ForCubicWindow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewLinearFamily(n*n, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	x := []int{0, 7, 13}
	y := []int{0, 7, 14}
	collisions := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		seed := f.RandomSeed(rng)
		if f.HashIndicator(seed, x).Cmp(f.HashIndicator(seed, y)) == 0 {
			collisions++
		}
	}
	// Bound: m/p = 36/2160+ < 0.017; allow generous sampling slack.
	if rate := float64(collisions) / trials; rate > 0.05 {
		t.Fatalf("collision rate %.4f exceeds bound", rate)
	}
}

func TestSeedHelpers(t *testing.T) {
	f := mustFamily(t, 4, 101)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		s := f.RandomSeed(rng)
		if !f.ValidSeed(s) {
			t.Fatalf("RandomSeed produced invalid %v", s)
		}
	}
	if f.ValidSeed(big.NewInt(101)) || f.ValidSeed(big.NewInt(-1)) {
		t.Fatal("ValidSeed accepted out-of-range")
	}
	if f.Size().Int64() != 101 || f.P().Int64() != 101 || f.M() != 4 {
		t.Fatal("accessors wrong")
	}
	// P returns a copy.
	f.P().SetInt64(7)
	if f.P().Int64() != 101 {
		t.Fatal("P aliases internal state")
	}
}
