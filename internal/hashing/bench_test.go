package hashing

import (
	"math/big"
	"math/rand"
	"testing"

	"dip/internal/bitset"
	"dip/internal/graph"
	"dip/internal/prime"
	"dip/internal/wire"
)

// doubledGraph returns a randomly relabelled doubled graph on n vertices,
// the shape of the serving benchmark's mix (n even).
func doubledGraph(b *testing.B, n int, rng *rand.Rand) *graph.Graph {
	core, err := graph.RandomAsymmetricConnected((n-2)/2, rng)
	if err != nil {
		b.Fatal(err)
	}
	g, _ := graph.Doubled(core, 0).Shuffle(rng)
	return g
}

// BenchmarkHashRowMatrix times one per-node row hash — the closed
// neighbourhood row every Sym verifier hashes — under each protocol's
// modulus: Protocol 1's cubic window (one limb) and Protocol 2's power
// window (several limbs). Each op hashes every row of the graph once, and
// ns/op is reported per row.
func BenchmarkHashRowMatrix(b *testing.B) {
	cases := []struct {
		name   string
		n      int
		window func(int, int64) (*big.Int, error)
		graph  func(*testing.B, int, *rand.Rand) *graph.Graph
	}{
		{"cubic/cycle/n=64", 64, prime.ForCubicWindow, func(_ *testing.B, n int, _ *rand.Rand) *graph.Graph { return graph.Cycle(n) }},
		{"cubic/doubled/n=34", 34, prime.ForCubicWindow, doubledGraph},
		{"power/doubled/n=34", 34, prime.ForPowerWindow, doubledGraph},
		{"power/doubled/n=64", 64, prime.ForPowerWindow, doubledGraph},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			p, err := c.window(c.n, 1)
			if err != nil {
				b.Fatal(err)
			}
			f, err := NewLinearFamily(c.n*c.n, p)
			if err != nil {
				b.Fatal(err)
			}
			g := c.graph(b, c.n, rng)
			rows := make([]*bitset.Set, c.n)
			for v := range rows {
				rows[v] = g.ClosedRow(v)
			}
			seed := f.RandomSeed(rng)
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				v := k % c.n
				f.HashRowMatrix(seed, c.n, v, rows[v])
			}
		})
	}
}

// BenchmarkHashIndicator times one sym-rpls fingerprint at n = 34: the
// one-bit positions of an advice string (upper-triangle adjacency of a
// doubled graph, then an automorphism and a witness at identifier width)
// hashed under the cubic-window modulus.
func BenchmarkHashIndicator(b *testing.B) {
	const n = 34
	rng := rand.New(rand.NewSource(1))
	g := doubledGraph(b, n, rng)
	var w wire.Writer
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			w.WriteBool(g.HasEdge(u, v))
		}
	}
	idW := wire.WidthFor(n)
	for v := 0; v < n; v++ {
		w.WriteInt(rng.Intn(n), idW)
	}
	w.WriteInt(rng.Intn(n), idW)
	advice := w.Message()
	var coords []int
	for j := 0; j < advice.Bits; j++ {
		if advice.Data[j/8]&(1<<(uint(j)%8)) != 0 {
			coords = append(coords, j)
		}
	}
	p, err := prime.ForCubicWindow(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	f, err := NewLinearFamily(advice.Bits, p)
	if err != nil {
		b.Fatal(err)
	}
	seed := f.RandomSeed(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		f.HashIndicator(seed, coords)
	}
}
