package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"

	"dip/internal/graph"
	"dip/internal/hashing"
	"dip/internal/network"
	"dip/internal/perm"
	"dip/internal/prime"
	"dip/internal/spantree"
	"dip/internal/wire"
)

// GNIGeneral removes the asymmetry promise from the GNI protocol: it
// decides Graph Non-Isomorphism for arbitrary (connected) graph pairs.
//
// The paper (Section 4) restricts its presentation to asymmetric graphs
// because a symmetric G_b makes |{σ(G_b)}| = n!/|Aut(G_b)| < n!, which
// skews the Goldwasser–Sipser counting. The fix — from Goldwasser–Sipser's
// original paper — is to count *pairs*: let
//
//	S' = { (H, τ) : H = σ(G_b) for some σ ∈ S_n, b ∈ {0,1}, τ ∈ Aut(H) }.
//
// For each b there are exactly n! such pairs regardless of symmetry
// (n!/|Aut| graphs, |Aut| automorphisms each), so |S'| = 2·n! iff
// G₀ ≇ G₁ and n! otherwise — the clean counting is restored.
//
// The prover must now exhibit (b, σ, τ) with h(σ(G_b), τ) = y where τ is
// an automorphism of σ(G_b). Two new verification obligations arise, both
// discharged distributively:
//
//   - the hash domain widens to pairs: our ε-API hash runs over 2n²
//     coordinates, the second block holding τ's permutation indicator
//     (node v contributes the entry (σ(v), τ(σ(v))) — σ is a bijection,
//     so the entries cover τ exactly once);
//   - τ ∈ Aut(σ(G_b)) is verified by the Lemma 3.1 hash comparison of
//     Protocol 2, aggregated up the same spanning tree over a fresh
//     modulus q₃ ∈ [10·n^{2n+2}, ...]: large enough to union-bound over
//     all n^{2n} candidate pairs (σ, τ), since in the one-exchange
//     structure the prover sees the seed before committing. log q₃ =
//     O(n log n), so the budget is unchanged.
//
// Round structure: a single Arthur-Merlin exchange, as in GNIDAM.
type GNIGeneral struct {
	n      int
	k      int
	params *hashing.GSParams // dimension 2n²
	q3     *big.Int          // automorphism-check modulus
	thresh int
}

// NewGNIGeneral builds the promise-free protocol for graphs on n vertices
// with k parallel repetitions.
func NewGNIGeneral(n, k int, seed int64) (*GNIGeneral, error) {
	if n < 3 {
		return nil, fmt.Errorf("core: GNIGeneral needs n >= 3, got %d", n)
	}
	if n > 8 {
		return nil, fmt.Errorf("core: GNIGeneral prover enumerates Aut by brute force; n = %d > 8", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: GNIGeneral needs k >= 1, got %d", k)
	}
	params, err := hashing.NewGSParamsDim(n, 2, 2, seed)
	if err != nil {
		return nil, fmt.Errorf("core: GNIGeneral hash params: %w", err)
	}
	// q3 ∈ [10·n^{2n+2}, 100·n^{2n+2}].
	pow := new(big.Int).Exp(big.NewInt(int64(n)), big.NewInt(int64(2*n+2)), nil)
	lo := new(big.Int).Mul(big.NewInt(10), pow)
	hi := new(big.Int).Mul(big.NewInt(100), pow)
	q3, err := prime.InWindow(lo, hi, seed+13)
	if err != nil {
		return nil, fmt.Errorf("core: GNIGeneral q3: %w", err)
	}
	g := &GNIGeneral{n: n, k: k, params: params, q3: q3}
	yes, no := g.SingleShotBounds()
	g.thresh = int(math.Ceil(float64(k) * (yes + no) / 2))
	return g, nil
}

// N, K, Threshold mirror the other GNI variants.
func (g *GNIGeneral) N() int         { return g.n }
func (g *GNIGeneral) K() int         { return g.k }
func (g *GNIGeneral) Threshold() int { return g.thresh }

// SingleShotBounds mirrors GNIDAMAM.SingleShotBounds (Poisson estimates)
// with |S'| = 2·n!.
func (g *GNIGeneral) SingleShotBounds() (yesRate, noRate float64) {
	fact, _ := new(big.Float).SetInt(prime.Factorial(g.n)).Float64()
	p, _ := new(big.Float).SetInt(g.params.P()).Float64()
	muYes := 2 * fact / p
	yesRate = 1 - math.Exp(-muYes)
	noRate = 1 - math.Exp(-muYes/2)
	return yesRate, noRate
}

func (g *GNIGeneral) idWidth() int  { return wire.WidthFor(g.n) }
func (g *GNIGeneral) qWidth() int   { return wire.WidthForBig(g.params.Q()) }
func (g *GNIGeneral) q3Width() int  { return wire.WidthForBig(g.q3) }
func (g *GNIGeneral) echoBits() int { return g.n * g.params.SliceWidth() }

// q3RawBits is the raw randomness backing α3 (oversampled to kill modular
// bias, as in hashing.GSParams).
func (g *GNIGeneral) q3RawBits() int { return g.q3Width() + 64 }

// q3SliceWidth is each node's share of the α3 randomness.
func (g *GNIGeneral) q3SliceWidth() int { return (g.q3RawBits() + g.n - 1) / g.n }

// q3EchoBits is the padded width of the echoed α3 slice bundle.
func (g *GNIGeneral) q3EchoBits() int { return g.n * g.q3SliceWidth() }

// challengeWidth is the per-node Arthur message width: per repetition, a
// seed slice plus an α3 slice.
func (g *GNIGeneral) challengeWidth() int {
	return g.k * (g.params.SliceWidth() + g.q3SliceWidth())
}

// alpha3FromEcho reduces the echoed raw bits into Z_{q3}.
func (g *GNIGeneral) alpha3FromEcho(echo wire.Message) (*big.Int, error) {
	r := wire.NewReader(echo)
	raw, err := r.ReadBig(g.q3RawBits())
	if err != nil {
		return nil, err
	}
	return raw.Mod(raw, g.q3), nil
}

// h3Row computes Σ_c α3^{row·n+c+1} mod q3 — one row's contribution to the
// Lemma 3.1 automorphism comparison.
func (g *GNIGeneral) h3Row(alpha3 *big.Int, row int, cols []int) *big.Int {
	sum := new(big.Int)
	e := new(big.Int)
	for _, c := range cols {
		e.SetInt64(int64(row*g.n + c + 1))
		sum.Add(sum, new(big.Int).Exp(alpha3, e, g.q3))
	}
	return sum.Mod(sum, g.q3)
}

type gniGenRep struct {
	success    bool
	b          int
	seedEcho   wire.Message
	alpha3Echo wire.Message
	sigma, tau []int
}

type gniGenMessage struct {
	reps []gniGenRep
	tree spantree.Advice
	// per successful repetition, in claim order:
	c    []*big.Int // ε-API partial sums (Z_q)
	d, e []*big.Int // automorphism-check partial sums (Z_{q3})
}

func (g *GNIGeneral) encode(m gniGenMessage) wire.Message {
	var w wire.Writer
	for _, r := range m.reps {
		w.WriteBool(r.success)
		if !r.success {
			continue
		}
		w.WriteInt(r.b, 1)
		w.WriteBits(r.seedEcho.Data, r.seedEcho.Bits)
		w.WriteBits(r.alpha3Echo.Data, r.alpha3Echo.Bits)
		for _, img := range r.sigma {
			w.WriteInt(img, g.idWidth())
		}
		for _, img := range r.tau {
			w.WriteInt(img, g.idWidth())
		}
	}
	w.WriteInt(m.tree.Parent, g.idWidth())
	w.WriteInt(m.tree.Dist, g.idWidth())
	for i := range m.c {
		w.WriteBig(m.c[i], g.qWidth())
		w.WriteBig(m.d[i], g.q3Width())
		w.WriteBig(m.e[i], g.q3Width())
	}
	return w.Message()
}

func (g *GNIGeneral) decode(m wire.Message) (gniGenMessage, error) {
	r := wire.NewReader(m)
	out := gniGenMessage{reps: make([]gniGenRep, g.k)}
	successes := 0
	readPerm := func() ([]int, error) {
		p := make([]int, g.n)
		for v := range p {
			var err error
			if p[v], err = r.ReadInt(g.idWidth()); err != nil {
				return nil, err
			}
			if p[v] >= g.n {
				return nil, errors.New("core: image out of range")
			}
		}
		return p, nil
	}
	readEcho := func(bits int) (wire.Message, error) {
		raw, err := r.ReadBig(bits)
		if err != nil {
			return wire.Message{}, err
		}
		var w wire.Writer
		w.WriteBig(raw, bits)
		return w.Message(), nil
	}
	for i := range out.reps {
		ok, err := r.ReadBool()
		if err != nil {
			return out, err
		}
		out.reps[i].success = ok
		if !ok {
			continue
		}
		successes++
		if out.reps[i].b, err = r.ReadInt(1); err != nil {
			return out, err
		}
		if out.reps[i].seedEcho, err = readEcho(g.echoBits()); err != nil {
			return out, err
		}
		if out.reps[i].alpha3Echo, err = readEcho(g.q3EchoBits()); err != nil {
			return out, err
		}
		if out.reps[i].sigma, err = readPerm(); err != nil {
			return out, err
		}
		if out.reps[i].tau, err = readPerm(); err != nil {
			return out, err
		}
	}
	var err error
	if out.tree.Parent, err = r.ReadInt(g.idWidth()); err != nil {
		return out, err
	}
	if out.tree.Dist, err = r.ReadInt(g.idWidth()); err != nil {
		return out, err
	}
	if out.tree.Parent >= g.n {
		return out, errors.New("core: parent id out of range")
	}
	out.tree.Root = 0
	out.c = make([]*big.Int, successes)
	out.d = make([]*big.Int, successes)
	out.e = make([]*big.Int, successes)
	for i := 0; i < successes; i++ {
		if out.c[i], err = r.ReadBig(g.qWidth()); err != nil {
			return out, err
		}
		if out.d[i], err = r.ReadBig(g.q3Width()); err != nil {
			return out, err
		}
		if out.e[i], err = r.ReadBig(g.q3Width()); err != nil {
			return out, err
		}
		if out.c[i].Cmp(g.params.Q()) >= 0 || out.d[i].Cmp(g.q3) >= 0 || out.e[i].Cmp(g.q3) >= 0 {
			return out, errors.New("core: aggregate out of range")
		}
	}
	return out, r.Done()
}

func sameGNIGenBroadcast(a, b gniGenMessage) bool {
	if len(a.reps) != len(b.reps) {
		return false
	}
	for i := range a.reps {
		x, y := a.reps[i], b.reps[i]
		if x.success != y.success {
			return false
		}
		if !x.success {
			continue
		}
		if x.b != y.b || !msgEqual(x.seedEcho, y.seedEcho) || !msgEqual(x.alpha3Echo, y.alpha3Echo) {
			return false
		}
		for v := range x.sigma {
			if x.sigma[v] != y.sigma[v] || x.tau[v] != y.tau[v] {
				return false
			}
		}
	}
	return true
}

// Spec returns the protocol's round schedule and verifier.
func (g *GNIGeneral) Spec() *network.Spec {
	return &network.Spec{
		Name: "gni-general",
		Rounds: []network.Round{
			{Kind: network.Arthur, Challenge: func(_ int, rng *rand.Rand, _ *network.NodeView) wire.Message {
				var w wire.Writer
				for i := 0; i < g.challengeWidth(); i++ {
					w.WriteBool(rng.Intn(2) == 1)
				}
				return w.Message()
			}},
			{Kind: network.Merlin},
		},
		Decide: g.decide,
	}
}

// challengeSlices extracts (seedSlice, alpha3Slice) of repetition rI from a
// node's Arthur message.
func (g *GNIGeneral) challengeSlices(ch wire.Message, rI int) (seed, a3 wire.Message, err error) {
	per := g.params.SliceWidth() + g.q3SliceWidth()
	seed, err = subBits(ch, rI*per, g.params.SliceWidth())
	if err != nil {
		return
	}
	a3, err = subBits(ch, rI*per+g.params.SliceWidth(), g.q3SliceWidth())
	return
}

func (g *GNIGeneral) decide(v int, view *network.NodeView) bool {
	if view.NumVertices != g.n {
		return false
	}
	msg, err := g.decode(view.Responses[0])
	if err != nil {
		return false
	}
	neighborMsgs := make([]gniGenMessage, len(view.Neighbors))
	for j, u := range view.Neighbors {
		nm, err := g.decode(view.NeighborResponses[0][u])
		if err != nil {
			return false
		}
		if !sameGNIGenBroadcast(msg, nm) {
			return false
		}
		neighborMsgs[j] = nm
	}

	treeAdvice := make([]spantree.Advice, len(neighborMsgs))
	for j, nm := range neighborMsgs {
		treeAdvice[j] = nm.tree
	}
	if !spantree.VerifyLocal(v, msg.tree, view.Neighbors, treeAdvice) {
		return false
	}
	children := spantree.Children(v, treeAdvice)

	si := 0
	for rI, rep := range msg.reps {
		if !rep.success {
			continue
		}
		if !perm.IsValid(rep.sigma) || !perm.IsValid(rep.tau) {
			return false
		}
		// Verify both of our slice contributions inside the echoes.
		mySeed, myA3, err := g.challengeSlices(view.MyChallenges[0], rI)
		if err != nil {
			return false
		}
		echoSeed, err := subBits(rep.seedEcho, v*g.params.SliceWidth(), g.params.SliceWidth())
		if err != nil || !msgEqual(echoSeed, mySeed) {
			return false
		}
		echoA3, err := subBits(rep.alpha3Echo, v*g.q3SliceWidth(), g.q3SliceWidth())
		if err != nil || !msgEqual(echoA3, myA3) {
			return false
		}
		// Assemble the seeds from the echoes.
		slices := make([]wire.Message, g.n)
		for u := 0; u < g.n; u++ {
			if slices[u], err = subBits(rep.seedEcho, u*g.params.SliceWidth(), g.params.SliceWidth()); err != nil {
				return false
			}
		}
		seed, err := g.params.SeedFromSlices(slices)
		if err != nil {
			return false
		}
		alpha3, err := g.alpha3FromEcho(rep.alpha3Echo)
		if err != nil {
			return false
		}

		// Our row of σ(G_b) plus our τ-indicator entry.
		closed, err := closedNbhdFromView(view, rep.b, g.n)
		if err != nil {
			return false
		}
		cols := make([]int, len(closed))
		for j, u := range closed {
			cols[j] = rep.sigma[u]
		}
		sigmaV := rep.sigma[v]
		cExpect := g.params.RowTermSlow(seed.Alpha, sigmaV, cols)
		// τ block: row n + σ(v), single column τ(σ(v)).
		cExpect = g.params.AddModQ(cExpect,
			g.params.RowTermSlow(seed.Alpha, g.n+sigmaV, []int{rep.tau[sigmaV]}))
		for _, j := range children {
			cExpect = g.params.AddModQ(cExpect, neighborMsgs[j].c[si])
		}
		if cExpect.Cmp(msg.c[si]) != 0 {
			return false
		}

		// Automorphism comparison, Lemma 3.1 style: d aggregates
		// h3([σ(v), row]), e aggregates h3([τ(σ(v)), τ(row)]).
		dExpect := g.h3Row(alpha3, sigmaV, cols)
		tauCols := make([]int, len(cols))
		for j, c := range cols {
			tauCols[j] = rep.tau[c]
		}
		eExpect := g.h3Row(alpha3, rep.tau[sigmaV], tauCols)
		for _, j := range children {
			dExpect.Add(dExpect, neighborMsgs[j].d[si])
			eExpect.Add(eExpect, neighborMsgs[j].e[si])
		}
		dExpect.Mod(dExpect, g.q3)
		eExpect.Mod(eExpect, g.q3)
		if dExpect.Cmp(msg.d[si]) != 0 || eExpect.Cmp(msg.e[si]) != 0 {
			return false
		}

		if v == 0 {
			if msg.d[si].Cmp(msg.e[si]) != 0 {
				return false // τ is not an automorphism of σ(G_b)
			}
			if g.params.Finish(seed, msg.c[si]).Cmp(seed.Y) != 0 {
				return false
			}
		}
		si++
	}
	if v == 0 && si < g.thresh {
		return false
	}
	return true
}

// HonestProver returns the optimal prover. It enumerates the pair set S'
// exactly once per repetition: coset-minimal σ (so each image graph is
// visited once) times the conjugated automorphism group. A fresh prover
// must be used per run.
func (g *GNIGeneral) HonestProver() network.Prover {
	return &gniGenProver{proto: g}
}

type gniGenProver struct {
	proto *GNIGeneral
}

func (p *gniGenProver) Respond(round int, view *network.ProverView) (*network.Response, error) {
	if round != 0 {
		return nil, fmt.Errorf("core: GNIGeneral prover called for round %d", round)
	}
	g := p.proto
	n := g.n
	g0 := view.Graph
	if g0.N() != n {
		return nil, fmt.Errorf("core: graph has %d vertices, protocol built for %d", g0.N(), n)
	}
	if len(view.Inputs) != n {
		return nil, errors.New("core: GNIGeneral prover needs G1 inputs")
	}

	graphs := [2]*graph.Graph{g0, nil}
	g1 := graph.New(n)
	for v := 0; v < n; v++ {
		open, err := decodeGNIInput(view.Inputs[v], n)
		if err != nil {
			return nil, fmt.Errorf("core: GNIGeneral prover input %d: %w", v, err)
		}
		for _, u := range open {
			if u > v {
				g1.AddEdge(v, u)
			}
		}
	}
	graphs[1] = g1

	var closed [2][][]int
	var auts [2][]perm.Perm
	for b := 0; b < 2; b++ {
		for v := 0; v < n; v++ {
			c := append([]int(nil), graphs[b].Neighbors(v)...)
			c = append(c, v)
			sort.Ints(c)
			closed[b] = append(closed[b], c)
		}
		auts[b] = graph.AllAutomorphisms(graphs[b])
	}

	advice, err := spantree.Compute(g0, 0)
	if err != nil {
		return nil, fmt.Errorf("core: GNIGeneral prover tree: %w", err)
	}
	childLists := spantree.ChildLists(advice)
	order := spantree.PostOrder(advice)

	reps := make([]gniGenRep, g.k)
	type sums struct{ c, d, e []*big.Int }
	var all []sums
	for rI := 0; rI < g.k; rI++ {
		// Assemble both seeds from the nodes' slices.
		slices := make([]wire.Message, n)
		var seedEcho, a3Echo wire.Writer
		for v := 0; v < n; v++ {
			sd, a3, err := g.challengeSlices(view.Challenges[0][v], rI)
			if err != nil {
				return nil, err
			}
			slices[v] = sd
			seedEcho.WriteBits(sd.Data, sd.Bits)
			a3Echo.WriteBits(a3.Data, a3.Bits)
		}
		seed, err := g.params.SeedFromSlices(slices)
		if err != nil {
			return nil, err
		}
		rep := gniGenRep{seedEcho: seedEcho.Message(), alpha3Echo: a3Echo.Message()}

		b, sigma, tau, ok := p.search(closed, auts, seed)
		rep.success, rep.b, rep.sigma, rep.tau = ok, b, sigma, tau
		reps[rI] = rep
		if !ok {
			continue
		}

		alpha3, err := g.alpha3FromEcho(rep.alpha3Echo)
		if err != nil {
			return nil, err
		}
		table := g.params.Powers(seed.Alpha)
		s := sums{
			c: make([]*big.Int, n),
			d: make([]*big.Int, n),
			e: make([]*big.Int, n),
		}
		for _, v := range order {
			cls := closed[b][v]
			cols := make([]int, len(cls))
			for j, u := range cls {
				cols[j] = sigma[u]
			}
			sigmaV := sigma[v]
			c := g.params.RowTerm(table, sigmaV, cols)
			c = g.params.AddModQ(c, g.params.RowTerm(table, n+sigmaV, []int{tau[sigmaV]}))
			d := g.h3Row(alpha3, sigmaV, cols)
			tauCols := make([]int, len(cols))
			for j, x := range cols {
				tauCols[j] = tau[x]
			}
			e := g.h3Row(alpha3, tau[sigmaV], tauCols)
			for _, ch := range childLists[v] {
				c = g.params.AddModQ(c, s.c[ch])
				d.Add(d, s.d[ch])
				e.Add(e, s.e[ch])
			}
			d.Mod(d, g.q3)
			e.Mod(e, g.q3)
			s.c[v], s.d[v], s.e[v] = c, d, e
		}
		all = append(all, s)
	}

	resp := &network.Response{PerNode: make([]wire.Message, n)}
	for v := 0; v < n; v++ {
		msg := gniGenMessage{reps: reps, tree: advice[v]}
		for _, s := range all {
			msg.c = append(msg.c, s.c[v])
			msg.d = append(msg.d, s.d[v])
			msg.e = append(msg.e, s.e[v])
		}
		resp.PerNode[v] = g.encode(msg)
	}
	return resp, nil
}

// search enumerates S' for a preimage of the target: coset-minimal σ
// (each image graph once) × conjugated automorphisms.
func (p *gniGenProver) search(closed [2][][]int, auts [2][]perm.Perm, seed *hashing.GSSeed) (int, perm.Perm, perm.Perm, bool) {
	g := p.proto
	n := g.n
	table := g.params.Powers(seed.Alpha)
	for b := 0; b < 2; b++ {
		sigma := perm.Identity(n)
		for {
			if cosetMinimal(sigma, auts[b]) {
				// Matrix-block hash, shared by all τ for this σ.
				base := new(big.Int)
				for v := 0; v < n; v++ {
					cls := closed[b][v]
					cols := make([]int, len(cls))
					for j, u := range cls {
						cols[j] = sigma[u]
					}
					base = g.params.AddModQ(base, g.params.RowTerm(table, sigma[v], cols))
				}
				sigmaInv := sigma.Inverse()
				for _, a := range auts[b] {
					tau := sigma.Compose(a).Compose(sigmaInv)
					f := new(big.Int).Set(base)
					for w := 0; w < n; w++ {
						f = g.params.AddModQ(f, g.params.RowTerm(table, n+w, []int{tau[w]}))
					}
					if g.params.Finish(seed, f).Cmp(seed.Y) == 0 {
						return b, sigma.Clone(), tau, true
					}
				}
			}
			if !sigma.NextLex() {
				break
			}
		}
	}
	return 0, nil, nil, false
}

// cosetMinimal reports whether sigma is the lexicographically smallest
// member of its coset sigma∘Aut.
func cosetMinimal(sigma perm.Perm, aut []perm.Perm) bool {
	for _, a := range aut {
		if a.IsIdentity() {
			continue
		}
		cand := sigma.Compose(a)
		for i := range cand {
			if cand[i] < sigma[i] {
				return false
			}
			if cand[i] > sigma[i] {
				break
			}
		}
	}
	return true
}

// Run executes the protocol: g0 is the network graph, g1 the input graph.
func (g *GNIGeneral) Run(g0, g1 *graph.Graph, prover network.Prover, seed int64) (*network.Result, error) {
	if g0.N() != g.n || g1.N() != g.n {
		return nil, fmt.Errorf("core: GNI instance sizes (%d, %d), protocol built for %d",
			g0.N(), g1.N(), g.n)
	}
	return network.Run(g.Spec(), g0, EncodeGNIInputs(g1), prover, network.Options{Seed: seed})
}
