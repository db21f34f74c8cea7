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

// GNIDAMAM is the distributed Goldwasser–Sipser protocol for Graph
// Non-Isomorphism (Section 4, Theorem 1.5): a dAMAM protocol with
// O(n log n) bits per node (for a constant number of repetitions).
//
// The instance is (G₀, G₁): G₀ is the network graph, and each node v
// receives N_{G₁}(v) as its input (Definition 4). Following the paper, the
// protocol is stated for the promise version where both graphs are
// asymmetric (the unrestricted problem composes with the Symmetry protocol
// of Section 3.2). Let S = { σ(G_b) : σ ∈ S_n, b ∈ {0,1} }: |S| = 2·n! when
// G₀ ≇ G₁ and |S| = n! when G₀ ≅ G₁. The verifiers estimate |S| by counting
// how often the prover can exhibit a member of S hashing to a random target.
//
// Round structure, with k independent repetitions run in parallel:
//
//	Arthur  — node v sends, per repetition, its slice of the ε-API hash
//	          seed (the seed is Θ(n log n) bits total and is assembled from
//	          per-node slices — the "distributed seed" the paper requires).
//	Merlin  — broadcast: per repetition, a success claim; for successful
//	          repetitions the bit b and the full seed-slice echo (each node
//	          re-verifies its own slice, so the prover cannot bias the
//	          seed). Unicast: spanning-tree advice, and per successful
//	          repetition the images σ(u) of v's closed G_b-neighborhood.
//	Arthur  — node v sends a random z_v ∈ Z_{p₂}; the root's z is binding.
//	Merlin  — broadcast: echo of z. Unicast, per successful repetition:
//	          subtree aggregates (c, s₁, s₂, s₃) described below.
//
// The second Arthur round is what makes the protocol AMAM rather than AM:
// the prover's M₁ unicasts commit each node to *claimed* images of σ, and
// only a challenge issued after that commitment can certify globally that
// the claims are mutually consistent and that σ is a permutation. With
// z ∈ Z_{p₂} random and all local checks passing, the root's aggregates
// satisfy (Schwartz–Zippel, degree ≤ n²+n polynomials in z):
//
//	c  = f_α(claimed matrix)                    — the ε-API hash input
//	s₁ = Σ_v Σ_{u∈N_b[v]} z^{u·n+σᵛ(u)+1}       — per-row image claims
//	s₂ = Σ_u (deg_b(u)+1)·z^{u·n+σ(u)+1}        — diagonal claims, weighted
//	s₃ = Σ_v z^{σ(v)+1}                         — image multiset
//
// s₁ = s₂ forces every row claim to agree with the owner's diagonal claim;
// s₃ = Σ_w z^{w+1} forces σ to be a permutation. Together they force the
// hashed object to be exactly σ(G_b) ∈ S, so the Goldwasser–Sipser counting
// argument applies.
type GNIDAMAM struct {
	n      int
	k      int
	params *hashing.GSParams
	p2     *big.Int // consistency-check prime, ≈ 1000·k·n³
	thresh int      // accept iff ≥ thresh verified successes
}

// NewGNIDAMAM builds the protocol for graphs on n vertices with k parallel
// repetitions. The acceptance threshold is placed midway between the
// worst-case yes and no single-repetition probabilities.
func NewGNIDAMAM(n, k int, seed int64) (*GNIDAMAM, error) {
	if n < 3 {
		return nil, fmt.Errorf("core: GNI needs n >= 3, got %d", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: GNI needs k >= 1, got %d", k)
	}
	params, err := hashing.NewGSParams(n, 2, seed)
	if err != nil {
		return nil, fmt.Errorf("core: GNI hash params: %w", err)
	}
	lo := big.NewInt(int64(1000 * k))
	lo.Mul(lo, big.NewInt(int64(n*n*n)))
	hi := new(big.Int).Mul(lo, big.NewInt(2))
	p2, err := prime.InWindow(lo, hi, seed+7)
	if err != nil {
		return nil, fmt.Errorf("core: GNI consistency prime: %w", err)
	}
	g := &GNIDAMAM{n: n, k: k, params: params, p2: p2}
	yes, no := g.SingleShotBounds()
	g.thresh = int(math.Ceil(float64(k) * (yes + no) / 2))
	return g, nil
}

// N returns the number of vertices; K the repetition count.
func (g *GNIDAMAM) N() int { return g.n }

// K returns the number of parallel repetitions.
func (g *GNIDAMAM) K() int { return g.k }

// Threshold returns the number of verified successes the root requires.
func (g *GNIDAMAM) Threshold() int { return g.thresh }

// SingleShotBounds returns Poisson estimates of the probability that a
// single repetition succeeds on a yes- and a no-instance: with |S| targets
// distributed nearly pairwise-independently over a range of size p, the
// number of preimages of y is approximately Poisson(μ), μ = |S|/p, so
// Pr[∃ preimage] ≈ 1 - e^{-μ}. The acceptance threshold sits midway
// between the two estimates; the hash's ε = O(1/n²) distortion is far
// smaller than the gap. (The paper's inclusion-exclusion bounds
// μ - μ²/2 ≤ Pr ≤ μ bracket these estimates.)
func (g *GNIDAMAM) SingleShotBounds() (yesRate, noRate float64) {
	fact, _ := new(big.Float).SetInt(prime.Factorial(g.n)).Float64()
	p, _ := new(big.Float).SetInt(g.params.P()).Float64()
	muYes := 2 * fact / p
	yesRate = 1 - math.Exp(-muYes)
	noRate = 1 - math.Exp(-muYes/2)
	return yesRate, noRate
}

func (g *GNIDAMAM) idWidth() int  { return wire.WidthFor(g.n) }
func (g *GNIDAMAM) qWidth() int   { return wire.WidthForBig(g.params.Q()) }
func (g *GNIDAMAM) p2Width() int  { return wire.WidthForBig(g.p2) }
func (g *GNIDAMAM) echoBits() int { return g.n * g.params.SliceWidth() }

// EncodeGNIInputs encodes G₁ into per-node inputs: node v receives its open
// G₁-neighborhood as an n-bit row.
func EncodeGNIInputs(g1 *graph.Graph) []wire.Message {
	n := g1.N()
	out := make([]wire.Message, n)
	for v := 0; v < n; v++ {
		var w wire.Writer
		for u := 0; u < n; u++ {
			w.WriteBool(g1.HasEdge(v, u))
		}
		out[v] = w.Message()
	}
	return out
}

// decodeGNIInput parses a node input back into the open-neighborhood list.
func decodeGNIInput(m wire.Message, n int) ([]int, error) {
	r := wire.NewReader(m)
	var out []int
	for u := 0; u < n; u++ {
		b, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		if b {
			out = append(out, u)
		}
	}
	return out, r.Done()
}

// subBits extracts m's bits [from, from+width).
func subBits(m wire.Message, from, width int) (wire.Message, error) {
	if from < 0 || width < 0 || from+width > m.Bits {
		return wire.Message{}, fmt.Errorf("core: bit range [%d,%d) outside message of %d bits",
			from, from+width, m.Bits)
	}
	var w wire.Writer
	for i := from; i < from+width; i++ {
		w.WriteBool(m.Data[i/8]&(1<<(uint(i)%8)) != 0)
	}
	return w.Message(), nil
}

// slicesFromEcho splits an n·SliceWidth-bit echo into per-node slices.
func (g *GNIDAMAM) slicesFromEcho(echo wire.Message) ([]wire.Message, error) {
	sw := g.params.SliceWidth()
	out := make([]wire.Message, g.n)
	for v := 0; v < g.n; v++ {
		s, err := subBits(echo, v*sw, sw)
		if err != nil {
			return nil, err
		}
		out[v] = s
	}
	return out, nil
}

// gniRepClaim is the per-repetition broadcast section of M₁.
type gniRepClaim struct {
	success  bool
	b        int
	seedEcho wire.Message // n·SliceWidth bits; only set when success
}

// gniFirst is node v's decoded M₁ message.
type gniFirst struct {
	reps   []gniRepClaim
	tree   spantree.Advice
	images [][]int // per successful repetition (dense, in claim order)
}

// encodeFirst encodes M₁ for one node; images is indexed by repetition and
// nil for failed repetitions.
func (g *GNIDAMAM) encodeFirst(reps []gniRepClaim, tree spantree.Advice, images [][]int) wire.Message {
	var w wire.Writer
	for _, c := range reps {
		w.WriteBool(c.success)
		if c.success {
			w.WriteInt(c.b, 1)
			w.WriteBits(c.seedEcho.Data, c.seedEcho.Bits)
		}
	}
	w.WriteInt(tree.Parent, g.idWidth())
	w.WriteInt(tree.Dist, g.idWidth())
	for r, c := range reps {
		if !c.success {
			continue
		}
		for _, img := range images[r] {
			w.WriteInt(img, g.idWidth())
		}
	}
	return w.Message()
}

// decodeFirstPrefix parses the broadcast section and the tree advice — the
// part of a *neighbor's* M₁ that a node needs. imageCounts, when non-nil,
// additionally parses the per-repetition image lists, each of the given
// length (counting only successful repetitions, in order).
func (g *GNIDAMAM) decodeFirst(m wire.Message, imageCounts []int) (gniFirst, error) {
	r := wire.NewReader(m)
	out := gniFirst{reps: make([]gniRepClaim, g.k)}
	for i := range out.reps {
		ok, err := r.ReadBool()
		if err != nil {
			return out, err
		}
		out.reps[i].success = ok
		if !ok {
			continue
		}
		if out.reps[i].b, err = r.ReadInt(1); err != nil {
			return out, err
		}
		echo, err := r.ReadBig(g.echoBits())
		if err != nil {
			return out, err
		}
		var w wire.Writer
		w.WriteBig(echo, g.echoBits())
		out.reps[i].seedEcho = w.Message()
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
	if imageCounts == nil {
		return out, nil // neighbor view: images not needed
	}
	out.images = make([][]int, g.k)
	ci := 0
	for i := range out.reps {
		if !out.reps[i].success {
			continue
		}
		count := imageCounts[ci]
		ci++
		imgs := make([]int, count)
		for j := range imgs {
			if imgs[j], err = r.ReadInt(g.idWidth()); err != nil {
				return out, err
			}
			if imgs[j] >= g.n {
				return out, errors.New("core: image out of range")
			}
		}
		out.images[i] = imgs
	}
	return out, r.Done()
}

// sameClaims reports whether two M₁ broadcast sections agree.
func sameClaims(a, b []gniRepClaim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].success != b[i].success {
			return false
		}
		if a[i].success && (a[i].b != b[i].b || !msgEqual(a[i].seedEcho, b[i].seedEcho)) {
			return false
		}
	}
	return true
}

// gniSums are one node's subtree aggregates for one repetition.
type gniSums struct {
	c          *big.Int // partial f_α sum, in Z_q
	s1, s2, s3 *big.Int // consistency aggregates, in Z_{p₂}
}

// gniSecond is node v's decoded M₂ message.
type gniSecond struct {
	zEcho *big.Int
	sums  []gniSums // one per successful repetition, in claim order
}

func (g *GNIDAMAM) encodeSecond(m gniSecond) wire.Message {
	var w wire.Writer
	w.WriteBig(m.zEcho, g.p2Width())
	for _, s := range m.sums {
		w.WriteBig(s.c, g.qWidth())
		w.WriteBig(s.s1, g.p2Width())
		w.WriteBig(s.s2, g.p2Width())
		w.WriteBig(s.s3, g.p2Width())
	}
	return w.Message()
}

func (g *GNIDAMAM) decodeSecond(m wire.Message, successes int) (gniSecond, error) {
	r := wire.NewReader(m)
	var out gniSecond
	var err error
	if out.zEcho, err = r.ReadBig(g.p2Width()); err != nil {
		return out, err
	}
	if out.zEcho.Cmp(g.p2) >= 0 {
		return out, errors.New("core: z echo out of range")
	}
	out.sums = make([]gniSums, successes)
	for i := range out.sums {
		s := &out.sums[i]
		if s.c, err = r.ReadBig(g.qWidth()); err != nil {
			return out, err
		}
		if s.s1, err = r.ReadBig(g.p2Width()); err != nil {
			return out, err
		}
		if s.s2, err = r.ReadBig(g.p2Width()); err != nil {
			return out, err
		}
		if s.s3, err = r.ReadBig(g.p2Width()); err != nil {
			return out, err
		}
		if s.c.Cmp(g.params.Q()) >= 0 || s.s1.Cmp(g.p2) >= 0 ||
			s.s2.Cmp(g.p2) >= 0 || s.s3.Cmp(g.p2) >= 0 {
			return out, errors.New("core: aggregate out of range")
		}
	}
	return out, r.Done()
}

// Spec returns the protocol's round schedule and verifier.
func (g *GNIDAMAM) Spec() *network.Spec {
	return &network.Spec{
		Name: "gni-damam",
		Rounds: []network.Round{
			{Kind: network.Arthur, Challenge: func(_ int, rng *rand.Rand, _ *network.NodeView) wire.Message {
				var w wire.Writer
				for i := 0; i < g.k*g.params.SliceWidth(); i++ {
					w.WriteBool(rng.Intn(2) == 1)
				}
				return w.Message()
			}},
			{Kind: network.Merlin},
			{Kind: network.Arthur, Challenge: func(_ int, rng *rand.Rand, _ *network.NodeView) wire.Message {
				return bigChallenge(rng, g.p2)
			}},
			{Kind: network.Merlin},
		},
		Decide: g.decide,
	}
}

// closedNbhd returns v's sorted closed G_b-neighborhood as seen by the
// verifier: the network neighbors for b = 0, the decoded input for b = 1.
func closedNbhdFromView(view *network.NodeView, b, n int) ([]int, error) {
	var open []int
	if b == 0 {
		open = view.Neighbors
	} else {
		decoded, err := decodeGNIInput(view.Input, n)
		if err != nil {
			return nil, err
		}
		open = decoded
	}
	closed := make([]int, 0, len(open)+1)
	closed = append(closed, open...)
	closed = append(closed, view.V)
	sort.Ints(closed)
	return closed, nil
}

func expMod(base *big.Int, e int, mod *big.Int) *big.Int {
	return new(big.Int).Exp(base, big.NewInt(int64(e)), mod)
}

// decide is the verification procedure, run at node v.
func (g *GNIDAMAM) decide(v int, view *network.NodeView) bool {
	if view.NumVertices != g.n {
		return false
	}
	// Node v's own closed neighborhoods determine its image-list lengths.
	closedB := make([][]int, 2)
	for b := 0; b < 2; b++ {
		c, err := closedNbhdFromView(view, b, g.n)
		if err != nil {
			return false
		}
		closedB[b] = c
	}

	// First pass on our own M₁: claims determine image counts.
	prefix, err := g.decodeFirst(view.Responses[0], nil)
	if err == nil {
		var counts []int
		for _, c := range prefix.reps {
			if c.success {
				counts = append(counts, len(closedB[c.b]))
			}
		}
		prefix, err = g.decodeFirst(view.Responses[0], counts)
	}
	if err != nil {
		return false
	}
	first := prefix

	// Neighbors' M₁: broadcast sections must match ours.
	neighborFirst := make([]gniFirst, len(view.Neighbors))
	for j, u := range view.Neighbors {
		nf, err := g.decodeFirst(view.NeighborResponses[0][u], nil)
		if err != nil {
			return false
		}
		if !sameClaims(first.reps, nf.reps) {
			return false
		}
		neighborFirst[j] = nf
	}

	// Verify our own seed slices inside each successful repetition's echo.
	sw := g.params.SliceWidth()
	repIdx := 0
	type repData struct {
		rep   int
		b     int
		seed  *hashing.GSSeed
		image []int
	}
	var reps []repData
	for rI, c := range first.reps {
		if !c.success {
			continue
		}
		mySlice, err := subBits(c.seedEcho, v*sw, sw)
		if err != nil {
			return false
		}
		sent, err := subBits(view.MyChallenges[0], rI*sw, sw)
		if err != nil {
			return false
		}
		if !msgEqual(mySlice, sent) {
			return false // the prover tampered with our seed contribution
		}
		slices, err := g.slicesFromEcho(c.seedEcho)
		if err != nil {
			return false
		}
		seed, err := g.params.SeedFromSlices(slices)
		if err != nil {
			return false
		}
		reps = append(reps, repData{rep: rI, b: c.b, seed: seed, image: first.images[rI]})
		repIdx++
	}
	successes := repIdx

	// Spanning-tree checks (root is node 0 by convention).
	treeAdvice := make([]spantree.Advice, len(neighborFirst))
	for j, nf := range neighborFirst {
		treeAdvice[j] = nf.tree
	}
	if !spantree.VerifyLocal(v, first.tree, view.Neighbors, treeAdvice) {
		return false
	}
	children := spantree.Children(v, treeAdvice)

	// M₂ of ourselves and our neighbors.
	second, err := g.decodeSecond(view.Responses[1], successes)
	if err != nil {
		return false
	}
	neighborSecond := make([]gniSecond, len(view.Neighbors))
	for j, u := range view.Neighbors {
		ns, err := g.decodeSecond(view.NeighborResponses[1][u], successes)
		if err != nil {
			return false
		}
		if ns.zEcho.Cmp(second.zEcho) != 0 {
			return false
		}
		neighborSecond[j] = ns
	}
	z := second.zEcho
	if v == 0 {
		zv, err := decodeBigChallenge(view.MyChallenges[1], g.p2)
		if err != nil || zv.Cmp(z) != 0 {
			return false
		}
	}

	// Per-repetition aggregate checks.
	for si, rd := range reps {
		closed := closedB[rd.b]
		images := rd.image
		if len(images) != len(closed) {
			return false
		}
		// Row claims must form a set (σ injective on the neighborhood).
		seen := map[int]bool{}
		var sigmaV int
		for j, u := range closed {
			if seen[images[j]] {
				return false
			}
			seen[images[j]] = true
			if u == v {
				sigmaV = images[j]
			}
		}

		// c: partial hash sum.
		cExpect := g.params.RowTermSlow(rd.seed.Alpha, sigmaV, images)
		for _, j := range children {
			cExpect = g.params.AddModQ(cExpect, neighborSecond[j].sums[si].c)
		}
		if cExpect.Cmp(second.sums[si].c) != 0 {
			return false
		}

		// s1: per-row image claims, s2: weighted diagonal claim,
		// s3: image multiset — all in Z_{p₂}.
		s1 := new(big.Int)
		for j, u := range closed {
			s1.Add(s1, expMod(z, u*g.n+images[j]+1, g.p2))
		}
		s1.Mod(s1, g.p2)
		s2 := expMod(z, v*g.n+sigmaV+1, g.p2)
		s2.Mul(s2, big.NewInt(int64(len(closed))))
		s2.Mod(s2, g.p2)
		s3 := expMod(z, sigmaV+1, g.p2)
		for _, j := range children {
			ns := neighborSecond[j].sums[si]
			s1.Add(s1, ns.s1)
			s2.Add(s2, ns.s2)
			s3.Add(s3, ns.s3)
		}
		s1.Mod(s1, g.p2)
		s2.Mod(s2, g.p2)
		s3.Mod(s3, g.p2)
		if s1.Cmp(second.sums[si].s1) != 0 ||
			s2.Cmp(second.sums[si].s2) != 0 ||
			s3.Cmp(second.sums[si].s3) != 0 {
			return false
		}

		// Root-only: the aggregates must close the argument.
		if v == 0 {
			if second.sums[si].s1.Cmp(second.sums[si].s2) != 0 {
				return false
			}
			multiset := new(big.Int)
			for w := 0; w < g.n; w++ {
				multiset.Add(multiset, expMod(z, w+1, g.p2))
			}
			multiset.Mod(multiset, g.p2)
			if second.sums[si].s3.Cmp(multiset) != 0 {
				return false
			}
			if g.params.Finish(rd.seed, second.sums[si].c).Cmp(rd.seed.Y) != 0 {
				return false // claimed success did not hash to the target
			}
		}
	}

	// Root: enough verified successes?
	if v == 0 && successes < g.thresh {
		return false
	}
	return true
}

// Run executes the protocol: g0 is the network graph, g1 the input graph.
func (g *GNIDAMAM) Run(g0, g1 *graph.Graph, prover network.Prover, seed int64) (*network.Result, error) {
	if g0.N() != g.n || g1.N() != g.n {
		return nil, fmt.Errorf("core: GNI instance sizes (%d, %d), protocol built for %d",
			g0.N(), g1.N(), g.n)
	}
	return network.Run(g.Spec(), g0, EncodeGNIInputs(g1), prover, network.Options{Seed: seed})
}

// HonestProver returns the optimal prover: per repetition it assembles the
// seed from the nodes' slices and searches all (σ, b) in Lehmer order for a
// hash preimage. The same search is the *optimal cheating strategy* on
// no-instances, so soundness experiments reuse it. A fresh prover must be
// used per run.
func (g *GNIDAMAM) HonestProver() network.Prover {
	return &gniProver{proto: g}
}

type gniRepState struct {
	success bool
	b       int
	sigma   perm.Perm
	seed    *hashing.GSSeed
	echo    wire.Message
}

type gniProver struct {
	proto  *GNIDAMAM
	reps   []gniRepState
	advice []spantree.Advice
	closed [2][][]int // per b, per node: sorted closed neighborhood
}

func (p *gniProver) Respond(round int, view *network.ProverView) (*network.Response, error) {
	switch round {
	case 0:
		return p.first(view)
	case 1:
		return p.second(view)
	default:
		return nil, fmt.Errorf("core: GNI prover called for round %d", round)
	}
}

func (p *gniProver) first(view *network.ProverView) (*network.Response, error) {
	g := p.proto
	n := g.n
	g0 := view.Graph
	if g0.N() != n {
		return nil, fmt.Errorf("core: graph has %d vertices, protocol built for %d", g0.N(), n)
	}
	if len(view.Inputs) != n {
		return nil, errors.New("core: GNI prover needs G1 inputs")
	}

	// Reconstruct both closed-neighborhood tables.
	for v := 0; v < n; v++ {
		closed0 := append([]int(nil), g0.Neighbors(v)...)
		closed0 = append(closed0, v)
		sort.Ints(closed0)
		p.closed[0] = append(p.closed[0], closed0)

		open1, err := decodeGNIInput(view.Inputs[v], n)
		if err != nil {
			return nil, fmt.Errorf("core: GNI prover input %d: %w", v, err)
		}
		closed1 := append(open1, v)
		sort.Ints(closed1)
		p.closed[1] = append(p.closed[1], closed1)
	}

	// Assemble the per-repetition seeds from the nodes' slices and search
	// for preimages.
	sw := g.params.SliceWidth()
	p.reps = make([]gniRepState, g.k)
	for r := 0; r < g.k; r++ {
		slices := make([]wire.Message, n)
		var echo wire.Writer
		for v := 0; v < n; v++ {
			s, err := subBits(view.Challenges[0][v], r*sw, sw)
			if err != nil {
				return nil, fmt.Errorf("core: GNI prover slice (%d,%d): %w", r, v, err)
			}
			slices[v] = s
			echo.WriteBits(s.Data, s.Bits)
		}
		seed, err := g.params.SeedFromSlices(slices)
		if err != nil {
			return nil, fmt.Errorf("core: GNI prover seed %d: %w", r, err)
		}
		st := gniRepState{seed: seed, echo: echo.Message()}
		if b, sigma, ok := p.searchPreimage(seed); ok {
			st.success, st.b, st.sigma = true, b, sigma
		}
		p.reps[r] = st
	}

	advice, err := spantree.Compute(g0, 0)
	if err != nil {
		return nil, fmt.Errorf("core: GNI prover tree: %w", err)
	}
	p.advice = advice

	// Build the per-node M₁ messages.
	resp := &network.Response{PerNode: make([]wire.Message, n)}
	for v := 0; v < n; v++ {
		claims := make([]gniRepClaim, g.k)
		images := make([][]int, g.k)
		for r, st := range p.reps {
			claims[r] = gniRepClaim{success: st.success, b: st.b, seedEcho: st.echo}
			if st.success {
				closed := p.closed[st.b][v]
				imgs := make([]int, len(closed))
				for j, u := range closed {
					imgs[j] = st.sigma[u]
				}
				images[r] = imgs
			}
		}
		resp.PerNode[v] = g.encodeFirst(claims, advice[v], images)
	}
	return resp, nil
}

// searchPreimage enumerates (b, σ) for a member of S hashing to the target.
func (p *gniProver) searchPreimage(seed *hashing.GSSeed) (int, perm.Perm, bool) {
	g := p.proto
	table := g.params.Powers(seed.Alpha)
	for b := 0; b < 2; b++ {
		sigma := perm.Identity(g.n)
		for {
			f := new(big.Int)
			for v := 0; v < g.n; v++ {
				closed := p.closed[b][v]
				cols := make([]int, len(closed))
				for j, u := range closed {
					cols[j] = sigma[u]
				}
				f = g.params.AddModQ(f, g.params.RowTerm(table, sigma[v], cols))
			}
			if g.params.Finish(seed, f).Cmp(seed.Y) == 0 {
				return b, sigma.Clone(), true
			}
			if !sigma.NextLex() {
				break
			}
		}
	}
	return 0, nil, false
}

func (p *gniProver) second(view *network.ProverView) (*network.Response, error) {
	g := p.proto
	n := g.n
	z, err := decodeBigChallenge(view.Challenges[1][0], g.p2)
	if err != nil {
		return nil, fmt.Errorf("core: GNI prover z: %w", err)
	}

	children := spantree.ChildLists(p.advice)
	order := spantree.PostOrder(p.advice)

	// Per successful repetition, compute all four aggregates bottom-up.
	type perNode struct{ c, s1, s2, s3 *big.Int }
	var allSums [][]perNode // [successIdx][node]
	for _, st := range p.reps {
		if !st.success {
			continue
		}
		sums := make([]perNode, n)
		table := g.params.Powers(st.seed.Alpha)
		for _, v := range order {
			closed := p.closed[st.b][v]
			cols := make([]int, len(closed))
			s1 := new(big.Int)
			for j, u := range closed {
				cols[j] = st.sigma[u]
				s1.Add(s1, expMod(z, u*n+st.sigma[u]+1, g.p2))
			}
			c := g.params.RowTerm(table, st.sigma[v], cols)
			s2 := expMod(z, v*n+st.sigma[v]+1, g.p2)
			s2.Mul(s2, big.NewInt(int64(len(closed))))
			s3 := expMod(z, st.sigma[v]+1, g.p2)
			for _, ch := range children[v] {
				c = g.params.AddModQ(c, sums[ch].c)
				s1.Add(s1, sums[ch].s1)
				s2.Add(s2, sums[ch].s2)
				s3.Add(s3, sums[ch].s3)
			}
			s1.Mod(s1, g.p2)
			s2.Mod(s2, g.p2)
			s3.Mod(s3, g.p2)
			sums[v] = perNode{c: c, s1: s1, s2: s2, s3: s3}
		}
		allSums = append(allSums, sums)
	}

	resp := &network.Response{PerNode: make([]wire.Message, n)}
	for v := 0; v < n; v++ {
		msg := gniSecond{zEcho: z, sums: make([]gniSums, len(allSums))}
		for si := range allSums {
			s := allSums[si][v]
			msg.sums[si] = gniSums{c: s.c, s1: s.s1, s2: s.s2, s3: s.s3}
		}
		resp.PerNode[v] = g.encodeSecond(msg)
	}
	return resp, nil
}
