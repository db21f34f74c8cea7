package core

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sort"

	"dip/internal/graph"
	"dip/internal/hashing"
	"dip/internal/network"
	"dip/internal/perm"
	"dip/internal/spantree"
	"dip/internal/wire"
)

// GNIDAM is a one-exchange (dAM) variant of the Goldwasser–Sipser GNI
// protocol — a round reduction of GNIDAMAM that our concrete ε-API hash
// makes possible. The paper proves GNI ∈ dAMAM and asks, as an open
// problem, whether round reduction theorems exist for the distributed
// model; this variant shows that for GNI the answer is yes *for our
// instantiation*, at no asymptotic cost:
//
//   - the prover broadcasts σ in full (n·⌈lg n⌉ bits — already within the
//     O(n log n) budget), so every node checks locally that σ is a
//     permutation and computes its own row images; the second Arthur
//     round, which GNIDAMAM spends certifying the per-node image claims,
//     becomes unnecessary;
//   - the hash aggregation f_α is linear, so the unicast partial sums can
//     ride in the same Merlin message and be verified locally against the
//     broadcast σ.
//
// Round structure, k repetitions in parallel:
//
//	Arthur — per-node seed slices (as in GNIDAMAM)
//	Merlin — broadcast: per repetition, success claim; for successes the
//	         bit b, the seed echo and the full σ. Unicast: spanning-tree
//	         advice and per-success partial hash sums c_v.
//
// Same promise (both graphs asymmetric), same counting argument, same
// threshold rule as GNIDAMAM.
type GNIDAM struct {
	n      int
	k      int
	params *hashing.GSParams
	thresh int
}

// NewGNIDAM builds the one-exchange variant for graphs on n vertices with
// k parallel repetitions.
func NewGNIDAM(n, k int, seed int64) (*GNIDAM, error) {
	if n < 3 {
		return nil, fmt.Errorf("core: GNIDAM needs n >= 3, got %d", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: GNIDAM needs k >= 1, got %d", k)
	}
	params, err := hashing.NewGSParams(n, 2, seed)
	if err != nil {
		return nil, fmt.Errorf("core: GNIDAM hash params: %w", err)
	}
	// Reuse GNIDAMAM's threshold arithmetic via a scratch instance: the
	// counting argument is identical.
	ref, err := NewGNIDAMAM(n, k, seed)
	if err != nil {
		return nil, err
	}
	return &GNIDAM{n: n, k: k, params: params, thresh: ref.Threshold()}, nil
}

// N returns the number of vertices; K the repetition count; Threshold the
// root's acceptance threshold.
func (g *GNIDAM) N() int         { return g.n }
func (g *GNIDAM) K() int         { return g.k }
func (g *GNIDAM) Threshold() int { return g.thresh }

func (g *GNIDAM) idWidth() int  { return wire.WidthFor(g.n) }
func (g *GNIDAM) qWidth() int   { return wire.WidthForBig(g.params.Q()) }
func (g *GNIDAM) echoBits() int { return g.n * g.params.SliceWidth() }

// gniDamRep is one repetition's broadcast section.
type gniDamRep struct {
	success  bool
	b        int
	seedEcho wire.Message
	sigma    []int
}

// gniDamMessage is one node's (single) Merlin message.
type gniDamMessage struct {
	reps []gniDamRep
	tree spantree.Advice
	sums []*big.Int // c_v per successful repetition, in claim order
}

func (g *GNIDAM) encode(m gniDamMessage) wire.Message {
	var w wire.Writer
	for _, r := range m.reps {
		w.WriteBool(r.success)
		if !r.success {
			continue
		}
		w.WriteInt(r.b, 1)
		w.WriteBits(r.seedEcho.Data, r.seedEcho.Bits)
		for _, img := range r.sigma {
			w.WriteInt(img, g.idWidth())
		}
	}
	w.WriteInt(m.tree.Parent, g.idWidth())
	w.WriteInt(m.tree.Dist, g.idWidth())
	for _, c := range m.sums {
		w.WriteBig(c, g.qWidth())
	}
	return w.Message()
}

func (g *GNIDAM) decode(m wire.Message) (gniDamMessage, error) {
	r := wire.NewReader(m)
	out := gniDamMessage{reps: make([]gniDamRep, g.k)}
	successes := 0
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
		echo, err := r.ReadBig(g.echoBits())
		if err != nil {
			return out, err
		}
		var ew wire.Writer
		ew.WriteBig(echo, g.echoBits())
		out.reps[i].seedEcho = ew.Message()
		out.reps[i].sigma = make([]int, g.n)
		for v := range out.reps[i].sigma {
			if out.reps[i].sigma[v], err = r.ReadInt(g.idWidth()); err != nil {
				return out, err
			}
			if out.reps[i].sigma[v] >= g.n {
				return out, errors.New("core: image out of range")
			}
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
	out.sums = make([]*big.Int, successes)
	for i := range out.sums {
		if out.sums[i], err = r.ReadBig(g.qWidth()); err != nil {
			return out, err
		}
		if out.sums[i].Cmp(g.params.Q()) >= 0 {
			return out, errors.New("core: partial sum out of range")
		}
	}
	return out, r.Done()
}

// sameGNIDamBroadcast compares the broadcast sections of two messages.
func sameGNIDamBroadcast(a, b gniDamMessage) bool {
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
		if x.b != y.b || !msgEqual(x.seedEcho, y.seedEcho) {
			return false
		}
		for v := range x.sigma {
			if x.sigma[v] != y.sigma[v] {
				return false
			}
		}
	}
	return true
}

// Spec returns the protocol's round schedule and verifier.
func (g *GNIDAM) Spec() *network.Spec {
	return &network.Spec{
		Name: "gni-dam",
		Rounds: []network.Round{
			{Kind: network.Arthur, Challenge: func(_ int, rng *rand.Rand, _ *network.NodeView) wire.Message {
				var w wire.Writer
				for i := 0; i < g.k*g.params.SliceWidth(); i++ {
					w.WriteBool(rng.Intn(2) == 1)
				}
				return w.Message()
			}},
			{Kind: network.Merlin},
		},
		Decide: g.decide,
	}
}

func (g *GNIDAM) decide(v int, view *network.NodeView) bool {
	if view.NumVertices != g.n {
		return false
	}
	msg, err := g.decode(view.Responses[0])
	if err != nil {
		return false
	}
	neighborMsgs := make([]gniDamMessage, len(view.Neighbors))
	for j, u := range view.Neighbors {
		nm, err := g.decode(view.NeighborResponses[0][u])
		if err != nil {
			return false
		}
		if !sameGNIDamBroadcast(msg, nm) {
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

	sw := g.params.SliceWidth()
	si := 0
	for rI, rep := range msg.reps {
		if !rep.success {
			continue
		}
		// σ must be a permutation — a purely local check on the broadcast.
		if !perm.IsValid(rep.sigma) {
			return false
		}
		// Our seed slice must be echoed intact.
		mySlice, err := subBits(rep.seedEcho, v*sw, sw)
		if err != nil {
			return false
		}
		sent, err := subBits(view.MyChallenges[0], rI*sw, sw)
		if err != nil {
			return false
		}
		if !msgEqual(mySlice, sent) {
			return false
		}
		slices, err := g.slicesFromEcho(rep.seedEcho)
		if err != nil {
			return false
		}
		seed, err := g.params.SeedFromSlices(slices)
		if err != nil {
			return false
		}

		// Our row of σ(G_b): row index σ(v), columns σ(closed N_b(v)) —
		// all computed locally from the broadcast σ.
		closed, err := closedNbhdFromView(view, rep.b, g.n)
		if err != nil {
			return false
		}
		cols := make([]int, len(closed))
		for j, u := range closed {
			cols[j] = rep.sigma[u]
		}
		cExpect := g.params.RowTermSlow(seed.Alpha, rep.sigma[v], cols)
		for _, j := range children {
			cExpect = g.params.AddModQ(cExpect, neighborMsgs[j].sums[si])
		}
		if cExpect.Cmp(msg.sums[si]) != 0 {
			return false
		}
		if v == 0 && g.params.Finish(seed, msg.sums[si]).Cmp(seed.Y) != 0 {
			return false
		}
		si++
	}
	if v == 0 && si < g.thresh {
		return false
	}
	return true
}

// slicesFromEcho splits an echo into per-node slices (same layout as
// GNIDAMAM).
func (g *GNIDAM) slicesFromEcho(echo wire.Message) ([]wire.Message, error) {
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

// HonestProver returns the optimal prover (which doubles as the optimal
// cheater on no-instances). A fresh prover must be used per run.
func (g *GNIDAM) HonestProver() network.Prover {
	return &gniDamProver{proto: g}
}

type gniDamProver struct {
	proto *GNIDAM
}

func (p *gniDamProver) Respond(round int, view *network.ProverView) (*network.Response, error) {
	if round != 0 {
		return nil, fmt.Errorf("core: GNIDAM prover called for round %d", round)
	}
	g := p.proto
	n := g.n
	g0 := view.Graph
	if g0.N() != n {
		return nil, fmt.Errorf("core: graph has %d vertices, protocol built for %d", g0.N(), n)
	}
	if len(view.Inputs) != n {
		return nil, errors.New("core: GNIDAM prover needs G1 inputs")
	}

	var closed [2][][]int
	for v := 0; v < n; v++ {
		c0 := append([]int(nil), g0.Neighbors(v)...)
		c0 = append(c0, v)
		sort.Ints(c0)
		closed[0] = append(closed[0], c0)
		open1, err := decodeGNIInput(view.Inputs[v], n)
		if err != nil {
			return nil, fmt.Errorf("core: GNIDAM prover input %d: %w", v, err)
		}
		c1 := append(open1, v)
		sort.Ints(c1)
		closed[1] = append(closed[1], c1)
	}

	advice, err := spantree.Compute(g0, 0)
	if err != nil {
		return nil, fmt.Errorf("core: GNIDAM prover tree: %w", err)
	}
	childLists := spantree.ChildLists(advice)
	order := spantree.PostOrder(advice)

	sw := g.params.SliceWidth()
	reps := make([]gniDamRep, g.k)
	sums := make([][]*big.Int, 0, g.k) // per success, per node
	for r := 0; r < g.k; r++ {
		slices := make([]wire.Message, n)
		var echo wire.Writer
		for v := 0; v < n; v++ {
			s, err := subBits(view.Challenges[0][v], r*sw, sw)
			if err != nil {
				return nil, err
			}
			slices[v] = s
			echo.WriteBits(s.Data, s.Bits)
		}
		seed, err := g.params.SeedFromSlices(slices)
		if err != nil {
			return nil, err
		}
		b, sigma, ok := searchGNIPreimage(g.params, closed, seed)
		reps[r] = gniDamRep{success: ok, b: b, seedEcho: echo.Message()}
		if !ok {
			continue
		}
		reps[r].sigma = sigma

		table := g.params.Powers(seed.Alpha)
		perNode := make([]*big.Int, n)
		for _, v := range order {
			cls := closed[b][v]
			cols := make([]int, len(cls))
			for j, u := range cls {
				cols[j] = sigma[u]
			}
			c := g.params.RowTerm(table, sigma[v], cols)
			for _, ch := range childLists[v] {
				c = g.params.AddModQ(c, perNode[ch])
			}
			perNode[v] = c
		}
		sums = append(sums, perNode)
	}

	resp := &network.Response{PerNode: make([]wire.Message, n)}
	for v := 0; v < n; v++ {
		msg := gniDamMessage{reps: reps, tree: advice[v], sums: make([]*big.Int, len(sums))}
		for si := range sums {
			msg.sums[si] = sums[si][v]
		}
		resp.PerNode[v] = g.encode(msg)
	}
	return resp, nil
}

// searchGNIPreimage enumerates (b, σ) for a member of S hashing to the
// seed's target. Shared by the one- and two-exchange GNI provers.
func searchGNIPreimage(params *hashing.GSParams, closed [2][][]int, seed *hashing.GSSeed) (int, perm.Perm, bool) {
	n := params.N()
	table := params.Powers(seed.Alpha)
	for b := 0; b < 2; b++ {
		sigma := perm.Identity(n)
		for {
			f := new(big.Int)
			for v := 0; v < n; v++ {
				cls := closed[b][v]
				cols := make([]int, len(cls))
				for j, u := range cls {
					cols[j] = sigma[u]
				}
				f = params.AddModQ(f, params.RowTerm(table, sigma[v], cols))
			}
			if params.Finish(seed, f).Cmp(seed.Y) == 0 {
				return b, sigma.Clone(), true
			}
			if !sigma.NextLex() {
				break
			}
		}
	}
	return 0, nil, false
}

// Run executes the protocol: g0 is the network graph, g1 the input graph.
func (g *GNIDAM) Run(g0, g1 *graph.Graph, prover network.Prover, seed int64) (*network.Result, error) {
	if g0.N() != g.n || g1.N() != g.n {
		return nil, fmt.Errorf("core: GNI instance sizes (%d, %d), protocol built for %d",
			g0.N(), g1.N(), g.n)
	}
	return network.Run(g.Spec(), g0, EncodeGNIInputs(g1), prover, network.Options{Seed: seed})
}
