package core

import (
	"errors"
	"fmt"
	"math/rand"

	"dip/internal/bitset"
	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/prime"
	"dip/internal/spantree"
	"dip/internal/wire"
)

// DSymDAM is the O(log n)-bit dAM protocol for Dumbbell Symmetry
// (Section 3.3, Theorem 3.6) — the upper-bound half of the exponential
// separation between distributed AM and distributed NP.
//
// DSym (Definition 5) fixes the candidate automorphism σ: swap the two
// sides of the dumbbell and reverse the connecting path. Because σ is fixed,
// the prover has nothing to commit to, so the first Merlin round of
// Protocol 1 disappears and a Protocol-1-sized hash modulus (p ≈ n³, i.e.
// O(log n) bits) is already sound:
//
//	Arthur  — per node v: random hash index i_v ∈ Z_p
//	Merlin  — per node v: [echo i | parent t_v | dist d_v | a_v | b_v]
//
// The root is vertex 0 by convention (σ(0) = n ≠ 0). Conditions (2) and (3)
// of DSym — the path is present and no stray edges exist — are verified
// locally by each node without the prover's help; condition (1) — σ is an
// automorphism — is verified with the spanning-tree hash aggregation of
// Protocol 1.
type DSymDAM struct {
	side  int // n of Definition 5: vertices per dumbbell side
	half  int // r of Definition 5: half-length of the connecting path
	total int // 2·side + 2·half + 1
	sigma []int
	wordField
}

// NewDSymDAM builds the protocol for DSym graphs with parameters
// (side, half) — side ≥ 1 vertices per side and a path of 2·half+1 interior
// vertices.
func NewDSymDAM(side, half int, seed int64) (*DSymDAM, error) {
	if side < 1 || half < 0 {
		return nil, fmt.Errorf("core: DSymDAM invalid parameters side=%d half=%d", side, half)
	}
	total := 2*side + 2*half + 1
	p, err := prime.ForCubicWindow(total, seed)
	if err != nil {
		return nil, fmt.Errorf("core: DSymDAM modulus: %w", err)
	}
	f, err := newWordField(total*total, p)
	if err != nil {
		return nil, fmt.Errorf("core: DSymDAM family: %w", err)
	}
	return &DSymDAM{
		side:      side,
		half:      half,
		total:     total,
		sigma:     graph.DSymAutomorphism(side, half),
		wordField: f,
	}, nil
}

// N returns the total number of vertices of a conforming instance.
func (d *DSymDAM) N() int { return d.total }

func (d *DSymDAM) idWidth() int { return wire.WidthFor(d.total) }

type dsymMessage struct {
	echo uint64
	tree spantree.Advice
	a, b uint64
}

func (d *DSymDAM) encode(m dsymMessage) wire.Message {
	var w wire.Writer
	w.WriteUint(m.echo, d.width)
	w.WriteInt(m.tree.Parent, d.idWidth())
	w.WriteInt(m.tree.Dist, d.idWidth())
	w.WriteUint(m.a, d.width)
	w.WriteUint(m.b, d.width)
	return w.Message()
}

func (d *DSymDAM) decode(m wire.Message) (dsymMessage, error) {
	r := wire.NewReader(m)
	var out dsymMessage
	var err error
	if out.echo, err = d.read(r); err != nil {
		return out, err
	}
	if out.tree.Parent, err = r.ReadInt(d.idWidth()); err != nil {
		return out, err
	}
	if out.tree.Dist, err = r.ReadInt(d.idWidth()); err != nil {
		return out, err
	}
	if out.a, err = d.read(r); err != nil {
		return out, err
	}
	if out.b, err = d.read(r); err != nil {
		return out, err
	}
	if out.tree.Parent >= d.total {
		return out, errors.New("core: parent id out of range")
	}
	out.tree.Root = 0
	return out, r.Done()
}

// legalNeighborhood runs node v's prover-free structure checks: conditions
// (2) and (3) of Section 3.3, restricted to what v can see locally.
func (d *DSymDAM) legalNeighborhood(v int, neighbors []int) bool {
	n, r := d.side, d.half
	pathFirst, pathLast := 2*n, 2*n+2*r

	within := func(lo, hi int) func(int) bool { // inclusive range predicate
		return func(u int) bool { return u >= lo && u <= hi }
	}
	sideA := within(0, n-1)
	sideB := within(n, 2*n-1)

	switch {
	case v == 0:
		// Side-A anchor: internal side-A edges plus the path start.
		hasPath := false
		for _, u := range neighbors {
			switch {
			case u == pathFirst:
				hasPath = true
			case sideA(u):
			default:
				return false
			}
		}
		return hasPath
	case v == n:
		// Side-B anchor: internal side-B edges plus the path end.
		hasPath := false
		for _, u := range neighbors {
			switch {
			case u == pathLast:
				hasPath = true
			case sideB(u):
			default:
				return false
			}
		}
		return hasPath
	case sideA(v):
		for _, u := range neighbors {
			if !sideA(u) {
				return false
			}
		}
		return true
	case sideB(v):
		for _, u := range neighbors {
			if !sideB(u) {
				return false
			}
		}
		return true
	default:
		// Path interior: exactly the two path neighbors, with the ends
		// attached to the anchors.
		prev, next := v-1, v+1
		if v == pathFirst {
			prev = 0
		}
		if v == pathLast {
			next = n
		}
		if len(neighbors) != 2 {
			return false
		}
		seen := map[int]bool{}
		for _, u := range neighbors {
			seen[u] = true
		}
		return seen[prev] && seen[next]
	}
}

// Spec returns the protocol's round schedule and verifier.
func (d *DSymDAM) Spec() *network.Spec {
	return &network.Spec{
		Name: "dsym-dam",
		Rounds: []network.Round{
			{Kind: network.Arthur, Challenge: func(_ int, rng *rand.Rand, _ *network.NodeView) wire.Message {
				return d.challenge(rng)
			}},
			{Kind: network.Merlin},
		},
		Decide: d.decide,
	}
}

func (d *DSymDAM) decide(v int, view *network.NodeView) bool {
	if view.NumVertices != d.total {
		return false
	}
	// Prover-free structure checks first.
	if !d.legalNeighborhood(v, view.Neighbors) {
		return false
	}

	msg, err := d.decode(view.Responses[0])
	if err != nil {
		return false
	}
	// Position j holds the message of view.Neighbors[j].
	neighborMsgs := make([]dsymMessage, len(view.Neighbors))
	neighborTree := make([]spantree.Advice, len(view.Neighbors))
	for j, u := range view.Neighbors {
		nm, err := d.decode(view.NeighborResponses[0][u])
		if err != nil {
			return false
		}
		if nm.echo != msg.echo {
			return false
		}
		neighborMsgs[j], neighborTree[j] = nm, nm.tree
	}

	if !spantree.VerifyLocal(v, msg.tree, view.Neighbors, neighborTree) {
		return false
	}
	children := spantree.Children(v, neighborTree)
	i := msg.echo

	closed := bitset.New(d.total)
	closed.Add(v)
	for _, u := range view.Neighbors {
		closed.Add(u)
	}
	aExpect := d.family.HashRowMatrix64(i, d.total, v, closed)
	for _, j := range children {
		aExpect = d.family.AddMod64(aExpect, neighborMsgs[j].a)
	}
	if aExpect != msg.a {
		return false
	}

	mappedRow := closed.Permute(d.sigma)
	bExpect := d.family.HashRowMatrix64(i, d.total, d.sigma[v], mappedRow)
	for _, j := range children {
		bExpect = d.family.AddMod64(bExpect, neighborMsgs[j].b)
	}
	if bExpect != msg.b {
		return false
	}

	if v == 0 { // root checks; σ(0) = side ≠ 0 by construction
		if msg.a != msg.b {
			return false
		}
		iv, err := d.decodeChallenge(view.MyChallenges[0])
		if err != nil || iv != i {
			return false
		}
	}
	return true
}

// HonestProver returns the completeness prover: it echoes the root's hash
// index and computes the spanning tree and subtree hash sums honestly. A
// fresh prover must be used per run.
func (d *DSymDAM) HonestProver() network.Prover {
	return &dsymProver{proto: d}
}

// ForgingProver returns a prover that fabricates the a-sum at the given
// node, for soundness tests: all other values are honest.
func (d *DSymDAM) ForgingProver(at int) network.Prover {
	return &dsymProver{proto: d, forgeAt: at, forge: true}
}

type dsymProver struct {
	proto   *DSymDAM
	forgeAt int
	forge   bool
}

func (p *dsymProver) Respond(round int, view *network.ProverView) (*network.Response, error) {
	if round != 0 {
		return nil, fmt.Errorf("core: DSym prover called for round %d", round)
	}
	d := p.proto
	g := view.Graph
	if g.N() != d.total {
		return nil, fmt.Errorf("core: graph has %d vertices, protocol built for %d", g.N(), d.total)
	}
	i, err := d.decodeChallenge(view.Challenges[0][0])
	if err != nil {
		return nil, fmt.Errorf("core: DSym prover challenge: %w", err)
	}
	advice, err := spantree.Compute(g, 0)
	if err != nil {
		return nil, fmt.Errorf("core: DSym prover tree: %w", err)
	}
	a, b := subtreeHashSums(g, d.sigma, advice, wordHasher(d.family, d.total, i))
	if p.forge {
		a[p.forgeAt] = d.family.AddMod64(a[p.forgeAt], 1)
	}
	resp := &network.Response{PerNode: make([]wire.Message, d.total)}
	for v := 0; v < d.total; v++ {
		resp.PerNode[v] = d.encode(dsymMessage{echo: i, tree: advice[v], a: a[v], b: b[v]})
	}
	return resp, nil
}

// Run executes the protocol on g against the given prover.
func (d *DSymDAM) Run(g *graph.Graph, prover network.Prover, seed int64) (*network.Result, error) {
	return network.Run(d.Spec(), g, nil, prover, network.Options{Seed: seed})
}
