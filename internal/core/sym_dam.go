package core

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"

	"dip/internal/bitset"
	"dip/internal/graph"
	"dip/internal/hashing"
	"dip/internal/network"
	"dip/internal/perm"
	"dip/internal/prime"
	"dip/internal/setupcache"
	"dip/internal/spantree"
	"dip/internal/wire"
)

// SymDAM is Protocol 2 of the paper (Section 3.2): the O(n log n)-bit dAM
// interactive proof for Symmetry. Unlike Protocol 1, the random challenge is
// issued *before* the prover speaks, so the prover cannot be forced to
// commit to ρ first. The protocol compensates in two ways (both visible in
// the cost):
//
//   - the prover broadcasts the entire mapping ρ (n·log n bits), and
//   - the hash modulus is a prime p ∈ [10·n^{n+2}, 100·n^{n+2}] — Θ(n log n)
//     bits — so small that a union bound over all n^n candidate mappings
//     still leaves collision probability below 1/3.
//
// Round structure:
//
//	Arthur  — per node v: random hash index i_v ∈ Z_p
//	Merlin  — per node v: [ρ (full) | echo i | root r]  (broadcast fields)
//	          ++ [parent t_v | dist d_v | a_v | b_v]     (unicast fields)
type SymDAM struct {
	n      int
	p      *big.Int
	family *hashing.LinearFamily
}

// NewSymDAM builds the protocol for graphs on n ≥ 2 vertices.
func NewSymDAM(n int, seed int64) (*SymDAM, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: SymDAM needs n >= 2, got %d", n)
	}
	p, err := prime.ForPowerWindow(n, seed)
	if err != nil {
		return nil, fmt.Errorf("core: SymDAM modulus: %w", err)
	}
	return newSymDAMWithPrime(n, p)
}

// NewSymDAMWithPrime builds the protocol with an explicit hash modulus.
// It exists for the E9 ablation: running the challenge-first protocol with
// a Protocol-1-sized prime (≈n³) breaks soundness, because the union bound
// over n^n mappings no longer holds — and the PostHocProver exploits it.
func NewSymDAMWithPrime(n int, p *big.Int) (*SymDAM, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: SymDAM needs n >= 2, got %d", n)
	}
	return newSymDAMWithPrime(n, p)
}

func newSymDAMWithPrime(n int, p *big.Int) (*SymDAM, error) {
	family, err := hashing.NewLinearFamily(n*n, p)
	if err != nil {
		return nil, fmt.Errorf("core: SymDAM family: %w", err)
	}
	return &SymDAM{n: n, p: p, family: family}, nil
}

// N returns the number of vertices the protocol instance is for.
func (s *SymDAM) N() int { return s.n }

// P returns (a copy of) the hash modulus.
func (s *SymDAM) P() *big.Int { return new(big.Int).Set(s.p) }

func (s *SymDAM) idWidth() int   { return wire.WidthFor(s.n) }
func (s *SymDAM) hashWidth() int { return wire.WidthForBig(s.p) }

// symDAMMessage is the single Merlin message, decoded.
type symDAMMessage struct {
	rho  []int // full mapping, broadcast
	echo *big.Int
	root int
	tree spantree.Advice
	a, b *big.Int
}

func (s *SymDAM) encode(m symDAMMessage) wire.Message {
	var w wire.Writer
	for _, img := range m.rho {
		w.WriteInt(img, s.idWidth())
	}
	w.WriteBig(m.echo, s.hashWidth())
	w.WriteInt(m.root, s.idWidth())
	w.WriteInt(m.tree.Parent, s.idWidth())
	w.WriteInt(m.tree.Dist, s.idWidth())
	w.WriteBig(m.a, s.hashWidth())
	w.WriteBig(m.b, s.hashWidth())
	return w.Message()
}

func (s *SymDAM) decode(m wire.Message) (symDAMMessage, error) {
	r := wire.NewReader(m)
	out := symDAMMessage{rho: make([]int, s.n)}
	var err error
	for v := range out.rho {
		if out.rho[v], err = r.ReadInt(s.idWidth()); err != nil {
			return out, err
		}
		if out.rho[v] >= s.n {
			return out, errors.New("core: image out of range")
		}
	}
	if out.echo, err = r.ReadBig(s.hashWidth()); err != nil {
		return out, err
	}
	if out.root, err = r.ReadInt(s.idWidth()); err != nil {
		return out, err
	}
	if out.tree.Parent, err = r.ReadInt(s.idWidth()); err != nil {
		return out, err
	}
	if out.tree.Dist, err = r.ReadInt(s.idWidth()); err != nil {
		return out, err
	}
	if out.a, err = r.ReadBig(s.hashWidth()); err != nil {
		return out, err
	}
	if out.b, err = r.ReadBig(s.hashWidth()); err != nil {
		return out, err
	}
	if out.root >= s.n || out.tree.Parent >= s.n {
		return out, errors.New("core: vertex id out of range")
	}
	for _, x := range []*big.Int{out.echo, out.a, out.b} {
		if x.Cmp(s.p) >= 0 {
			return out, errors.New("core: field value out of range")
		}
	}
	out.tree.Root = out.root
	return out, r.Done()
}

// sameBroadcast reports whether the broadcast fields (ρ, echo, root) of two
// decoded messages agree.
func sameBroadcast(a, b symDAMMessage) bool {
	if a.root != b.root || a.echo.Cmp(b.echo) != 0 {
		return false
	}
	for i := range a.rho {
		if a.rho[i] != b.rho[i] {
			return false
		}
	}
	return true
}

// Spec returns the protocol's round schedule and verifier.
func (s *SymDAM) Spec() *network.Spec {
	return &network.Spec{
		Name: "sym-dam",
		Rounds: []network.Round{
			{Kind: network.Arthur, Challenge: func(_ int, rng *rand.Rand, _ *network.NodeView) wire.Message {
				return bigChallenge(rng, s.p)
			}},
			{Kind: network.Merlin},
		},
		Decide: s.decide,
	}
}

// decide is the verification procedure of Protocol 2, run at node v.
func (s *SymDAM) decide(v int, view *network.NodeView) bool {
	if view.NumVertices != s.n {
		return false
	}
	msg, err := s.decode(view.Responses[0])
	if err != nil {
		return false
	}
	// Position j holds the message of view.Neighbors[j].
	neighborMsgs := make([]symDAMMessage, len(view.Neighbors))
	neighborTree := make([]spantree.Advice, len(view.Neighbors))
	for j, u := range view.Neighbors {
		nm, err := s.decode(view.NeighborResponses[0][u])
		if err != nil {
			return false
		}
		if !sameBroadcast(msg, nm) {
			return false
		}
		neighborMsgs[j], neighborTree[j] = nm, nm.tree
	}

	// Line 1: spanning-tree checks.
	if !spantree.VerifyLocal(v, msg.tree, view.Neighbors, neighborTree) {
		return false
	}
	children := spantree.Children(v, neighborTree)
	i := msg.echo

	// Line 3a: a_v = h_i([v, N(v)]) + Σ_{u∈C(v)} a_u.
	closed := bitset.New(s.n)
	closed.Add(v)
	for _, u := range view.Neighbors {
		closed.Add(u)
	}
	aExpect := s.family.HashRowMatrix(i, s.n, v, closed)
	for _, j := range children {
		aExpect = s.family.AddModInto(aExpect, neighborMsgs[j].a)
	}
	if aExpect.Cmp(msg.a) != 0 {
		return false
	}

	// Line 3b: b_v = h_i([ρ(v), ρ(N(v))]) + Σ_{u∈C(v)} b_u, with ρ read
	// from the broadcast (so no first-round commitment is needed).
	mappedRow := closed.Permute(msg.rho)
	bExpect := s.family.HashRowMatrix(i, s.n, msg.rho[v], mappedRow)
	for _, j := range children {
		bExpect = s.family.AddModInto(bExpect, neighborMsgs[j].b)
	}
	if bExpect.Cmp(msg.b) != 0 {
		return false
	}

	// Line 4: root-only checks.
	if v == msg.root {
		if msg.a.Cmp(msg.b) != 0 {
			return false
		}
		if msg.rho[v] == v {
			return false
		}
		iv, err := decodeBigChallenge(view.MyChallenges[0], s.p)
		if err != nil || iv.Cmp(i) != 0 {
			return false
		}
	}
	return true
}

// HonestProver returns a prover implementing the completeness strategy of
// Theorem 3.5. A fresh prover must be used per run.
func (s *SymDAM) HonestProver() network.Prover {
	return &symDAMProver{proto: s}
}

// ProverWithMapping returns an honest-except-for-ρ prover committing to the
// given mapping and root; used by cheating strategies and tests.
func (s *SymDAM) ProverWithMapping(rho perm.Perm, root int) network.Prover {
	return &symDAMProver{proto: s, fixedRho: rho, fixedRoot: root}
}

type symDAMProver struct {
	proto     *SymDAM
	fixedRho  perm.Perm
	fixedRoot int
	// PostHoc, when non-nil, lets the prover choose the mapping *after*
	// seeing the challenge — the attack surface dAM protocols must survive.
	// It receives the graph and the root's challenge and returns (ρ, root).
	PostHoc func(g *graph.Graph, i *big.Int) (perm.Perm, int)
}

func (p *symDAMProver) Respond(round int, view *network.ProverView) (*network.Response, error) {
	if round != 0 {
		return nil, fmt.Errorf("core: SymDAM prover called for round %d", round)
	}
	s := p.proto
	g := view.Graph
	if g.N() != s.n {
		return nil, fmt.Errorf("core: graph has %d vertices, protocol built for %d", g.N(), s.n)
	}

	var rho perm.Perm
	var root int
	switch {
	case p.PostHoc != nil:
		// The challenge the root will check is not known until a root is
		// chosen; the post-hoc strategy receives the graph and a decoding
		// oracle. We pass node 0's challenge view via closure configuration
		// in adversary.go; here the convention is: the strategy picks the
		// root, and the echo uses that root's challenge.
		rho, root = p.PostHoc(g, nil)
	case p.fixedRho != nil:
		rho, root = p.fixedRho, p.fixedRoot
	default:
		// The honest search is seed-independent, so it goes through the
		// per-graph setup cache (the PostHoc and fixed-mapping strategies
		// above deliberately do not).
		rho = setupcache.ForGraph(g).Automorphism()
		if rho == nil {
			rho = perm.Identity(s.n)
			rho[0], rho[1] = 1, 0
		}
		root = rho.Moved()
	}

	i, err := decodeBigChallenge(view.Challenges[0][root], s.p)
	if err != nil {
		return nil, fmt.Errorf("core: SymDAM prover challenge: %w", err)
	}
	if p.PostHoc != nil {
		// Now that the root (and hence the binding challenge) is known,
		// give the post-hoc strategy the real challenge.
		rho, _ = p.PostHoc(g, i)
	}

	advice, err := setupcache.ForGraph(g).SpanTree(root)
	if err != nil {
		return nil, fmt.Errorf("core: SymDAM prover tree: %w", err)
	}
	a, b := subtreeHashSums(g, rho, advice, bigHasher(s.family, s.n, i))

	resp := &network.Response{PerNode: make([]wire.Message, s.n)}
	for v := 0; v < s.n; v++ {
		resp.PerNode[v] = s.encode(symDAMMessage{
			rho:  rho,
			echo: i,
			root: root,
			tree: advice[v],
			a:    a[v],
			b:    b[v],
		})
	}
	return resp, nil
}

// Run executes the protocol on g against the given prover.
func (s *SymDAM) Run(g *graph.Graph, prover network.Prover, seed int64) (*network.Result, error) {
	return network.Run(s.Spec(), g, nil, prover, network.Options{Seed: seed})
}
