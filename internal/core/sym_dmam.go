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

// SymDMAM is Protocol 1 of the paper (Section 3.1): the O(log n)-bit dMAM
// interactive proof that the network graph has a non-trivial automorphism.
//
// Round structure:
//
//	Merlin  — per node v: [root r | ρ_v | parent t_v | dist d_v]
//	          (r is a broadcast field: nodes verify neighbors agree)
//	Arthur  — per node v: a random hash index i_v ∈ [|H|] = Z_p
//	Merlin  — per node v: [echo i | a_v | b_v]  with a_v, b_v ∈ Z_p
//
// where the hash family is the Theorem 3.2 linear family over a prime
// p ∈ [10n³, 100n³], a_v is claimed to be Σ_{u∈T_v} h_i([u, N(u)]) and b_v
// is Σ_{u∈T_v} h_i([ρ(u), ρ(N(u))]). The crucial point — and the subject of
// ablation experiment E9 — is that the prover commits to ρ before seeing
// the random hash index.
type SymDMAM struct {
	n int
	wordField
}

// NewSymDMAM builds the protocol for graphs on n ≥ 2 vertices, deriving the
// hash modulus from seed (Section 3.1.2: a prime in [10n³, 100n³]).
func NewSymDMAM(n int, seed int64) (*SymDMAM, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: SymDMAM needs n >= 2, got %d", n)
	}
	p, err := prime.ForCubicWindow(n, seed)
	if err != nil {
		return nil, fmt.Errorf("core: SymDMAM modulus: %w", err)
	}
	f, err := newWordField(n*n, p)
	if err != nil {
		return nil, fmt.Errorf("core: SymDMAM family: %w", err)
	}
	return &SymDMAM{n: n, wordField: f}, nil
}

// N returns the number of vertices the protocol instance is for.
func (s *SymDMAM) N() int { return s.n }

// idWidth is the bit width of a vertex identifier.
func (s *SymDMAM) idWidth() int { return wire.WidthFor(s.n) }

// firstMessage is the decoded first Merlin message.
type symDMAMFirst struct {
	root int
	rho  int
	tree spantree.Advice
}

func (s *SymDMAM) encodeFirst(m symDMAMFirst) wire.Message {
	var w wire.Writer
	w.WriteInt(m.root, s.idWidth())
	w.WriteInt(m.rho, s.idWidth())
	w.WriteInt(m.tree.Parent, s.idWidth())
	w.WriteInt(m.tree.Dist, s.idWidth())
	return w.Message()
}

func (s *SymDMAM) decodeFirst(m wire.Message) (symDMAMFirst, error) {
	r := wire.NewReader(m)
	var out symDMAMFirst
	var err error
	if out.root, err = r.ReadInt(s.idWidth()); err != nil {
		return out, err
	}
	if out.rho, err = r.ReadInt(s.idWidth()); err != nil {
		return out, err
	}
	if out.tree.Parent, err = r.ReadInt(s.idWidth()); err != nil {
		return out, err
	}
	if out.tree.Dist, err = r.ReadInt(s.idWidth()); err != nil {
		return out, err
	}
	out.tree.Root = out.root
	if out.root >= s.n || out.rho >= s.n || out.tree.Parent >= s.n {
		return out, errors.New("core: vertex id out of range")
	}
	return out, r.Done()
}

// secondMessage is the decoded second Merlin message.
type symDMAMSecond struct {
	echo uint64 // claimed hash index chosen by the root
	a, b uint64
}

func (s *SymDMAM) encodeSecond(m symDMAMSecond) wire.Message {
	var w wire.Writer
	w.WriteUint(m.echo, s.width)
	w.WriteUint(m.a, s.width)
	w.WriteUint(m.b, s.width)
	return w.Message()
}

func (s *SymDMAM) decodeSecond(m wire.Message) (symDMAMSecond, error) {
	r := wire.NewReader(m)
	var out symDMAMSecond
	var err error
	if out.echo, err = s.read(r); err != nil {
		return out, err
	}
	if out.a, err = s.read(r); err != nil {
		return out, err
	}
	if out.b, err = s.read(r); err != nil {
		return out, err
	}
	return out, r.Done()
}

// symDMAMNeighbor is what decide keeps of a neighbor's two messages once
// their broadcast fields (root, echo) have been checked.
type symDMAMNeighbor struct {
	rho  int
	a, b uint64
}

// Spec returns the protocol's round schedule and verifier.
func (s *SymDMAM) Spec() *network.Spec {
	return &network.Spec{
		Name: "sym-dmam",
		Rounds: []network.Round{
			{Kind: network.Merlin},
			{Kind: network.Arthur, Challenge: func(_ int, rng *rand.Rand, _ *network.NodeView) wire.Message {
				return s.challenge(rng)
			}},
			{Kind: network.Merlin},
		},
		Decide: s.decide,
	}
}

// decide is the verification procedure of Protocol 1, run at node v.
func (s *SymDMAM) decide(v int, view *network.NodeView) bool {
	if view.NumVertices != s.n {
		return false
	}
	first, err := s.decodeFirst(view.Responses[0])
	if err != nil {
		return false
	}
	second, err := s.decodeSecond(view.Responses[1])
	if err != nil {
		return false
	}

	// Neighbor copies of both rounds, with broadcast-field checks: all
	// nodes must have received the same root and the same echoed index.
	// Position j holds the messages of view.Neighbors[j].
	neighborTree := make([]spantree.Advice, len(view.Neighbors))
	neighbors := make([]symDMAMNeighbor, len(view.Neighbors))
	for j, u := range view.Neighbors {
		nf, err := s.decodeFirst(view.NeighborResponses[0][u])
		if err != nil {
			return false
		}
		if nf.root != first.root {
			return false
		}
		ns, err := s.decodeSecond(view.NeighborResponses[1][u])
		if err != nil {
			return false
		}
		if ns.echo != second.echo {
			return false
		}
		neighborTree[j] = nf.tree
		neighbors[j] = symDMAMNeighbor{rho: nf.rho, a: ns.a, b: ns.b}
	}

	// Line 1: spanning-tree checks.
	if !spantree.VerifyLocal(v, first.tree, view.Neighbors, neighborTree) {
		return false
	}

	// Line 2: C(v) = {u ∈ N(v) : t_u = v}.
	children := spantree.Children(v, neighborTree)

	i := second.echo

	// Line 3a: a_v = h_i([v, N(v)]) + Σ_{u∈C(v)} a_u.
	closed := bitset.New(s.n)
	closed.Add(v)
	for _, u := range view.Neighbors {
		closed.Add(u)
	}
	aExpect := s.family.HashRowMatrix64(i, s.n, v, closed)
	for _, j := range children {
		aExpect = s.family.AddMod64(aExpect, neighbors[j].a)
	}
	if aExpect != second.a {
		return false
	}

	// Line 3b: b_v = h_i([ρ(v), ρ(N(v))]) + Σ_{u∈C(v)} b_u, where node v
	// learns the images ρ(u) of its neighbors from their first-round
	// messages (Definition 1: v sees the responses of N(v)).
	mappedRow := closed // closed is dead past line 3a; reuse its storage
	mappedRow.Clear()
	mappedRow.Add(first.rho)
	for _, nb := range neighbors {
		mappedRow.Add(nb.rho)
	}
	bExpect := s.family.HashRowMatrix64(i, s.n, first.rho, mappedRow)
	for _, j := range children {
		bExpect = s.family.AddMod64(bExpect, neighbors[j].b)
	}
	if bExpect != second.b {
		return false
	}

	// Line 4: root-only checks.
	if v == first.root {
		if second.a != second.b {
			return false
		}
		if first.rho == v {
			return false // claimed automorphism must move the root
		}
		iv, err := s.decodeChallenge(view.MyChallenges[0])
		if err != nil || iv != i {
			return false
		}
	}
	return true
}

// HonestProver returns the prover of Theorem 3.4's completeness direction:
// it finds a non-trivial automorphism (by refinement-backtracking search —
// the computational stand-in for Merlin's unbounded power), commits to it,
// and computes the hash sums honestly. A fresh prover must be used per run.
func (s *SymDMAM) HonestProver() network.Prover {
	return &symDMAMProver{proto: s}
}

// ProverWithMapping returns an honest-except-for-ρ prover: it runs the
// honest strategy but commits to the given mapping (and root) instead of
// searching for an automorphism. It is the building block for the cheating
// provers in adversary.go and for tests.
func (s *SymDMAM) ProverWithMapping(rho perm.Perm, root int) network.Prover {
	return &symDMAMProver{proto: s, fixedRho: rho, fixedRoot: root}
}

type symDMAMProver struct {
	proto     *SymDMAM
	fixedRho  perm.Perm
	fixedRoot int

	// state carried from the first to the second Merlin round
	rho    perm.Perm
	root   int
	advice []spantree.Advice
	g      *graph.Graph
}

func (p *symDMAMProver) Respond(round int, view *network.ProverView) (*network.Response, error) {
	switch round {
	case 0:
		return p.first(view)
	case 1:
		return p.second(view)
	default:
		return nil, fmt.Errorf("core: SymDMAM prover called for round %d", round)
	}
}

func (p *symDMAMProver) first(view *network.ProverView) (*network.Response, error) {
	s := p.proto
	g := view.Graph
	if g.N() != s.n {
		return nil, fmt.Errorf("core: graph has %d vertices, protocol built for %d", g.N(), s.n)
	}
	p.g = g

	// Automorphism search and spanning-tree construction are pure functions
	// of the graph's content, so both go through the per-graph setup cache:
	// repeated requests on one instance (the service's steady state) pay
	// for the refinement-backtracking search once.
	art := setupcache.ForGraph(g)
	if p.fixedRho != nil {
		p.rho = p.fixedRho
		p.root = p.fixedRoot
	} else {
		p.rho = art.Automorphism()
		if p.rho == nil {
			// The graph is asymmetric: Merlin cannot win. Commit to a
			// transposition so the protocol proceeds (and rejects).
			p.rho = perm.Identity(s.n)
			p.rho[0], p.rho[1] = 1, 0
		}
		p.root = p.rho.Moved()
	}

	advice, err := art.SpanTree(p.root)
	if err != nil {
		return nil, fmt.Errorf("core: SymDMAM prover tree: %w", err)
	}
	p.advice = advice

	resp := &network.Response{PerNode: make([]wire.Message, s.n)}
	for v := 0; v < s.n; v++ {
		resp.PerNode[v] = s.encodeFirst(symDMAMFirst{
			root: p.root,
			rho:  p.rho[v],
			tree: advice[v],
		})
	}
	return resp, nil
}

func (p *symDMAMProver) second(view *network.ProverView) (*network.Response, error) {
	s := p.proto
	i, err := s.decodeChallenge(view.Challenges[0][p.root])
	if err != nil {
		return nil, fmt.Errorf("core: SymDMAM prover challenge: %w", err)
	}
	a, b := subtreeHashSums(p.g, p.rho, p.advice, wordHasher(s.family, s.n, i))

	resp := &network.Response{PerNode: make([]wire.Message, s.n)}
	for v := 0; v < s.n; v++ {
		resp.PerNode[v] = s.encodeSecond(symDMAMSecond{echo: i, a: a[v], b: b[v]})
	}
	return resp, nil
}

// rowHasher evaluates a Sym protocol's per-node row hashes h_i([row, r])
// under one fixed seed i, in either residue type: uint64 for a one-word
// family (sym-dmam, dsym-dam), *big.Int for sym-dam's.
type rowHasher[T any] struct {
	hash func(row int, r *bitset.Set) T
	// add returns acc + b mod p; it may reuse acc's storage, so acc must
	// be a value the caller owns.
	add func(acc, b T) T
}

func wordHasher(f *hashing.LinearFamily, n int, i uint64) rowHasher[uint64] {
	return rowHasher[uint64]{
		hash: func(row int, r *bitset.Set) uint64 { return f.HashRowMatrix64(i, n, row, r) },
		add:  f.AddMod64,
	}
}

func bigHasher(f *hashing.LinearFamily, n int, i *big.Int) rowHasher[*big.Int] {
	return rowHasher[*big.Int]{
		hash: func(row int, r *bitset.Set) *big.Int { return f.HashRowMatrix(i, n, row, r) },
		add:  f.AddModInto,
	}
}

// subtreeHashSums computes, for every node v, the honest subtree aggregates
//
//	a_v = Σ_{u∈T_v} h_i([u, N(u)])
//	b_v = Σ_{u∈T_v} h_i([ρ(u), ρ(N(u))])
//
// in post-order over the tree described by advice. It is shared by the
// provers of Protocols 1 and 2 and the DSym protocol.
func subtreeHashSums[T any](g *graph.Graph, rho perm.Perm, advice []spantree.Advice, h rowHasher[T]) (a, b []T) {
	n := g.N()
	a = make([]T, n)
	b = make([]T, n)
	children := spantree.ChildLists(advice)
	closed := bitset.New(n)
	mapped := bitset.New(n)
	for _, v := range spantree.PostOrder(advice) {
		av := h.hash(v, g.ClosedRowInto(v, closed))
		closed.PermuteInto(mapped, rho)
		bv := h.hash(rho[v], mapped)
		for _, c := range children[v] {
			av = h.add(av, a[c])
			bv = h.add(bv, b[c])
		}
		a[v], b[v] = av, bv
	}
	return a, b
}

// Run executes the protocol on g against the given prover.
func (s *SymDMAM) Run(g *graph.Graph, prover network.Prover, seed int64) (*network.Result, error) {
	return network.Run(s.Spec(), g, nil, prover, network.Options{Seed: seed})
}
