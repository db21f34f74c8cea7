package network

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dip/internal/graph"
	"dip/internal/wire"
)

// resultsIdentical fails the test unless a and b agree on acceptance,
// per-node decisions, every cost counter, and (when recorded) every
// transcript message bit-for-bit.
func resultsIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Accepted != b.Accepted {
		t.Fatalf("%s: Accepted %v vs %v", label, a.Accepted, b.Accepted)
	}
	if len(a.Decisions) != len(b.Decisions) {
		t.Fatalf("%s: decision counts differ", label)
	}
	for v := range a.Decisions {
		if a.Decisions[v] != b.Decisions[v] {
			t.Fatalf("%s: node %d decision %v vs %v", label, v, a.Decisions[v], b.Decisions[v])
		}
	}
	costSlices := [][2][]int{
		{a.Cost.ToProver, b.Cost.ToProver},
		{a.Cost.FromProver, b.Cost.FromProver},
		{a.Cost.NodeToNode, b.Cost.NodeToNode},
	}
	for i, pair := range costSlices {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: cost slice %d lengths differ", label, i)
		}
		for v := range pair[0] {
			if pair[0][v] != pair[1][v] {
				t.Fatalf("%s: cost slice %d node %d: %d vs %d",
					label, i, v, pair[0][v], pair[1][v])
			}
		}
	}
	if (a.Transcript == nil) != (b.Transcript == nil) {
		t.Fatalf("%s: transcript presence differs", label)
	}
	if a.Transcript == nil {
		return
	}
	ta, tb := a.Transcript, b.Transcript
	if len(ta.Rounds) != len(tb.Rounds) {
		t.Fatalf("%s: transcript round counts %d vs %d", label, len(ta.Rounds), len(tb.Rounds))
	}
	for r := range ta.Rounds {
		ra, rb := ta.Rounds[r], tb.Rounds[r]
		if ra.Kind != rb.Kind || len(ra.PerNode) != len(rb.PerNode) {
			t.Fatalf("%s: transcript round %d shape differs", label, r)
		}
		for v := range ra.PerNode {
			ma, mb := ra.PerNode[v], rb.PerNode[v]
			if ma.Bits != mb.Bits {
				t.Fatalf("%s: round %d node %d bits %d vs %d", label, r, v, ma.Bits, mb.Bits)
			}
			for i := range ma.Data {
				if ma.Data[i] != mb.Data[i] {
					t.Fatalf("%s: round %d node %d byte %d differs", label, r, v, i)
				}
			}
		}
	}
}

// digestSpec exercises the Digest hook and multi-round RNG consumption.
func digestSpec() *Spec {
	return &Spec{
		Name: "seq-digest",
		Rounds: []Round{
			challengeRound(16),
			{Kind: Merlin, Digest: func(v int, rng *rand.Rand, m wire.Message) wire.Message {
				var w wire.Writer
				w.WriteUint(rng.Uint64()&0xFF, 8)
				return w.Message()
			}},
			challengeRound(8),
			{Kind: Merlin},
		},
		Decide: func(v int, view *NodeView) bool {
			return len(view.Responses) == 2 &&
				len(view.NeighborResponses[0]) == len(view.Neighbors)
		},
	}
}

// TestSequentialMatchesConcurrent runs a mix of specs, graphs, provers, and
// options one run at a time and then as many overlapping runs, and requires
// bit-identical results. The overlapping runs share each Spec, prover and
// corruptor and draw engine state from the shared pool; they alternate
// between the sequential executor and the networked one (over a fresh
// loopTransport each), so neither executor may leak state between runs.
func TestSequentialMatchesConcurrent(t *testing.T) {
	corrupt := func(round, node int, m wire.Message) wire.Message {
		if node%3 != 1 || m.Bits == 0 {
			return m
		}
		out := wire.Message{Data: append([]byte(nil), m.Data...), Bits: m.Bits}
		out.Data[0] ^= 0x80
		return out
	}
	shareSpec := &Spec{
		Name:            "seq-share",
		ShareChallenges: true,
		Rounds:          []Round{challengeRound(8), {Kind: Merlin}},
		Decide: func(v int, view *NodeView) bool {
			return len(view.NeighborChallenges[0]) == len(view.Neighbors)
		},
	}
	cases := []struct {
		name   string
		spec   *Spec
		g      *graph.Graph
		prover Prover
		opts   Options
	}{
		{"echo-cycle", echoSpec(16), graph.Cycle(9), echoProver{}, Options{Seed: 1}},
		{"echo-complete", echoSpec(32), graph.Complete(7), echoProver{}, Options{Seed: 2}},
		{"echo-path-transcript", echoSpec(24), graph.Path(6), echoProver{},
			Options{Seed: 3, RecordTranscript: true}},
		{"lying", echoSpec(16), graph.Cycle(5), lyingProver{}, Options{Seed: 4}},
		{"broadcast-liar", broadcastSpec(), graph.Path(5), broadcastProver{liar: 2}, Options{Seed: 5}},
		{"corrupted", echoSpec(16), graph.Cycle(6), echoProver{},
			Options{Seed: 6, Corrupt: corrupt, RecordTranscript: true}},
		{"share-challenges", shareSpec, graph.Path(4), echoProver{}, Options{Seed: 7}},
		{"digest-amam", digestSpec(), graph.Cycle(8), echoProver{},
			Options{Seed: 8, RecordTranscript: true}},
		{"single-node", echoSpec(8), graph.New(1), echoProver{}, Options{Seed: 9}},
	}
	const seeds, workers = 3, 4
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Parallel subtests make runs of different cases overlap too.
			t.Parallel()
			want := make([]*Result, seeds)
			for s := range want {
				opts := tc.opts
				opts.Seed += int64(s) * 1000
				res, err := Run(tc.spec, tc.g, nil, tc.prover, opts)
				if err != nil {
					t.Fatal(err)
				}
				want[s] = res
			}
			got := make([][]*Result, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				got[w] = make([]*Result, seeds)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for s := 0; s < seeds; s++ {
						opts := tc.opts
						opts.Seed += int64(s) * 1000
						if w%2 == 1 {
							opts.Transport = &loopTransport{}
						}
						res, err := Run(tc.spec, tc.g, nil, tc.prover, opts)
						if err != nil {
							errs[w] = err
							return
						}
						got[w][s] = res
					}
				}(w)
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				if errs[w] != nil {
					t.Fatalf("worker %d: %v", w, errs[w])
				}
				for s := 0; s < seeds; s++ {
					resultsIdentical(t, fmt.Sprintf("%s/worker%d/seed%d", tc.name, w, s),
						want[s], got[w][s])
				}
			}
		})
	}
}

// TestSequentialProverErrors pins the wrong-shape response error on the
// default (sequential) executor.
func TestSequentialProverErrors(t *testing.T) {
	g := graph.Path(3)
	spec := &Spec{
		Name:   "seq-err",
		Rounds: []Round{{Kind: Merlin}},
		Decide: func(int, *NodeView) bool { return true },
	}
	wrongShape := proverFunc(func(int, *ProverView) (*Response, error) {
		return &Response{PerNode: make([]wire.Message, 1)}, nil
	})
	if _, err := Run(spec, g, nil, wrongShape, Options{}); err == nil {
		t.Fatal("wrong-shape response accepted by sequential executor")
	}
}

// mutatingProver echoes correctly but vandalizes the shared graph through
// its view, violating the ProverView.Graph read-only contract. The engine
// snapshot must keep routing and decisions unaffected within the run.
type mutatingProver struct{}

func (mutatingProver) Respond(_ int, view *ProverView) (*Response, error) {
	n := view.Graph.N()
	for v := 1; v < n; v++ {
		view.Graph.RemoveEdge(0, v)
	}
	for v := 1; v < n; v++ {
		if !view.Graph.HasEdge(0, v) && v > 1 {
			view.Graph.AddEdge(0, v)
		}
	}
	last := view.Challenges[len(view.Challenges)-1]
	resp := &Response{PerNode: make([]wire.Message, len(last))}
	copy(resp.PerNode, last)
	return resp, nil
}

// TestProverMutationCannotAffectDecisions runs the echo protocol with a
// prover that rewires the graph mid-run, under both executors: every node
// must still receive its echo over the original topology and accept, with
// costs identical to an honest run on the pristine graph.
func TestProverMutationCannotAffectDecisions(t *testing.T) {
	engineModes(t, func(t *testing.T, opts Options) {
		opts.Seed = 21
		honest, err := Run(echoSpec(16), graph.Cycle(8), nil, echoProver{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.Cycle(8)
		mutated, err := Run(echoSpec(16), g, nil, mutatingProver{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !mutated.Accepted {
			t.Fatalf("mutating prover changed decisions: %v", mutated.Decisions)
		}
		resultsIdentical(t, "mutation-immunity", honest, mutated)
	})
}
