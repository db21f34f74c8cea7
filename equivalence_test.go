package dip

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/peer"
)

// TestLegacyEntryPointsMatchRun is the facade's compatibility contract:
// every historical Prove* function must return a Report identical — field
// for field, per-round breakdown included — to dip.Run on the equivalent
// Request at the same seed. The table covers all eight protocol entry
// points, so any future divergence between a wrapper and the registry
// (changed defaults, reordered validation, different instance assembly)
// fails here before it reaches a release.
func TestLegacyEntryPointsMatchRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every protocol once")
	}

	cycle8 := edgesOf(graph.Cycle(8))
	ring24 := edgesOf(graph.Cycle(24))

	rng := rand.New(rand.NewSource(40))
	dumbbell := edgesOf(graph.DSymGraph(graph.ConnectedGNP(6, 0.5, rng), 1))

	// A rigid non-isomorphic pair for the GNI protocols.
	gniRng := rand.New(rand.NewSource(41))
	a, err := graph.RandomAsymmetricConnected(6, gniRng)
	if err != nil {
		t.Fatal(err)
	}
	var b *graph.Graph
	for {
		if b, err = graph.RandomAsymmetricConnected(6, gniRng); err != nil {
			t.Fatal(err)
		}
		if !graph.AreIsomorphic(a, b) {
			break
		}
	}
	edgesA, edgesB := edgesOf(a), edgesOf(b)

	// C6 vs K3,3: both symmetric, exercising the promise-free protocol.
	c6 := edgesOf(graph.Cycle(6))
	k33g := graph.New(6)
	for u := 0; u < 3; u++ {
		for v := 3; v < 6; v++ {
			k33g.AddEdge(u, v)
		}
	}
	k33 := edgesOf(k33g)

	// Marked formulation: a on 0..5 (mark 0), b on 6..11 (mark 1), hub 12.
	markedN := 13
	marks := make([]int, markedN)
	var markedEdges [][2]int
	for v := 0; v < 6; v++ {
		marks[v] = 0
		marks[v+6] = 1
	}
	marks[12] = -1
	markedEdges = append(markedEdges, edgesA...)
	for _, e := range edgesB {
		markedEdges = append(markedEdges, [2]int{e[0] + 6, e[1] + 6})
	}
	for v := 0; v < 12; v++ {
		markedEdges = append(markedEdges, [2]int{v, 12})
	}

	cases := []struct {
		name   string
		legacy func() (Report, error)
		req    Request
	}{
		{
			name:   "ProveSymmetry",
			legacy: func() (Report, error) { return ProveSymmetry(8, cycle8, Options{Seed: 101}) },
			req:    Request{Protocol: "sym-dmam", N: 8, Edges: cycle8, Options: Options{Seed: 101}},
		},
		{
			name:   "ProveSymmetryChallengeFirst",
			legacy: func() (Report, error) { return ProveSymmetryChallengeFirst(8, cycle8, Options{Seed: 102}) },
			req:    Request{Protocol: "sym-dam", N: 8, Edges: cycle8, Options: Options{Seed: 102}},
		},
		{
			name:   "ProveSymmetryNonInteractive",
			legacy: func() (Report, error) { return ProveSymmetryNonInteractive(8, cycle8, Options{Seed: 103}) },
			req:    Request{Protocol: "sym-lcp", N: 8, Edges: cycle8, Options: Options{Seed: 103}},
		},
		{
			name:   "ProveSymmetryFingerprinted",
			legacy: func() (Report, error) { return ProveSymmetryFingerprinted(24, ring24, Options{Seed: 104}) },
			req:    Request{Protocol: "sym-rpls", N: 24, Edges: ring24, Options: Options{Seed: 104}},
		},
		{
			name:   "ProveDumbbellSymmetry",
			legacy: func() (Report, error) { return ProveDumbbellSymmetry(6, 1, dumbbell, Options{Seed: 105}) },
			req:    Request{Protocol: "dsym-dam", Side: 6, Half: 1, Edges: dumbbell, Options: Options{Seed: 105}},
		},
		{
			name: "ProveNonIsomorphism",
			legacy: func() (Report, error) {
				return ProveNonIsomorphism(6, edgesA, edgesB, Options{Seed: 106, Repetitions: 6})
			},
			req: Request{Protocol: "gni-damam", N: 6, Edges: edgesA, Edges1: edgesB,
				Options: Options{Seed: 106, Repetitions: 6}},
		},
		{
			name: "ProveNonIsomorphismGeneral",
			legacy: func() (Report, error) {
				return ProveNonIsomorphismGeneral(6, c6, k33, Options{Seed: 107, Repetitions: 6})
			},
			req: Request{Protocol: "gni-general", N: 6, Edges: c6, Edges1: k33,
				Options: Options{Seed: 107, Repetitions: 6}},
		},
		{
			name: "ProveInducedNonIsomorphism",
			legacy: func() (Report, error) {
				return ProveInducedNonIsomorphism(markedN, markedEdges, marks, Options{Seed: 108, Repetitions: 6})
			},
			req: Request{Protocol: "gni-marked", N: markedN, Edges: markedEdges, Marks: marks,
				Options: Options{Seed: 108, Repetitions: 6}},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			legacy, lerr := tc.legacy()
			unified, uerr := Run(tc.req)
			if lerr != nil || uerr != nil {
				t.Fatalf("legacy err %v, Run err %v", lerr, uerr)
			}
			if legacy.Protocol != tc.req.Protocol {
				t.Fatalf("legacy report names protocol %q, want %q", legacy.Protocol, tc.req.Protocol)
			}
			if !reflect.DeepEqual(legacy, unified) {
				t.Fatalf("reports diverge at seed %d:\nlegacy  %+v\nunified %+v",
					tc.req.Options.Seed, legacy, unified)
			}
			// Same seed, same request: the run must also be deterministic,
			// or the equality above would be meaningless.
			again, err := Run(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(unified, again) {
				t.Fatalf("Run is not deterministic for %s at seed %d", tc.req.Protocol, tc.req.Options.Seed)
			}
		})
	}
}

// fleetTestRequests builds one request per registry protocol — every
// family, every instance shape (single graph, GNI pair, dumbbell, marked)
// — for the fleet equivalence column.
func fleetTestRequests(t *testing.T) []Request {
	t.Helper()
	cycle8 := edgesOf(graph.Cycle(8))
	ring24 := edgesOf(graph.Cycle(24))

	rng := rand.New(rand.NewSource(40))
	dumbbell := edgesOf(graph.DSymGraph(graph.ConnectedGNP(6, 0.5, rng), 1))

	gniRng := rand.New(rand.NewSource(41))
	a, err := graph.RandomAsymmetricConnected(6, gniRng)
	if err != nil {
		t.Fatal(err)
	}
	var b *graph.Graph
	for {
		if b, err = graph.RandomAsymmetricConnected(6, gniRng); err != nil {
			t.Fatal(err)
		}
		if !graph.AreIsomorphic(a, b) {
			break
		}
	}
	edgesA, edgesB := edgesOf(a), edgesOf(b)

	c6 := edgesOf(graph.Cycle(6))
	k33g := graph.New(6)
	for u := 0; u < 3; u++ {
		for v := 3; v < 6; v++ {
			k33g.AddEdge(u, v)
		}
	}
	k33 := edgesOf(k33g)

	markedN := 13
	marks := make([]int, markedN)
	var markedEdges [][2]int
	for v := 0; v < 6; v++ {
		marks[v] = 0
		marks[v+6] = 1
	}
	marks[12] = -1
	markedEdges = append(markedEdges, edgesA...)
	for _, e := range edgesB {
		markedEdges = append(markedEdges, [2]int{e[0] + 6, e[1] + 6})
	}
	for v := 0; v < 12; v++ {
		markedEdges = append(markedEdges, [2]int{v, 12})
	}

	return []Request{
		{Protocol: "sym-dmam", N: 8, Edges: cycle8, Options: Options{Seed: 201}},
		{Protocol: "sym-dam", N: 8, Edges: cycle8, Options: Options{Seed: 202}},
		{Protocol: "sym-lcp", N: 8, Edges: cycle8, Options: Options{Seed: 203}},
		{Protocol: "sym-rpls", N: 24, Edges: ring24, Options: Options{Seed: 204}},
		{Protocol: "dsym-dam", Side: 6, Half: 1, Edges: dumbbell, Options: Options{Seed: 205}},
		{Protocol: "gni-damam", N: 6, Edges: edgesA, Edges1: edgesB,
			Options: Options{Seed: 206, Repetitions: 6}},
		{Protocol: "gni-general", N: 6, Edges: c6, Edges1: k33,
			Options: Options{Seed: 207, Repetitions: 6}},
		{Protocol: "gni-lcp", N: 6, Edges: edgesA, Edges1: edgesB,
			Options: Options{Seed: 208}},
		{Protocol: "gni-marked", N: markedN, Edges: markedEdges, Marks: marks,
			Options: Options{Seed: 209, Repetitions: 6}},
	}
}

// startDipPeers boots k in-process peer servers with the exact
// SpecBuilder cmd/dippeer installs — unmarshal a Request, rebuild via
// BuildSpec — and returns their addresses.
func startDipPeers(t *testing.T, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &peer.Server{Build: func(params []byte) (*network.Spec, error) {
			var req Request
			if err := json.Unmarshal(params, &req); err != nil {
				return nil, err
			}
			return BuildSpec(req)
		}}
		go srv.Serve(l)
		t.Cleanup(func() {
			l.Close()
			srv.Close()
		})
		addrs[i] = l.Addr().String()
	}
	return addrs
}

// TestFleetMatchesRun is the fleet column of the equivalence contract:
// every registry protocol, executed through dip.Fleet onto real TCP peer
// processes — all of them concurrently, multiplexed over one standing
// fleet — must produce a Report identical to dip.Run on the same request.
func TestFleetMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every protocol twice")
	}
	reqs := fleetTestRequests(t)
	fleet, err := DialFleet(startDipPeers(t, 3), FleetOptions{IOTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	type outcome struct {
		fleet *Report
		err   error
	}
	outcomes := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			rep, err := fleet.Run(context.Background(), req)
			outcomes[i] = outcome{fleet: rep, err: err}
		}(i, req)
	}
	wg.Wait()

	for i, req := range reqs {
		t.Run(req.Protocol, func(t *testing.T) {
			if outcomes[i].err != nil {
				t.Fatalf("fleet run: %v", outcomes[i].err)
			}
			local, err := Run(req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*outcomes[i].fleet, local) {
				t.Fatalf("fleet report diverges from dip.Run:\nfleet %+v\nlocal %+v",
					*outcomes[i].fleet, local)
			}
		})
	}
}

// TestFleetUnderChaos is the fleet-under-chaos matrix cell: the soundness
// gates must hold on the real TCP path with socket-level faults injected.
// Under pure delay every run completes bit-identical to dip.Run (latency
// cannot change bytes). Under drop a run either completes — again
// bit-identical — or fails with a structured transport error; in
// particular a no-instance never turns into an accept, because a
// partition starves a session rather than forging frames.
func TestFleetUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix over the TCP path")
	}
	yes := Request{Protocol: "sym-dmam", N: 8, Edges: edgesOf(graph.Cycle(8)),
		Options: Options{Seed: 301}}
	rng := rand.New(rand.NewSource(302))
	asym, err := graph.RandomAsymmetricConnected(7, rng)
	if err != nil {
		t.Fatal(err)
	}
	no := Request{Protocol: "sym-dmam", N: 7, Edges: edgesOf(asym),
		Options: Options{Seed: 303}}
	reqs := []Request{yes, no, yes, no}

	baselines := make([]Report, len(reqs))
	for i, req := range reqs {
		if baselines[i], err = Run(req); err != nil {
			t.Fatal(err)
		}
	}
	if !baselines[0].Accepted || baselines[1].Accepted {
		t.Fatalf("baseline outcomes inverted: yes=%v no=%v", baselines[0].Accepted, baselines[1].Accepted)
	}

	t.Run("delay", func(t *testing.T) {
		fleet, err := DialFleet(startDipPeers(t, 2), FleetOptions{
			IOTimeout:  30 * time.Second,
			LinkFaults: &LinkFaults{Seed: 7, Delay: time.Millisecond, DelayProb: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		for i, req := range reqs {
			rep, err := fleet.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("delayed run %d: %v", i, err)
			}
			if !reflect.DeepEqual(*rep, baselines[i]) {
				t.Fatalf("delay changed the bytes of run %d", i)
			}
		}
	})

	t.Run("drop", func(t *testing.T) {
		fleet, err := DialFleet(startDipPeers(t, 2), FleetOptions{
			IOTimeout:  400 * time.Millisecond,
			LinkFaults: &LinkFaults{Seed: 11, DropProb: 0.25},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		failed := 0
		for i, req := range reqs {
			rep, err := fleet.Run(context.Background(), req)
			if err != nil {
				var rerr *network.RunError
				if !errors.As(err, &rerr) || rerr.Phase != network.PhaseTransport {
					t.Fatalf("lossy run %d failed unstructurally: %v", i, err)
				}
				failed++
				continue
			}
			if !reflect.DeepEqual(*rep, baselines[i]) {
				t.Fatalf("lossy run %d completed with different bytes", i)
			}
		}
		t.Logf("drop cell: %d/%d runs starved into transport errors", failed, len(reqs))
	})
}

// TestFleetRunValidation pins the error surface of the public API: bad
// requests fail before any session is minted, and a closed fleet fails
// with a structured transport error rather than a hang.
func TestFleetRunValidation(t *testing.T) {
	fleet, err := DialFleet(startDipPeers(t, 1), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var reqErr *RequestError
	if _, err := fleet.Run(context.Background(), Request{Protocol: "no-such"}); !errors.As(err, &reqErr) {
		t.Fatalf("unknown protocol: err = %v, want *RequestError", err)
	}
	if err := fleet.Ready(); err != nil {
		t.Fatalf("Ready on a live fleet: %v", err)
	}
	fleet.Close()
	_, err = fleet.Run(context.Background(),
		Request{Protocol: "sym-dmam", N: 4, Edges: edgesOf(graph.Cycle(4)), Options: Options{Seed: 1}})
	var rerr *network.RunError
	if !errors.As(err, &rerr) || rerr.Phase != network.PhaseTransport {
		t.Fatalf("run on closed fleet: err = %v, want PhaseTransport RunError", err)
	}
}

// TestDialFleetRejectsNaNLinkFaults pins the public projection of the
// peer option checks: a NaN link-fault probability — which would
// otherwise silently disable the fault — is refused at dial time, before
// any connection opens or run starts.
func TestDialFleetRejectsNaNLinkFaults(t *testing.T) {
	addrs := startDipPeers(t, 1)
	for _, lf := range []*LinkFaults{
		{Seed: 1, Delay: time.Millisecond, DelayProb: math.NaN()},
		{Seed: 1, DropProb: math.NaN()},
	} {
		fleet, err := DialFleet(addrs, FleetOptions{LinkFaults: lf})
		if err == nil {
			fleet.Close()
			t.Fatalf("DialFleet accepted LinkFaults %+v", *lf)
		}
		if !strings.Contains(err.Error(), "outside [0,1]") {
			t.Fatalf("DialFleet(%+v) = %v, want an out-of-range probability error", *lf, err)
		}
	}
}
