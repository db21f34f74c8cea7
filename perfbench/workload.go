package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"dip"
	"dip/internal/graph"
)

// Instance sizes of the workloads. cycleN is the cheapest real request
// (O(log n) bits, one cached graph). The mix pool is 4× the 64-entry graph
// cache and 2× the 128-entry artifact cache, so the setup layer misses.
const (
	cycleN       = 64
	mixN         = 34
	mixPoolSize  = 256
	mixCoreNodes = (mixN - 2) / 2
)

// mixProtocols are served round-robin by run-doubled-mix: the paper's
// 3-round O(log n) dMAM, its 2-round big-field dAM, and the two 1-round
// Θ(n²) labeling schemes.
var mixProtocols = []string{"sym-dmam", "sym-dam", "sym-rpls", "sym-lcp"}

// workload is one traffic mix the benchmark can run. Why each exists is
// recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// fleet serves the stream through dipserve -peers over fleetPeers
	// loopback dippeer processes instead of in-process.
	fleet bool
	// jobs submits the stream to POST /v1/jobs on a journaled dipserve
	// and polls every job to completion instead of POST /v1/run.
	jobs bool
	// mix selects the doubled-graph pool stream; otherwise the cycle
	// stream.
	mix bool
}

// fleetPeers is the number of dippeer processes behind fleet-cycle64.
const fleetPeers = 2

var workloads = []workload{
	{name: "run-cycle64"},
	{name: "fleet-cycle64", fleet: true},
	{name: "run-doubled-mix", mix: true},
	{name: "jobs-journal", jobs: true},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stream is a workload's request sequence: body(k) is a pure function of
// the workload seed and k, so the same seed gives the same bodies, and
// fleet-cycle64 and jobs-journal replay run-cycle64's stream byte for
// byte. Bodies are a pre-encoded dip.Request up to its seed value plus the
// per-request seed, so generating one costs no JSON encoding.
type stream struct {
	seed int64
	// prefixes[i] is request template i, encoded up to the seed digits.
	prefixes [][]byte
	// mix picks a pool graph and a round-robin protocol per request;
	// otherwise every request uses template 0.
	mix bool
}

func newStream(w *workload, seed int64) (*stream, error) {
	if !w.mix {
		prefix, err := templatePrefix(dip.Request{Protocol: "sym-dmam", N: cycleN, Edges: graph.Cycle(cycleN).Edges()})
		if err != nil {
			return nil, err
		}
		return &stream{seed: seed, prefixes: [][]byte{prefix}}, nil
	}
	pool, err := doubledPool(seed)
	if err != nil {
		return nil, err
	}
	s := &stream{seed: seed, mix: true}
	for _, g := range pool {
		for _, proto := range mixProtocols {
			prefix, err := templatePrefix(dip.Request{Protocol: proto, N: g.N(), Edges: g.Edges()})
			if err != nil {
				return nil, err
			}
			s.prefixes = append(s.prefixes, prefix)
		}
	}
	return s, nil
}

// seedTail is how encoding/json ends a request whose seed is 0 and whose
// other options are unset; a template is the encoding without its "0}}".
const seedTail = `"options":{"seed":0}}`

func templatePrefix(req dip.Request) ([]byte, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if !bytes.HasSuffix(data, []byte(seedTail)) {
		return nil, fmt.Errorf("request encoding %q does not end in %s", data, seedTail)
	}
	return data[:len(data)-len("0}}")], nil
}

// mix64 is the splitmix64 finalizer: it spreads (seed, k, salt) over the
// whole 64-bit range so neighbouring k give unrelated seeds and picks.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive returns the value of stream position k under salt, as a
// non-negative int64.
func derive(seed int64, k int, salt uint64) int64 {
	return int64(mix64(uint64(seed)^mix64(uint64(k)^salt<<56)) >> 2)
}

const (
	saltSeed  = 1
	saltGraph = 2
)

// requestSeed is Options.Seed of request k.
func (s *stream) requestSeed(k int) int64 { return derive(s.seed, k, saltSeed) }

// template is the index of request k's template.
func (s *stream) template(k int) int {
	if !s.mix {
		return 0
	}
	g := int(derive(s.seed, k, saltGraph) % mixPoolSize)
	return g*len(mixProtocols) + k%len(mixProtocols)
}

// body is the JSON body of request k.
func (s *stream) body(k int) []byte {
	p := s.prefixes[s.template(k)]
	out := make([]byte, 0, len(p)+24)
	out = append(out, p...)
	out = strconv.AppendInt(out, s.requestSeed(k), 10)
	return append(out, "}}"...)
}

// doubledPool builds run-doubled-mix's instances: mixPoolSize distinct,
// randomly relabelled doubled graphs on mixN vertices. Every one is
// symmetric (the doubling adds the copy swap) and connected.
func doubledPool(seed int64) ([]*graph.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64][]*graph.Graph)
	pool := make([]*graph.Graph, 0, mixPoolSize)
	for len(pool) < mixPoolSize {
		core, err := graph.RandomAsymmetricConnected(mixCoreNodes, rng)
		if err != nil {
			return nil, err
		}
		g, _ := graph.Doubled(core, 0).Shuffle(rng)
		h := g.ContentHash()
		dup := false
		for _, other := range seen[h] {
			dup = dup || other.Equal(g)
		}
		if dup {
			continue
		}
		seen[h] = append(seen[h], g)
		pool = append(pool, g)
	}
	return pool, nil
}
