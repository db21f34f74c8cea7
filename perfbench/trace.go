package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"dip"
	"dip/internal/core"
	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/wire"
)

// spanName names the layer call a span times. Spans hold no pointers,
// so the garbage collector never scans the large span buffer of a replay.
type spanName uint8

const (
	spanRequest spanName = iota
	spanDecode
	spanGraph
	spanProtocol
	spanEngine
	spanProver
	spanVerifier
	spanPeerBegin
	spanPeerStep
	spanEncode
	spanPublish
)

// spanNames and layerMetric map each spanName to its written name and to
// the per-layer self-time metric it feeds. The root span's self time is
// the glue between layers: unattributed.
var (
	spanNames = [...]string{
		spanRequest: "request", spanDecode: "dipserve.decode", spanGraph: "setup.graph",
		spanProtocol: "setup.protocol", spanEngine: "engine", spanProver: "prover.respond",
		spanVerifier: "verifier.node", spanPeerBegin: "peer.begin", spanPeerStep: "peer.step",
		spanEncode: "dipserve.encode", spanPublish: "jobs.publish",
	}
	layerMetric = [...]string{
		spanDecode: "dipserve.decode_us", spanGraph: "setup.graph_us",
		spanProtocol: "setup.protocol_us", spanEngine: "engine.self_us",
		spanProver: "prover.respond_us", spanVerifier: "verifier.node_us",
		spanPeerBegin: "peer.begin_us", spanPeerStep: "peer.step_wait_us",
		spanEncode: "dipserve.encode_us", spanPublish: "",
	}
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer's origin; Parent indexes the enclosing span (-1 for a
// root); Req identifies the request the span served.
type span struct {
	Name       spanName
	Req        int32
	Parent     int32
	Start, End int64
}

// tracer keeps spans in memory. With on false, begin and end do nothing,
// which is the untraced replay trace.overhead_pct compares against.
type tracer struct {
	on     bool
	origin time.Time
	req    int32
	spans  []span
	open   []int32
}

func (t *tracer) begin(name spanName) int {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Req: t.req, Parent: parent, Start: int64(time.Since(t.origin))})
	i := len(t.spans) - 1
	t.open = append(t.open, int32(i))
	return i
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once, and a child's time outside its parent counts for nothing).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, in := range iv {
			lo := max(in[0], reach)
			if in[1] > lo {
				covered += in[1] - lo
				reach = in[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// tracedProver times every Respond call; with record set it also keeps a
// copy of every prover message, for the wire codec row.
type tracedProver struct {
	p      network.Prover
	t      *tracer
	record *[]wire.Message
}

func (tp *tracedProver) Respond(round int, view *network.ProverView) (*network.Response, error) {
	i := tp.t.begin(spanProver)
	resp, err := tp.p.Respond(round, view)
	tp.t.end(i)
	if err == nil && tp.record != nil {
		for _, m := range resp.PerNode {
			*tp.record = append(*tp.record, wire.Message{Data: append([]byte(nil), m.Data...), Bits: m.Bits})
		}
	}
	return resp, err
}

// tracedTransport times the fleet wire: Begin provisions the peers, and
// every step call sends to or waits on them.
type tracedTransport struct {
	tr network.Transport
	t  *tracer
}

func (x *tracedTransport) Begin(run *network.TransportRun) *network.RunError {
	i := x.t.begin(spanPeerBegin)
	defer x.t.end(i)
	return x.tr.Begin(run)
}

func (x *tracedTransport) RecvChallenge(ri int) (int, wire.Message, *network.RunError) {
	i := x.t.begin(spanPeerStep)
	defer x.t.end(i)
	return x.tr.RecvChallenge(ri)
}

func (x *tracedTransport) SendResponse(ri, node int, m wire.Message) *network.RunError {
	i := x.t.begin(spanPeerStep)
	defer x.t.end(i)
	return x.tr.SendResponse(ri, node, m)
}

func (x *tracedTransport) RecvForward(ri int) (int, wire.Message, *network.RunError) {
	i := x.t.begin(spanPeerStep)
	defer x.t.end(i)
	return x.tr.RecvForward(ri)
}

func (x *tracedTransport) SendExchange(ri, from, to int, chal bool, m wire.Message) *network.RunError {
	i := x.t.begin(spanPeerStep)
	defer x.t.end(i)
	return x.tr.SendExchange(ri, from, to, chal, m)
}

func (x *tracedTransport) RecvDecision() (int, bool, *network.RunError) {
	i := x.t.begin(spanPeerStep)
	defer x.t.end(i)
	return x.tr.RecvDecision()
}

func (x *tracedTransport) End(failure *network.RunError) {
	i := x.t.begin(spanPeerStep)
	defer x.t.end(i)
	x.tr.End(failure)
}

// verifierSpec wraps the node-side callbacks of spec — challenges,
// digests and decisions, where the verifiers hash — in verifier.node
// spans, so engine.self_us is the executor, funnel and state pool alone.
// Under a fleet the peers run these callbacks and no span is recorded.
func verifierSpec(spec *network.Spec, t *tracer) *network.Spec {
	out := *spec
	out.Rounds = append([]network.Round(nil), spec.Rounds...)
	for i := range out.Rounds {
		r := &out.Rounds[i]
		if challenge := r.Challenge; challenge != nil {
			r.Challenge = func(v int, rng *rand.Rand, view *network.NodeView) wire.Message {
				i := t.begin(spanVerifier)
				defer t.end(i)
				return challenge(v, rng, view)
			}
		}
		if digest := r.Digest; digest != nil {
			r.Digest = func(v int, rng *rand.Rand, m wire.Message) wire.Message {
				i := t.begin(spanVerifier)
				defer t.end(i)
				return digest(v, rng, m)
			}
		}
	}
	decide := spec.Decide
	out.Decide = func(v int, view *network.NodeView) bool {
		i := t.begin(spanVerifier)
		defer t.end(i)
		return decide(v, view)
	}
	return &out
}

// construct builds the protocol a Sym request names, as dip.Run does but
// without the protocol cache: the prime search runs every time.
func construct(req *dip.Request) (*network.Spec, network.Prover, error) {
	switch req.Protocol {
	case "sym-dmam":
		p, err := core.NewSymDMAM(req.N, req.Options.Seed)
		if err != nil {
			return nil, nil, err
		}
		return p.Spec(), p.HonestProver(), nil
	case "sym-dam":
		p, err := core.NewSymDAM(req.N, req.Options.Seed)
		if err != nil {
			return nil, nil, err
		}
		return p.Spec(), p.HonestProver(), nil
	case "sym-rpls":
		p, err := core.NewSymRPLS(req.N, req.Options.Seed)
		if err != nil {
			return nil, nil, err
		}
		return p.Spec(), p.HonestProver(), nil
	case "sym-lcp":
		p, err := core.NewSymLCP(req.N)
		if err != nil {
			return nil, nil, err
		}
		return p.Spec(), p.HonestProver(), nil
	}
	return nil, nil, fmt.Errorf("protocol %q is not in any workload", req.Protocol)
}

// buildGraph validates an edge list and builds the graph, as dip.Run does
// before its graph cache.
func buildGraph(n int, edges [][2]int) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph needs at least one vertex, got %d", n)
	}
	g := graph.New(n)
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n || e[0] == e[1] {
			return nil, fmt.Errorf("bad edge %v for %d vertices", e, n)
		}
		g.AddEdge(e[0], e[1])
	}
	return g, nil
}

// composer replays requests through the request path composed from the
// layers' public functions, the way cmd/dipsim drives the engine: decode,
// graph, protocol constructor, engine run, report shaping and encode.
type composer struct {
	t     *tracer
	fleet *dip.Fleet
	// record, when set, collects every prover message.
	record *[]wire.Message
}

// serve answers one request body; id tags its spans.
func (c *composer) serve(id int, body []byte) ([]byte, error) {
	t := c.t
	t.req = int32(id)
	root := t.begin(spanRequest)
	defer t.end(root)

	i := t.begin(spanDecode)
	var req dip.Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	t.end(i)
	if err != nil {
		return nil, err
	}

	i = t.begin(spanGraph)
	g, err := buildGraph(req.N, req.Edges)
	t.end(i)
	if err != nil {
		return nil, err
	}

	i = t.begin(spanProtocol)
	spec, prover, err := construct(&req)
	t.end(i)
	if err != nil {
		return nil, err
	}

	spec = verifierSpec(spec, t)
	opts := network.Options{Seed: req.Options.Seed}
	if c.fleet != nil {
		i = t.begin(spanPeerBegin)
		tr, err := c.fleet.EngineTransport(req)
		t.end(i)
		if err != nil {
			return nil, err
		}
		opts.Transport = &tracedTransport{tr: tr, t: t}
	}
	i = t.begin(spanEngine)
	res, err := network.RunContext(context.Background(), spec, g, nil, &tracedProver{p: prover, t: t, record: c.record}, opts)
	t.end(i)
	if err != nil {
		return nil, err
	}

	i = t.begin(spanEncode)
	var buf bytes.Buffer
	err = dip.WireReportFrom(dip.ReportFromResult(req.Protocol, res), req.Options.Seed).Encode(&buf)
	t.end(i)
	return buf.Bytes(), err
}

// unattributedTolerance is the reconciliation bound: the layer self
// times must add up to the traced request total but for at most this
// share, the glue between spans.
const unattributedTolerance = 0.05

// replayPlan sizes the traced replay: sample requests, each replayed once
// untimed, then pairs times traced and pairs times untraced.
type replayPlan struct {
	sample int
	pairs  int
}

func planFor(w *workload) replayPlan {
	if w.fleet {
		return replayPlan{sample: 96, pairs: 3}
	}
	if w.mix {
		return replayPlan{sample: 128, pairs: 3}
	}
	return replayPlan{sample: 512, pairs: 5}
}

// traceResult is the traced replay's per-layer ledger.
type traceResult struct {
	metrics map[string]float64
	spans   []span
	// sample is how many requests each pass replayed.
	sample int
}

// replay runs the traced replay of a workload's stream in this process.
// The composed path must answer byte-identically to dip.Run for every
// sampled request; a difference is counted against the run.
func replay(w *workload, st *stream, peerAddrs []string, journalDir string, c *checker) (*traceResult, error) {
	plan := planFor(w)
	var fleet *dip.Fleet
	if w.fleet {
		var err error
		if fleet, err = dip.DialFleet(peerAddrs, dip.FleetOptions{}); err != nil {
			return nil, err
		}
		defer fleet.Close()
	}
	// The window's replies are garbage now; collect them before timing.
	runtime.GC()
	bodies := make([][]byte, plan.sample)
	for k := range bodies {
		bodies[k] = st.body(k)
	}

	// Warm pass: untimed, checked against dip.Run, recording the prover
	// messages for the wire codec row.
	var msgs []wire.Message
	warm := &composer{t: &tracer{}, fleet: fleet, record: &msgs}
	for k, body := range bodies {
		got, err := warm.serve(k, body)
		if err != nil {
			return nil, fmt.Errorf("composed request %d: %w", k, err)
		}
		want, err := reference(st, k)
		if err != nil {
			return nil, fmt.Errorf("dip.Run request %d: %w", k, err)
		}
		if !bytes.Equal(got, want) {
			c.fail("traced replay: composed report for request %d differs from dip.Run", k)
		}
	}

	// Each request is served once traced and once untraced, in an order
	// that alternates, so drift on the box cancels out of the overhead.
	traced := &tracer{on: true, origin: time.Now(), spans: make([]span, 0, 1<<18)}
	withSpans := &composer{t: traced, fleet: fleet}
	without := &composer{t: &tracer{}, fleet: fleet}
	var tracedTime, plainTime time.Duration
	for p := 0; p < plan.pairs; p++ {
		for k, body := range bodies {
			first, second := withSpans, without
			if (k+p)%2 == 1 {
				first, second = without, withSpans
			}
			for _, comp := range []*composer{first, second} {
				start := time.Now()
				if _, err := comp.serve(p*plan.sample+k, body); err != nil {
					return nil, err
				}
				if comp == withSpans {
					tracedTime += time.Since(start)
				} else {
					plainTime += time.Since(start)
				}
			}
		}
	}

	requests := float64(plan.sample * plan.pairs)
	out := map[string]float64{}
	for _, name := range layerMetric {
		if name != "" {
			out[name] = 0
		}
	}
	self := selfTimes(traced.spans)
	var rootTotal, rootSelf, layerSum int64
	for i, s := range traced.spans {
		if s.Name == spanRequest {
			rootTotal += s.End - s.Start
			rootSelf += self[i]
			continue
		}
		out[layerMetric[s.Name]] += float64(self[i]) / 1e3 / requests
		layerSum += self[i]
	}
	if layerSum+rootSelf != rootTotal {
		c.fail("reconciliation: self times sum to %d ns, request spans to %d ns", layerSum+rootSelf, rootTotal)
	}
	unattributed := float64(rootSelf) / float64(rootTotal)
	if unattributed > unattributedTolerance {
		c.fail("reconciliation: %.1f%% of the traced request total is outside every layer span (tolerance %.0f%%)",
			100*unattributed, 100*unattributedTolerance)
	}
	out["trace.request_us"] = float64(rootTotal) / 1e3 / requests
	out["trace.unattributed_pct"] = 100 * unattributed
	out["trace.overhead_pct"] = 100 * (float64(tracedTime)/float64(plainTime) - 1)

	pub, pubSpans, err := publishRow(bodies, journalDir, traced.origin)
	if err != nil {
		return nil, err
	}
	out["jobs.publish_us"] = pub
	hash, err := rowHashRow(st, plan.sample)
	if err != nil {
		return nil, err
	}
	out["hashing.row_hash_us"] = hash
	codec, err := codecRow(msgs)
	if err != nil {
		return nil, err
	}
	out["wire.codec_ns_per_kbit"] = codec
	return &traceResult{metrics: out, spans: append(traced.spans, pubSpans...), sample: plan.sample}, nil
}

// writeSpans writes the spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		line := struct {
			Name   string `json:"name"`
			Req    int32  `json:"req"`
			Parent int32  `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{spanNames[s.Name], s.Req, s.Parent, s.Start, s.End}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
