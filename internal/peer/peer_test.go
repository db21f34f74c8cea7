package peer

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dip/internal/core"
	"dip/internal/faults"
	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/wire"
)

// testParams is the fixture SpecBuilder's parameter blob: deterministic
// spec construction from (Spec, Bits), the same property dip.BuildSpec
// gives dippeer fleets.
type testParams struct {
	Spec string `json:"spec"`
	Bits int    `json:"bits"`
	// N and Seed shape the sym-dmam fixture, a real protocol of the
	// paper.
	N    int   `json:"n,omitempty"`
	Seed int64 `json:"seed,omitempty"`
}

func marshalParams(t *testing.T, spec string, bits int) []byte {
	t.Helper()
	b, err := json.Marshal(testParams{Spec: spec, Bits: bits})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func challengeRound(bits int) network.Round {
	return network.Round{Kind: network.Arthur,
		Challenge: func(v int, rng *rand.Rand, _ *network.NodeView) wire.Message {
			var w wire.Writer
			for i := 0; i < bits; i++ {
				w.WriteBool(rng.Intn(2) == 1)
			}
			return w.Message()
		}}
}

func echoSpec(bits int) *network.Spec {
	return &network.Spec{
		Name:   "peer-echo",
		Rounds: []network.Round{challengeRound(bits), {Kind: network.Merlin}},
		Decide: func(v int, view *network.NodeView) bool {
			got, want := view.Responses[0], view.MyChallenges[0]
			if got.Bits != want.Bits {
				return false
			}
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					return false
				}
			}
			return len(view.NeighborResponses[0]) == len(view.Neighbors)
		},
	}
}

func digestSpec(bits int) *network.Spec {
	return &network.Spec{
		Name: "peer-digest",
		Rounds: []network.Round{
			challengeRound(bits),
			{Kind: network.Merlin, Digest: func(v int, rng *rand.Rand, m wire.Message) wire.Message {
				var w wire.Writer
				w.WriteUint(rng.Uint64()&0xFF, 8)
				return w.Message()
			}},
			challengeRound(8),
			{Kind: network.Merlin},
		},
		Decide: func(v int, view *network.NodeView) bool {
			return len(view.Responses) == 2 &&
				len(view.NeighborResponses[0]) == len(view.Neighbors)
		},
	}
}

func shareSpec(bits int) *network.Spec {
	return &network.Spec{
		Name:            "peer-share",
		ShareChallenges: true,
		Rounds:          []network.Round{challengeRound(bits), {Kind: network.Merlin}},
		Decide: func(v int, view *network.NodeView) bool {
			return len(view.NeighborChallenges[0]) == len(view.Neighbors)
		},
	}
}

func inputSpec() *network.Spec {
	return &network.Spec{
		Name:   "peer-input",
		Rounds: nil, // zero rounds: the schedule is a bare decide step
		Decide: func(v int, view *network.NodeView) bool {
			return view.Input.Bits == 8 && len(view.Input.Data) == 1 &&
				int(view.Input.Data[0]) == v
		},
	}
}

func panicSpec() *network.Spec {
	return &network.Spec{
		Name: "peer-panic",
		Rounds: []network.Round{{Kind: network.Arthur,
			Challenge: func(v int, _ *rand.Rand, _ *network.NodeView) wire.Message {
				if v == 2 {
					panic("node 2 is broken")
				}
				return wire.Message{}
			}}},
		Decide: func(int, *network.NodeView) bool { return true },
	}
}

func buildTestSpec(params []byte) (*network.Spec, error) {
	var p testParams
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, err
	}
	switch p.Spec {
	case "echo":
		return echoSpec(p.Bits), nil
	case "digest":
		return digestSpec(p.Bits), nil
	case "share":
		return shareSpec(p.Bits), nil
	case "input":
		return inputSpec(), nil
	case "panic":
		return panicSpec(), nil
	case "sym-dmam":
		p, err := core.NewSymDMAM(p.N, p.Seed)
		if err != nil {
			return nil, err
		}
		return p.Spec(), nil
	default:
		return nil, fmt.Errorf("unknown fixture spec %q", p.Spec)
	}
}

// echoProver answers every node with its own last challenge.
type echoProver struct{}

func (echoProver) Respond(_ int, view *network.ProverView) (*network.Response, error) {
	last := view.Challenges[len(view.Challenges)-1]
	resp := &network.Response{PerNode: make([]wire.Message, len(last))}
	copy(resp.PerNode, last)
	return resp, nil
}

// startServers boots k peer servers on ephemeral ports and returns their
// addresses. Cleanup closes listeners and drains every session handler.
func startServers(t *testing.T, k int, tweak func(*Server)) []string {
	t.Helper()
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &Server{Build: buildTestSpec, Opts: Options{IOTimeout: 10 * time.Second}}
		if tweak != nil {
			tweak(srv)
		}
		go srv.Serve(l)
		t.Cleanup(func() {
			l.Close()
			srv.Close()
		})
		addrs[i] = l.Addr().String()
	}
	return addrs
}

func startFleet(t *testing.T, k int) []string {
	return startServers(t, k, nil)
}

// settleGoroutines polls until the goroutine count returns to within slack
// of the baseline — the leak gate of the drain tests, applied to peer
// fleets.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+8 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d live, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPeerMatchesSequential is the socket half of the equivalence
// contract: runs through real TCP peer fleets — including fleets hosting
// several nodes per process — must be byte-identical to the sequential
// engine, across challenge, digest, share-challenge, and zero-round
// input-only specs.
func TestPeerMatchesSequential(t *testing.T) {
	byteInputs := func(n int) []wire.Message {
		inputs := make([]wire.Message, n)
		for v := range inputs {
			inputs[v] = wire.Message{Data: []byte{byte(v)}, Bits: 8}
		}
		return inputs
	}
	corrupt := func(round, node int, m wire.Message) wire.Message {
		if node%3 != 1 || m.Bits == 0 {
			return m
		}
		out := wire.Message{Data: append([]byte(nil), m.Data...), Bits: m.Bits}
		out.Data[0] ^= 0x80
		return out
	}
	cases := []struct {
		name   string
		spec   string
		bits   int
		g      *graph.Graph
		inputs func(n int) []wire.Message
		peers  int
		opts   network.Options
	}{
		{"echo-1peer", "echo", 16, graph.Cycle(6), nil, 1, network.Options{Seed: 1}},
		{"echo-4peers", "echo", 16, graph.Cycle(9), nil, 4, network.Options{Seed: 2, RecordTranscript: true}},
		{"echo-n-peers", "echo", 24, graph.Complete(5), nil, 5, network.Options{Seed: 3}},
		{"digest", "digest", 16, graph.Cycle(8), nil, 3, network.Options{Seed: 4, RecordTranscript: true}},
		{"share", "share", 8, graph.Path(7), nil, 2, network.Options{Seed: 5}},
		{"inputs", "input", 0, graph.Star(6), byteInputs, 2, network.Options{Seed: 6}},
		{"corrupted", "echo", 16, graph.Cycle(6), nil, 2,
			network.Options{Seed: 7, Corrupt: corrupt, RecordTranscript: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := buildTestSpec(marshalParams(t, tc.spec, tc.bits))
			if err != nil {
				t.Fatal(err)
			}
			var inputs []wire.Message
			if tc.inputs != nil {
				inputs = tc.inputs(tc.g.N())
			}
			var prover network.Prover
			if tc.spec != "input" {
				prover = echoProver{}
			}
			seqRes, err := network.Run(spec, tc.g, inputs, prover, tc.opts)
			if err != nil {
				t.Fatal(err)
			}

			addrs := startFleet(t, tc.peers)
			coord, err := Dial(addrs, marshalParams(t, tc.spec, tc.bits), Options{})
			if err != nil {
				t.Fatal(err)
			}
			netOpts := tc.opts
			netOpts.Transport = coord
			netRes, err := network.Run(spec, tc.g, inputs, prover, netOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seqRes, netRes) {
				t.Fatalf("results differ:\nsequential: %+v\nnetworked:  %+v", seqRes, netRes)
			}
		})
	}
}

// TestPeerFleetReuse runs several proofs through one persistent Fleet:
// connections are dialed once and every run is a fresh session
// multiplexed over them, so the standing fleet serves a stream of runs
// without redialing.
func TestPeerFleetReuse(t *testing.T) {
	addrs := startFleet(t, 2)
	fleet, err := DialFleet(addrs, Options{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	g := graph.Cycle(6)
	spec := echoSpec(16)
	for seed := int64(1); seed <= 3; seed++ {
		seqRes, err := network.Run(spec, g, nil, echoProver{},
			network.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		netRes, err := network.Run(spec, g, nil, echoProver{},
			network.Options{Seed: seed, Transport: fleet.NewRun(marshalParams(t, "echo", 16))})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seqRes, netRes) {
			t.Fatalf("seed %d: results differ", seed)
		}
	}
	st := fleet.Stats()
	var completed, open int64
	for _, ps := range st.Peers {
		completed += ps.SessionsCompleted
		open += ps.SessionsOpen
		if !ps.Connected {
			t.Fatalf("peer %s disconnected after reuse", ps.Addr)
		}
		if ps.FramesSent == 0 || ps.FramesReceived == 0 || ps.BytesSent == 0 || ps.BytesReceived == 0 {
			t.Fatalf("peer %s gauges empty: %+v", ps.Addr, ps)
		}
	}
	if completed != 6 || open != 0 {
		t.Fatalf("sessions completed=%d open=%d, want 6 completed (3 runs × 2 peers), 0 open", completed, open)
	}
}

// TestSessionStorm is the multiplexing gate: many concurrent sessions —
// mixed protocols, one poisoned — against a single peer process over one
// shared fleet connection. Surviving sessions must stay byte-identical
// to the in-process engine, the poisoned one must fail with its own
// attributed error, and nothing may leak.
func TestSessionStorm(t *testing.T) {
	baseline := runtime.NumGoroutine()
	addrs := startFleet(t, 1)
	fleet, err := DialFleet(addrs, Options{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	type job struct {
		spec string
		bits int
		g    *graph.Graph
		seed int64
	}
	jobs := make([]job, 0, 12)
	for i := 0; i < 12; i++ {
		switch i % 4 {
		case 0:
			jobs = append(jobs, job{"echo", 16, graph.Cycle(6), int64(100 + i)})
		case 1:
			jobs = append(jobs, job{"digest", 8, graph.Cycle(5), int64(100 + i)})
		case 2:
			jobs = append(jobs, job{"share", 8, graph.Path(5), int64(100 + i)})
		case 3:
			jobs = append(jobs, job{"echo", 24, graph.Complete(4), int64(100 + i)})
		}
	}
	const poisoned = 5 // jobs[5] runs the panic spec: its session must fail alone
	jobs[poisoned] = job{"panic", 0, graph.Cycle(5), 999}

	results := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, jb := range jobs {
		wg.Add(1)
		go func(i int, jb job) {
			defer wg.Done()
			spec, err := buildTestSpec(marshalParams(t, jb.spec, jb.bits))
			if err != nil {
				results[i] = err
				return
			}
			netRes, err := network.Run(spec, jb.g, nil, echoProver{},
				network.Options{Seed: jb.seed, Transport: fleet.NewRun(marshalParams(t, jb.spec, jb.bits))})
			if err != nil {
				results[i] = err
				return
			}
			seqRes, err := network.Run(spec, jb.g, nil, echoProver{},
				network.Options{Seed: jb.seed})
			if err != nil {
				results[i] = err
				return
			}
			if !reflect.DeepEqual(seqRes, netRes) {
				results[i] = fmt.Errorf("fleet run diverged from sequential")
			}
		}(i, jb)
	}
	wg.Wait()

	for i, err := range results {
		if i == poisoned {
			var rerr *network.RunError
			if !errors.As(err, &rerr) || rerr.Phase != network.PhaseChallenge || rerr.Node != 2 {
				t.Fatalf("poisoned session: err = %v, want challenge/node-2 RunError", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("session %d (%s): %v", i, jobs[i].spec, err)
		}
	}

	st := fleet.Stats()
	if len(st.Peers) != 1 {
		t.Fatalf("stats cover %d peers, want 1", len(st.Peers))
	}
	ps := st.Peers[0]
	if ps.SessionsCompleted != int64(len(jobs)-1) || ps.SessionsFailed != 1 || ps.SessionsOpen != 0 {
		t.Fatalf("gauges completed=%d failed=%d open=%d, want %d/1/0",
			ps.SessionsCompleted, ps.SessionsFailed, ps.SessionsOpen, len(jobs)-1)
	}
	fleet.Close()
	settleGoroutines(t, baseline)
}

// TestFailSoftIsolation pins the isolation hook: the FailSoft-th session
// fails with a structured error while the sessions before and after it —
// on the same process, over the same connection — complete normally.
func TestFailSoftIsolation(t *testing.T) {
	addrs := startServers(t, 1, func(s *Server) { s.FailSoft = 2 })
	fleet, err := DialFleet(addrs, Options{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	g := graph.Cycle(6)
	spec := echoSpec(8)
	for run := 1; run <= 3; run++ {
		_, err := network.Run(spec, g, nil, echoProver{},
			network.Options{Seed: int64(run), Transport: fleet.NewRun(marshalParams(t, "echo", 8))})
		if run == 2 {
			var rerr *network.RunError
			if !errors.As(err, &rerr) || rerr.Phase != network.PhaseTransport ||
				!strings.Contains(rerr.Err.Error(), "FailSoft") {
				t.Fatalf("run 2: err = %v, want FailSoft transport RunError", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("run %d should have survived FailSoft on run 2: %v", run, err)
		}
	}
}

// TestV1ClientRejected pins the downgrade path: a protocol-v1 client's
// hello is answered with a structured error in v1 framing that names the
// required protocol version.
func TestV1ClientRejected(t *testing.T) {
	addrs := startFleet(t, 1)
	conn, err := net.DialTimeout("tcp", addrs[0], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A v1 hello: u32 len | type | JSON, no session id.
	hello := []byte(`{"version":1,"seed":1,"n":2,"nodes":[{"v":0,"neighbors":[1]}]}`)
	frame := make([]byte, 5+len(hello))
	binary.BigEndian.PutUint32(frame, uint32(1+len(hello)))
	frame[4] = frameHello
	copy(frame[5:], hello)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The answer must be a v1-framed error a v1 reader can decode.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(br, body); err != nil {
		t.Fatal(err)
	}
	if body[0] != frameError {
		t.Fatalf("reply type 0x%02x, want error", body[0])
	}
	var ef errorFrame
	if err := json.Unmarshal(body[1:], &ef); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ef.Message, "protocol 2") && !strings.Contains(ef.Message, fmt.Sprintf("protocol %d", Version)) {
		t.Fatalf("rejection %q does not name the required version", ef.Message)
	}
}

// refusal sends hello as session 9's first frame on a fresh connection
// and returns the structured error the peer answers with.
func refusal(t *testing.T, hello []byte) errorFrame {
	t.Helper()
	addrs := startFleet(t, 1)
	conn, err := net.DialTimeout("tcp", addrs[0], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, 9, frameHello, hello); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	sess, typ, payload, err := readFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if sess != 9 || typ != frameError {
		t.Fatalf("reply session %d type 0x%02x, want session 9 error", sess, typ)
	}
	var ef errorFrame
	if err := json.Unmarshal(payload, &ef); err != nil {
		t.Fatal(err)
	}
	return ef
}

// TestWrongProtoHelloRejected covers the in-framing version gate: a
// binary hello whose proto field names another version is refused with
// an error naming the required version.
func TestWrongProtoHelloRejected(t *testing.T) {
	h := testHello()
	h.Proto = Version + 1
	hello, err := encodeHello(h)
	if err != nil {
		t.Fatal(err)
	}
	ef := refusal(t, hello)
	if !strings.Contains(ef.Message, fmt.Sprintf("requires wire protocol %d", Version)) {
		t.Fatalf("rejection %q does not name the required version", ef.Message)
	}
}

// TestV2HelloRejected pins the v2 → v3 downgrade path: a protocol-v2
// client shares the session-id framing but sent a JSON hello; it gets a
// structured error frame, decodable by a v2 reader, naming both the
// version it spoke and version 3.
func TestV2HelloRejected(t *testing.T) {
	v2 := []byte(`{"proto":2,"params":{"spec":"echo","bits":8},"seed":1,"n":2,"nodes":[{"v":0,"neighbors":[1]}]}`)
	ef := refusal(t, v2)
	if ef.Phase != string(network.PhaseTransport) ||
		!strings.Contains(ef.Message, "hello proto 2: this peer requires wire protocol 3") {
		t.Fatalf("v2 rejection = %+v, want a transport error naming protocols 2 and 3", ef)
	}
}

// TestBatchDuringWrongStep drives a real Server with a hand-rolled
// coordinator that breaks the schedule: after the handshake of an echo
// run (challenge, respond, exchange, decide) it sends an exchange batch
// where the respond step owes a response batch. The session must refuse
// it with a structured error naming the step, not misfile the items.
func TestBatchDuringWrongStep(t *testing.T) {
	addrs := startFleet(t, 1)
	conn, err := net.DialTimeout("tcp", addrs[0], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	hello, err := encodeHello(helloFrame{Proto: Version, Params: marshalParams(t, "echo", 8), Seed: 1, N: 2,
		Nodes: []helloNode{{V: 0, Neighbors: []int{1}}, {V: 1, Neighbors: []int{0}}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, 5, frameHello, hello); err != nil {
		t.Fatal(err)
	}
	expect := func(want byte) []byte {
		t.Helper()
		sess, typ, payload, err := readFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if sess != 5 || typ != want {
			t.Fatalf("frame (session %d, type 0x%02x), want (5, 0x%02x): %s", sess, typ, want, payload)
		}
		return payload
	}
	expect(frameHelloOK)
	if _, err := decodeBatch(expect(frameChallenge), 0, 0, 2, nil); err != nil {
		t.Fatal(err)
	}
	ex := appendBatchHeader(nil, 1, 0, 2)
	for i := 0; i < 2; i++ {
		ex, _ = appendMessage(ex, wire.Message{Data: []byte{0xFF}, Bits: 8})
	}
	if err := writeFrame(conn, 5, frameExchange, ex); err != nil {
		t.Fatal(err)
	}
	var ef errorFrame
	if err := json.Unmarshal(expect(frameError), &ef); err != nil {
		t.Fatal(err)
	}
	if ef.Phase != string(network.PhaseTransport) || !strings.Contains(ef.Message, "during respond step") {
		t.Fatalf("wrong-step batch answered %+v, want a transport error naming the respond step", ef)
	}
}

// TestFramesPerRunIndependentOfN is the batching contract: a run costs
// one frame per (peer, step) in each direction the step's traffic flows,
// plus hello, helloOK and end per peer — a count the schedule fixes and
// the node count does not enter. Sym-dmam on cycles of 16 and 64 over 3
// peers must cost exactly that, at both sizes.
func TestFramesPerRunIndependentOfN(t *testing.T) {
	const peers, runs = 3, 2
	fleet, err := DialFleet(startFleet(t, peers), Options{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	frames := func() int64 {
		var sum int64
		for _, ps := range fleet.Stats().Peers {
			sum += ps.FramesSent + ps.FramesReceived
		}
		return sum
	}
	perRun := map[int]int64{}
	for _, n := range []int{16, 64} {
		const seed = 5
		proto, err := core.NewSymDMAM(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		spec := proto.Spec()
		steps, err := network.Schedule(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Per peer: hello, helloOK and end, then one batch per step and
		// direction. Every node of a cycle has neighbors, so every peer
		// is owed an exchange batch.
		want := int64(3)
		for _, st := range steps {
			want++
			if st.Kind == network.StepExchange && spec.Rounds[st.Round].Digest != nil {
				want++
			}
		}
		want *= peers

		before := frames()
		for r := 0; r < runs; r++ {
			res, err := network.Run(spec, graph.Cycle(n), nil, proto.HonestProver(),
				network.Options{Seed: int64(r), Transport: fleet.NewRun(marshalParamsN(t, n, seed))})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Fatalf("n=%d run %d rejected a symmetric cycle", n, r)
			}
		}
		got := (frames() - before) / runs
		if got != want {
			t.Fatalf("n=%d: %d frames per run, want %d (%d peers × (3 + %d steps' batches))", n, got, want, peers, want/peers-3)
		}
		perRun[n] = got
	}
	if perRun[16] != perRun[64] {
		t.Fatalf("frames per run depend on n: %v", perRun)
	}
}

// marshalParamsN is marshalParams for the sym-dmam fixture.
func marshalParamsN(t *testing.T, n int, seed int64) []byte {
	t.Helper()
	b, err := json.Marshal(testParams{Spec: "sym-dmam", N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRemoteCallbackError pins cross-process failure attribution: a node
// callback panicking inside a peer process surfaces on the coordinator as
// the same phase/round/node RunError the in-process engines would raise.
func TestRemoteCallbackError(t *testing.T) {
	addrs := startFleet(t, 2)
	coord, err := Dial(addrs, marshalParams(t, "panic", 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = network.Run(panicSpec(), graph.Cycle(5), nil, echoProver{},
		network.Options{Seed: 1, Transport: coord})
	var rerr *network.RunError
	if !errors.As(err, &rerr) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if rerr.Phase != network.PhaseChallenge || rerr.Node != 2 || rerr.Round != 0 {
		t.Fatalf("attribution = %s/%d/%d (%v), want challenge/0/2", rerr.Phase, rerr.Round, rerr.Node, rerr.Err)
	}
}

// fakePeer is a hand-rolled peer: it completes the handshake, sends the
// one frame first builds from the hello, and then goes silent until its
// connection is closed.
func fakePeer(t *testing.T, first func(hello helloFrame) (byte, []byte)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		sess, _, payload, err := readFrame(br)
		if err != nil {
			return
		}
		hello, err := decodeHello(payload)
		if err != nil {
			return
		}
		if writeFrame(conn, sess, frameHelloOK, encodeHelloOK(len(hello.Nodes))) != nil {
			return
		}
		typ, p := first(hello)
		if writeFrame(conn, sess, typ, p) != nil {
			return
		}
		// Stall: swallow coordinator traffic without ever answering.
		io.Copy(io.Discard, conn)
	}()
	return l.Addr().String()
}

// challengeBatch builds a round-0 challenge batch of count empty
// messages.
func challengeBatch(round, count int) []byte {
	b := appendBatchHeader(nil, round, 0, count)
	for i := 0; i < count; i++ {
		b, _ = appendMessage(b, wire.Message{})
	}
	return b
}

// stallPeer is a fake peer that sends its valid round-0 challenge batch
// and then hangs mid-run.
func stallPeer(t *testing.T) string {
	return fakePeer(t, func(hello helloFrame) (byte, []byte) {
		return frameChallenge, challengeBatch(0, len(hello.Nodes))
	})
}

// TestMalformedBatchFailsRun covers the coordinator's batch decoding: a
// peer whose first batch has the wrong item count, trailing bytes, or a
// type only a coordinator sends fails the run with a structured transport
// error at once, long before any deadline.
func TestMalformedBatchFailsRun(t *testing.T) {
	cases := []struct {
		name  string
		first func(helloFrame) (byte, []byte)
		frag  string
	}{
		{"wrong-count", func(h helloFrame) (byte, []byte) {
			return frameChallenge, challengeBatch(0, len(h.Nodes)-1)
		}, "want 4"},
		{"trailing-bytes", func(h helloFrame) (byte, []byte) {
			return frameChallenge, append(challengeBatch(0, len(h.Nodes)), 0)
		}, "trailing"},
		{"truncated", func(h helloFrame) (byte, []byte) {
			return frameChallenge, challengeBatch(0, len(h.Nodes))[:batchHeader+1]
		}, "truncated"},
		{"wrong-direction", func(h helloFrame) (byte, []byte) {
			return frameResponse, challengeBatch(0, len(h.Nodes))
		}, "frame type 0x11 awaiting challenge"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, err := Dial([]string{fakePeer(t, tc.first)}, marshalParams(t, "echo", 8), Options{IOTimeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err = network.Run(echoSpec(8), graph.Cycle(4), nil, echoProver{},
				network.Options{Seed: 1, Transport: coord})
			var rerr *network.RunError
			if !errors.As(err, &rerr) || rerr.Phase != network.PhaseTransport || !strings.Contains(rerr.Err.Error(), tc.frag) {
				t.Fatalf("err = %v, want a transport RunError mentioning %q", err, tc.frag)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("malformed batch took %v to fail the run", elapsed)
			}
		})
	}
}

// TestStalledPeerTimesOut is the cancellation satellite: a peer that
// stalls mid-run (handshake done, its challenge batch delivered, then
// silence) must surface as a structured timeout RunError on the
// coordinator — PhaseTransport via the transport's own I/O deadline, or
// PhaseCanceled via a caller deadline — and must not leak goroutines.
func TestStalledPeerTimesOut(t *testing.T) {
	g := graph.Cycle(4)
	spec := echoSpec(8)

	t.Run("io-timeout", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		addr := stallPeer(t)
		coord, err := Dial([]string{addr}, marshalParams(t, "echo", 8),
			Options{IOTimeout: 150 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err = network.Run(spec, g, nil, echoProver{},
			network.Options{Seed: 1, Transport: coord})
		var rerr *network.RunError
		if !errors.As(err, &rerr) || rerr.Phase != network.PhaseTransport {
			t.Fatalf("err = %v, want PhaseTransport RunError", err)
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("stall detection took %v", elapsed)
		}
		settleGoroutines(t, baseline)
	})

	t.Run("context-deadline", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		addr := stallPeer(t)
		coord, err := Dial([]string{addr}, marshalParams(t, "echo", 8),
			Options{IOTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		defer cancel()
		_, err = network.RunContext(ctx, spec, g, nil, echoProver{},
			network.Options{Seed: 1, Transport: coord})
		var rerr *network.RunError
		if !errors.As(err, &rerr) || rerr.Phase != network.PhaseCanceled {
			t.Fatalf("err = %v, want PhaseCanceled RunError", err)
		}
		settleGoroutines(t, baseline)
	})
}

// TestDeadPeerFailsRun covers the harsher failure: the fleet address
// refuses connections entirely, and Begin reports it as PhaseTransport.
func TestDeadPeerFailsRun(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // nothing listens here anymore
	coord, err := Dial([]string{addr}, marshalParams(t, "echo", 8),
		Options{DialTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = network.Run(echoSpec(8), graph.Cycle(4), nil, echoProver{},
		network.Options{Seed: 1, Transport: coord})
	var rerr *network.RunError
	if !errors.As(err, &rerr) || rerr.Phase != network.PhaseTransport {
		t.Fatalf("err = %v, want PhaseTransport RunError", err)
	}
}

// TestLinkFaultDelaySlowLink exercises the socket-level slow-link class:
// every batch delayed, the run completes bit-identically, just later.
func TestLinkFaultDelaySlowLink(t *testing.T) {
	g := graph.Path(4)
	spec := echoSpec(8)
	seqRes, err := network.Run(spec, g, nil, echoProver{},
		network.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	addrs := startFleet(t, 2)
	coord, err := Dial(addrs, marshalParams(t, "echo", 8),
		Options{LinkFaults: &faults.LinkPolicy{Seed: 1, Delay: time.Millisecond, DelayProb: 1}})
	if err != nil {
		t.Fatal(err)
	}
	netRes, err := network.Run(spec, g, nil, echoProver{},
		network.Options{Seed: 1, Transport: coord})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRes, netRes) {
		t.Fatal("slow-link run diverged from sequential")
	}
}

// TestLinkFaultDelayCancel is the cancel-blocking regression gate: a run
// under a large injected link delay must return promptly when its
// context is canceled — the delay timer selects on the run's cancel
// channel instead of sleeping through it — and must not leak goroutines.
func TestLinkFaultDelayCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	addrs := startFleet(t, 2)
	coord, err := Dial(addrs, marshalParams(t, "echo", 8),
		Options{LinkFaults: &faults.LinkPolicy{Seed: 1, Delay: time.Minute, DelayProb: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = network.RunContext(ctx, echoSpec(8), graph.Cycle(4), nil, echoProver{},
		network.Options{Seed: 1, Transport: coord})
	elapsed := time.Since(start)
	var rerr *network.RunError
	if !errors.As(err, &rerr) || rerr.Phase != network.PhaseCanceled {
		t.Fatalf("err = %v, want PhaseCanceled RunError", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("canceled run blocked %v inside the injected delay", elapsed)
	}
	settleGoroutines(t, baseline)
}

// TestLinkFaultDropFailsRun covers the partition class: a link that
// swallows every coordinator→peer batch stalls the session until a
// deadline fires, and the run fails with a structured transport-or-
// cancel error — a partition can kill a run but never flip a decision.
func TestLinkFaultDropFailsRun(t *testing.T) {
	addrs := startFleet(t, 2)
	fleet, err := DialFleet(addrs, Options{
		IOTimeout:  300 * time.Millisecond,
		LinkFaults: &faults.LinkPolicy{Seed: 1, DropProb: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	_, err = network.Run(echoSpec(8), graph.Cycle(4), nil, echoProver{},
		network.Options{Seed: 1, Transport: fleet.NewRun(marshalParams(t, "echo", 8))})
	var rerr *network.RunError
	if !errors.As(err, &rerr) || rerr.Phase != network.PhaseTransport {
		t.Fatalf("err = %v, want PhaseTransport RunError", err)
	}
	st := fleet.Stats()
	var dropped int64
	for _, ps := range st.Peers {
		dropped += ps.FramesDropped
	}
	if dropped == 0 {
		t.Fatal("drop policy fired no drops")
	}
}

// TestLinkPolicyDeterminism pins the schedule's replayability: the same
// seed makes identical per-batch decisions, a different seed diverges
// somewhere.
func TestLinkPolicyDeterminism(t *testing.T) {
	p := faults.LinkPolicy{Seed: 42, Delay: time.Millisecond, DelayProb: 0.5, DropProb: 0.2}
	q := faults.LinkPolicy{Seed: 43, Delay: time.Millisecond, DelayProb: 0.5, DropProb: 0.2}
	diverged := false
	for peer := 0; peer < 3; peer++ {
		for seq := 0; seq < 200; seq++ {
			d1, x1 := p.Decide(peer, seq)
			d2, x2 := p.Decide(peer, seq)
			if d1 != d2 || x1 != x2 {
				t.Fatalf("same-seed decision diverged at peer %d seq %d", peer, seq)
			}
			if q1, y1 := q.Decide(peer, seq); q1 != d1 || y1 != x1 {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("600 decisions identical across different seeds")
	}
}

// TestRedialAfterPeerRestart pins the standing-fleet recovery contract: a
// run in flight when its peer's connection dies fails with a structured
// transport error, and the next run over the same Fleet redials and
// completes.
func TestRedialAfterPeerRestart(t *testing.T) {
	// Two servers; we kill the second one's listener and connection, then
	// bring a new server up on a fresh port is not possible at the same
	// addr reliably, so instead: kill conn only — the server keeps
	// listening, the fleet must redial the same peer.
	addrs := startFleet(t, 2)
	fleet, err := DialFleet(addrs, Options{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	g := graph.Cycle(6)
	spec := echoSpec(8)
	run := func(seed int64) error {
		_, err := network.Run(spec, g, nil, echoProver{},
			network.Options{Seed: seed, Transport: fleet.NewRun(marshalParams(t, "echo", 8))})
		return err
	}
	if err := run(1); err != nil {
		t.Fatal(err)
	}
	// Sever the second peer's connection out from under the fleet.
	fleet.peers[1].mu.Lock()
	conn := fleet.peers[1].conn
	fleet.peers[1].mu.Unlock()
	if conn == nil {
		t.Fatal("peer 1 has no live connection after a run")
	}
	conn.Close()
	// The fleet must recover: ensure() redials on the next run's Begin.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := run(2); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet did not recover after losing a connection")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
