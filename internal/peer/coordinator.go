package peer

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"dip/internal/network"
	"dip/internal/wire"
)

// Transport implements network.Transport for one run over a Fleet: Begin
// places the run's nodes on the live peers, mints one session id, and
// provisions every involved peer; the batch traffic of the run then
// flows through the fleet's per-connection readers into this run's
// inbox, routed by session id. End releases the session but leaves the
// fleet's connections standing for the next run (unless the transport
// owns a one-shot fleet, built by Dial, which it closes).
//
// The engine hands the transport one node's item at a time; the
// transport coalesces them into one batch per (peer, step). Outbound
// items are buffered per connection and the batch is flushed when the
// connection's last owed item of the step arrives — the owed counts
// follow from the placement and the neighbor lists, fixed at Begin.
// Inbound batches are decoded whole and served to the engine one node at
// a time.
type Transport struct {
	fleet     *Fleet
	params    []byte
	ownsFleet bool

	protocol string
	cancel   <-chan struct{}
	sess     uint32
	conns    []*fleetConn // run-local connection index → peer
	assign   []int        // node → run-local connection index
	hosted   [][]int      // run-local connection index → hosted nodes, ascending
	exOwed   []int        // run-local connection index → exchange items per step
	seqs     []int        // per-connection outbound batch sequence (LinkFaults keying)
	out      []outBatch   // per-connection batch under construction
	inbox    chan inFrame
	sinkDone chan struct{}
	// pending buffers batches from peers running ahead of the
	// coordinator's schedule walk, keyed by pendKey (frame type and
	// round).
	pending map[uint64][]inFrame
	// in is the decoded inbound batch the engine is being served from.
	in     inBatch
	ended  bool
	failed bool
}

// outBatch is one connection's outbound batch under construction: a
// whole frame, header included, so the flush is a single write.
type outBatch struct {
	frame []byte
	owed  int // items the batch carries when complete
	items int // items appended so far
}

// inBatch is one decoded inbound batch: the connection it came from and
// its items, one per hosted node in ascending order.
type inBatch struct {
	conn      int
	msgs      []wire.Message
	decisions []bool
	next      int
}

// inFrame is one frame (or terminal read error) from a peer connection,
// attributed to its run-local connection index.
type inFrame struct {
	conn    int
	typ     byte
	payload []byte
	err     error
}

// failf builds a PhaseTransport RunError.
func (t *Transport) failf(round, node int, format string, args ...any) *network.RunError {
	return &network.RunError{Protocol: t.protocol, Phase: network.PhaseTransport,
		Round: round, Node: node, Err: fmt.Errorf(format, args...)}
}

// Begin places the run on the fleet's live peers, provisions each with
// its node slice, and waits for all handshake acknowledgements. Nodes go
// round-robin over the live peers (node v on live peer v mod k); peers
// whose connections are down are redialed once and skipped if still
// unreachable, so a fleet missing a peer keeps serving on the rest.
func (t *Transport) Begin(run *network.TransportRun) *network.RunError {
	t.protocol = run.Spec.Name
	t.cancel = run.Cancel

	t.fleet.mu.Lock()
	closed := t.fleet.closed
	t.fleet.mu.Unlock()
	if closed {
		return t.failf(-1, -1, "fleet closed")
	}
	var lastErr error
	for _, fc := range t.fleet.peers {
		if err := fc.ensure(); err != nil {
			lastErr = err
			continue
		}
		t.conns = append(t.conns, fc)
		if len(t.conns) == run.N {
			break
		}
	}
	if len(t.conns) == 0 {
		return t.failf(-1, -1, "no reachable peers in fleet of %d: %v", len(t.fleet.addrs), lastErr)
	}

	k := len(t.conns)
	t.assign = make([]int, run.N)
	t.hosted = make([][]int, k)
	t.exOwed = make([]int, k)
	t.seqs = make([]int, k)
	t.out = make([]outBatch, k)
	perConn := make([][]helloNode, k)
	for v := 0; v < run.N; v++ {
		ci := v % k
		t.assign[v] = ci
		t.hosted[ci] = append(t.hosted[ci], v)
		t.exOwed[ci] += len(run.Neighbors[v])
		var input wire.Message
		if run.Inputs != nil {
			input = run.Inputs[v]
		}
		// The hello is encoded before Begin returns, so the node slice may
		// alias TransportRun.Neighbors and Inputs.
		perConn[ci] = append(perConn[ci], helloNode{V: v, Neighbors: run.Neighbors[v], Input: input})
	}

	t.sess = t.fleet.sess.Add(1)
	// A peer sends at most one batch per round plus its decisions, its
	// helloOK and an error: sized for all of them, the inbox never makes
	// a connection's reader wait on this run.
	t.inbox = make(chan inFrame, k*(len(run.Spec.Rounds)+3))
	t.sinkDone = make(chan struct{})
	for _, fc := range t.conns {
		// Count before registering so every release path decrements
		// symmetrically, however far Begin got.
		fc.sessionsOpen.Add(1)
	}
	for i, fc := range t.conns {
		if err := fc.register(t.sess, &sink{ch: t.inbox, conn: i, done: t.sinkDone}); err != nil {
			t.release(true)
			return t.failf(-1, -1, "%v", err)
		}
	}
	for i, fc := range t.conns {
		payload, err := encodeHello(helloFrame{Proto: Version, Params: t.params, Seed: run.Seed, N: run.N, Nodes: perConn[i]})
		if err != nil {
			t.release(true)
			return t.failf(-1, -1, "encoding hello: %v", err)
		}
		if err := fc.sendFrame(t.sess, frameHello, payload); err != nil {
			t.release(true)
			return t.failf(-1, -1, "%v", err)
		}
	}

	// Await one helloOK per involved peer. A fast peer's post-handshake
	// batches can arrive before a slow peer's acknowledgement; those are
	// buffered for their phase like any ahead-of-schedule batch.
	acked := make([]bool, k)
	timer := time.NewTimer(t.fleet.opts.IOTimeout)
	defer timer.Stop()
	for remaining := k; remaining > 0; {
		select {
		case f := <-t.inbox:
			if f.err != nil {
				t.release(true)
				return t.failf(-1, -1, "handshake: %v", f.err)
			}
			switch f.typ {
			case frameHelloOK:
				proto, nodes, err := decodeHelloOK(f.payload)
				if err != nil {
					t.release(true)
					return t.failf(-1, -1, "peer %s handshake: %v", t.conns[f.conn].addr, err)
				}
				if proto != Version || nodes != len(perConn[f.conn]) {
					t.release(true)
					return t.failf(-1, -1, "peer %s acknowledged proto %d, %d nodes (want %d, %d)",
						t.conns[f.conn].addr, proto, nodes, Version, len(perConn[f.conn]))
				}
				if acked[f.conn] {
					t.release(true)
					return t.failf(-1, -1, "peer %s acknowledged twice", t.conns[f.conn].addr)
				}
				acked[f.conn] = true
				remaining--
			case frameError:
				var ef errorFrame
				if jerr := json.Unmarshal(f.payload, &ef); jerr != nil {
					t.release(true)
					return t.failf(-1, -1, "peer %s handshake error frame: %v", t.conns[f.conn].addr, jerr)
				}
				t.release(true)
				return ef.runError()
			case frameChallenge, frameForward, frameDecision:
				if fr, ok := frameRound(f); ok {
					key := pendKey(f.typ, fr)
					t.pending[key] = append(t.pending[key], f)
				}
			default:
				t.release(true)
				return t.failf(-1, -1, "peer %s handshake frame type 0x%02x", t.conns[f.conn].addr, f.typ)
			}
		case <-t.cancel:
			t.release(true)
			return &network.RunError{Protocol: t.protocol, Phase: network.PhaseCanceled,
				Round: -1, Node: -1, Err: fmt.Errorf("run canceled during handshake")}
		case <-timer.C:
			t.release(true)
			return t.failf(-1, -1, "handshake incomplete within %v", t.fleet.opts.IOTimeout)
		}
	}
	return nil
}

// pendKey buckets buffered ahead-of-phase batches by frame type and the
// round their header claims (the decide step's round is -1).
func pendKey(typ byte, round int) uint64 {
	return uint64(typ)<<32 | uint64(uint32(round))
}

// frameRound extracts a batch's own round claim (ok=false when the
// payload is too short to carry one).
func frameRound(f inFrame) (int, bool) {
	if len(f.payload) < 4 {
		return 0, false
	}
	return int(int32(binary.BigEndian.Uint32(f.payload))), true
}

// recv returns the next batch of the expected type and round, translating
// terminal conditions: connection loss and silence past IOTimeout become
// PhaseTransport errors, engine cancellation becomes PhaseCanceled, and a
// peer's error frame surfaces as the RunError it carries.
//
// Peers walk the schedule without waiting for the coordinator, so on
// consecutive peer→coordinator steps (an Arthur round straight into
// decide, or two Arthur rounds back to back) a fast peer's batch for a
// later collect phase arrives while the current one is still draining.
// Such batches are buffered under their own (type, round) key and served
// when their phase comes; only types a peer can never legitimately send
// are protocol violations.
func (t *Transport) recv(expect byte, round int, what string) (inFrame, *network.RunError) {
	want := pendKey(expect, round)
	if q := t.pending[want]; len(q) > 0 {
		f := q[0]
		t.pending[want] = q[1:]
		return f, nil
	}
	timer := time.NewTimer(t.fleet.opts.IOTimeout)
	defer timer.Stop()
	for {
		select {
		case f := <-t.inbox:
			if f.err != nil {
				return f, t.failf(round, -1, "%v", f.err)
			}
			switch f.typ {
			case frameError:
				var ef errorFrame
				if jerr := json.Unmarshal(f.payload, &ef); jerr != nil {
					return f, t.failf(round, -1, "peer %s error frame: %v", t.conns[f.conn].addr, jerr)
				}
				return f, ef.runError()
			case frameChallenge, frameForward, frameDecision:
				fr, ok := frameRound(f)
				if !ok {
					// Too short to even carry a round: hand it to the caller's
					// decoder, which reports the malformed batch.
					return f, nil
				}
				if f.typ == expect && fr == round {
					return f, nil
				}
				key := pendKey(f.typ, fr)
				t.pending[key] = append(t.pending[key], f)
			default:
				return f, t.failf(round, -1, "peer %s sent frame type 0x%02x awaiting %s", t.conns[f.conn].addr, f.typ, what)
			}
		case <-t.cancel:
			return inFrame{}, &network.RunError{Protocol: t.protocol, Phase: network.PhaseCanceled,
				Round: round, Node: -1, Err: fmt.Errorf("run canceled awaiting %s", what)}
		case <-timer.C:
			return inFrame{}, t.failf(round, -1, "no %s within %v", what, t.fleet.opts.IOTimeout)
		}
	}
}

// next serves the engine one node's item of an inbound batch, receiving
// and decoding the next batch of (typ, round) when the current one is
// used up. Each batch holds one item per node its peer hosts, in
// ascending node order, so the item's position names its node.
func (t *Transport) next(typ byte, round int, what string) (int, *network.RunError) {
	b := &t.in
	if b.next == len(b.msgs)+len(b.decisions) {
		f, rerr := t.recv(typ, round, what)
		if rerr != nil {
			return -1, rerr
		}
		count := len(t.hosted[f.conn])
		b.conn, b.next = f.conn, 0
		var err error
		if typ == frameDecision {
			b.msgs = b.msgs[:0]
			b.decisions, err = decodeDecisions(f.payload, count, b.decisions[:0])
		} else {
			b.decisions = b.decisions[:0]
			b.msgs, err = decodeBatch(f.payload, round, 0, count, b.msgs[:0])
		}
		if err != nil {
			b.msgs, b.decisions = b.msgs[:0], b.decisions[:0]
			return -1, t.failf(round, -1, "peer %s %s batch: %v", t.conns[f.conn].addr, what, err)
		}
	}
	i := b.next
	b.next++
	return i, nil
}

// RecvChallenge implements network.Transport.
func (t *Transport) RecvChallenge(ri int) (int, wire.Message, *network.RunError) {
	i, rerr := t.next(frameChallenge, ri, "challenge")
	if rerr != nil {
		return -1, wire.Message{}, rerr
	}
	return t.hosted[t.in.conn][i], t.in.msgs[i], nil
}

// RecvForward implements network.Transport.
func (t *Transport) RecvForward(ri int) (int, wire.Message, *network.RunError) {
	i, rerr := t.next(frameForward, ri, "forward")
	if rerr != nil {
		return -1, wire.Message{}, rerr
	}
	return t.hosted[t.in.conn][i], t.in.msgs[i], nil
}

// RecvDecision implements network.Transport.
func (t *Transport) RecvDecision() (int, bool, *network.RunError) {
	i, rerr := t.next(frameDecision, -1, "decision")
	if rerr != nil {
		return -1, false, rerr
	}
	return t.hosted[t.in.conn][i], t.in.decisions[i], nil
}

// SendResponse implements network.Transport.
func (t *Transport) SendResponse(ri, node int, m wire.Message) *network.RunError {
	ci := t.assign[node]
	return t.push(ci, frameResponse, ri, 0, len(t.hosted[ci]), node, m)
}

// SendExchange implements network.Transport.
func (t *Transport) SendExchange(ri, from, to int, chal bool, m wire.Message) *network.RunError {
	var flags byte
	if chal {
		flags = flagChal
	}
	ci := t.assign[to]
	return t.push(ci, frameExchange, ri, flags, t.exOwed[ci], to, m)
}

// push appends node's item to connection ci's batch for the step
// (typ, round, flags), which carries owed items when complete, and
// flushes the batch once the last one arrives. Items need no node ids:
// the network.Transport contract delivers them in the batch layout's
// order — nodes ascending, and for exchanges each receiver's neighbors
// ascending — and the peer reads them back in that order.
func (t *Transport) push(ci int, typ byte, round int, flags byte, owed, node int, m wire.Message) *network.RunError {
	b := &t.out[ci]
	if b.items == 0 {
		b.frame = beginFrame(b.frame[:0], t.sess, typ)
		b.frame = appendBatchHeader(b.frame, round, flags, owed)
		b.owed = owed
	}
	var err error
	if b.frame, err = appendMessage(b.frame, m); err != nil {
		return t.failf(round, node, "encoding item: %v", err)
	}
	b.items++
	if b.items < b.owed {
		return nil
	}
	b.items = 0
	return t.send(ci, b.frame)
}

// send writes one whole batch frame to run-local connection ci, applying
// the fleet's LinkFaults policy first. The policy decides per batch — one
// (peer, step) frame, the unit the wire moves — keyed by the batch's
// sequence number on this connection within the run. A delayed batch
// waits out its injected latency on a timer that still honors run
// cancellation (a canceled run returns promptly however large the delay),
// and a dropped batch never reaches the socket — every node the peer
// hosts misses its step, and the emulated partition stalls the session
// until a deadline fires and the run fails with a structured transport
// error. Faults apply only to the run's step batches, never to session
// control frames, so a faulted link degrades or kills runs but cannot
// corrupt a handshake.
func (t *Transport) send(ci int, frame []byte) *network.RunError {
	fc := t.conns[ci]
	if lf := t.fleet.opts.LinkFaults; lf != nil && lf.Enabled() {
		seq := t.seqs[ci]
		t.seqs[ci]++
		delay, drop := lf.Decide(fc.idx, seq)
		if drop {
			fc.framesDropped.Add(1)
			return nil
		}
		if delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-timer.C:
			case <-t.cancel:
				timer.Stop()
				return &network.RunError{Protocol: t.protocol, Phase: network.PhaseCanceled,
					Round: -1, Node: -1, Err: fmt.Errorf("run canceled during injected %v link delay", delay)}
			}
		}
	}
	if err := sealFrame(frame); err != nil {
		return t.failf(-1, -1, "%v", err)
	}
	if err := fc.write(frame); err != nil {
		return t.failf(-1, -1, "%v", err)
	}
	return nil
}

// End implements network.Transport: tell every involved peer how the run
// finished (end on success, the failure otherwise), then release the
// session. The fleet's connections stay up for the next run; a one-shot
// transport (Dial) closes its private fleet.
func (t *Transport) End(failure *network.RunError) {
	if t.ended {
		return
	}
	t.ended = true
	var payload []byte
	typ := frameEnd
	if failure != nil {
		typ = frameError
		payload, _ = json.Marshal(errorFrameOf(failure))
	}
	for _, fc := range t.conns {
		// Best effort: a peer whose connection already died is skipped by
		// the write error path inside sendFrame.
		_ = fc.sendFrame(t.sess, typ, payload)
	}
	t.failed = failure != nil
	t.release(t.failed)
}

// release unregisters the run's session from every involved connection,
// settles the gauges, drops the run's placement and buffers, and (for
// one-shot transports) closes the fleet. Safe to call more than once;
// Begin's error paths use it before End.
func (t *Transport) release(failed bool) {
	if t.sinkDone != nil {
		select {
		case <-t.sinkDone:
			// Already released.
		default:
			close(t.sinkDone)
			for _, fc := range t.conns {
				fc.unregister(t.sess)
				fc.sessionsOpen.Add(-1)
				if failed {
					fc.sessionsFailed.Add(1)
				} else {
					fc.sessionsCompleted.Add(1)
				}
			}
		}
	}
	t.pending, t.out, t.in = nil, nil, inBatch{}
	if t.ownsFleet {
		t.fleet.Close()
	}
}
