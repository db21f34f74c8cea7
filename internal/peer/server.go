package peer

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"dip/internal/network"
	"dip/internal/wire"
)

// SpecBuilder rebuilds a protocol Spec from the handshake's opaque
// parameter blob. It is injected rather than imported so this package
// stays below the protocol registry in the dependency order: cmd/dippeer
// wires it to dip.BuildSpec, and tests wire it to fixtures. The builder
// must be deterministic in its parameters — both sides of a run construct
// the Spec independently, and bit-identity with the sequential executor
// relies on the constructions agreeing.
type SpecBuilder func(params []byte) (*network.Spec, error)

// Server hosts verifier nodes for remote coordinators. Each accepted
// connection is a frame-multiplexed trunk: every frame carries a session
// id, a demux loop routes it to that session's state in an id-keyed
// table, and each session runs the node-facing half of one proof through
// network.NodeState on its own goroutine with its own deadline and
// cancel. Sessions fail in isolation — a poisoned session reports a
// structured error and leaves the table without disturbing its
// neighbors on the same connection. A single Server handles any number
// of sequential or concurrent sessions over shared or per-session
// connections.
type Server struct {
	// Build rebuilds the Spec a hello frame's parameters describe.
	// Required.
	Build SpecBuilder
	// Opts supplies the shared fleet configuration; the Server uses
	// IOTimeout, which bounds each session's blocking wait — for its next
	// expected frame, or for a write to drain — so a coordinator that
	// goes silent aborts that session instead of pinning its goroutine
	// forever. The connection itself carries no read deadline: an idle
	// trunk between runs is healthy, not stuck.
	Opts Options
	// FailSession, when positive, is a crash-test hook: the
	// FailSession-th accepted session kills the whole process
	// (os.Exit(2)) at its first exchange step — mid-round, after traffic
	// has flowed. The TestPeerFleet process drill uses it to prove a
	// coordinator survives losing a peer with a structured error instead
	// of a hang.
	FailSession int
	// FailSoft, when positive, aborts only the FailSoft-th accepted
	// session at its first exchange step with a structured error, leaving
	// every other session (and the process) running — the isolation
	// counterpart to FailSession's process kill.
	FailSoft int
	// Logf, when set, receives one line per session event.
	Logf func(format string, args ...any)

	mu       sync.Mutex
	conns    map[*srvConn]struct{}
	sessions int // global accept ordinal across all connections
	closed   bool
	wg       sync.WaitGroup
}

// Serve accepts connections on l until the listener closes (Close, or the
// caller closing l directly), which returns nil. Each connection's demux
// loop and each session run on their own goroutines.
func (s *Server) Serve(l net.Listener) error {
	if err := s.Opts.Validate(); err != nil {
		return err
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		c := &srvConn{srv: s, conn: conn, sessions: make(map[uint32]*session)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		if s.conns == nil {
			s.conns = make(map[*srvConn]struct{})
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.demux()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Close aborts every live connection and session and waits for their
// goroutines to return. The caller closes its own listener (Serve then
// returns nil).
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) ioTimeout() time.Duration {
	return s.Opts.withDefaults().IOTimeout
}

// srvFrame is one routed inbound frame.
type srvFrame struct {
	typ     byte
	payload []byte
}

// sessionInboxCap bounds one session's inbound frame queue. The
// coordinator sends a session at most one batch per schedule step, and
// the schedule keeps both sides in lockstep, so the queue holds a few
// frames whatever the run size; if it ever fills, the demux loop applies
// backpressure on the whole connection until the session drains it (or
// exits, which unblocks the demux immediately).
const sessionInboxCap = 16

// srvConn is one accepted connection: the shared write lock and the
// id-keyed session table its demux loop routes into.
type srvConn struct {
	srv  *Server
	conn net.Conn
	// wmu serializes frame writes from this connection's sessions; each
	// send holds it for exactly one writeFrame call, so concurrent
	// sessions' frames never interleave on the wire.
	wmu sync.Mutex

	mu       sync.Mutex
	sessions map[uint32]*session
	torn     bool
}

// validFrameType reports whether typ is a defined frame type.
func validFrameType(typ byte) bool {
	switch typ {
	case frameHello, frameHelloOK, frameChallenge, frameResponse,
		frameForward, frameExchange, frameDecision, frameError, frameEnd:
		return true
	}
	return false
}

// demux reads frames off the connection and routes each to its session by
// id, spawning a new session on a hello for an unknown id. The read loop
// carries no deadline — idle trunks are healthy — and exits when the
// connection closes or a framing violation makes the stream unusable, at
// which point every session on the connection is aborted.
func (c *srvConn) demux() {
	defer c.conn.Close()
	br := bufio.NewReader(c.conn)
	first := true
	for {
		id, typ, payload, err := readFrame(br)
		if err != nil {
			c.teardown(fmt.Errorf("coordinator read: %w", err))
			return
		}
		if !validFrameType(typ) {
			if first && looksLikeV1(id) {
				// A protocol-v1 client just sent its hello. Answer in the v1
				// framing so it decodes the rejection as a structured error
				// naming the version this peer requires.
				c.srv.logf("peer: rejecting protocol v1 connection from %v", c.conn.RemoteAddr())
				c.conn.SetWriteDeadline(time.Now().Add(c.srv.ioTimeout()))
				_ = writeV1Error(c.conn, errorFrame{
					Phase: string(network.PhaseTransport), Round: -1, Node: -1,
					Message: fmt.Sprintf("peer speaks wire protocol %d; protocol 1 connections are not supported — upgrade the client", Version),
				})
				c.teardown(errors.New("protocol v1 connection rejected"))
				return
			}
			c.sendError(id, &network.RunError{Phase: network.PhaseTransport, Round: -1, Node: -1,
				Err: fmt.Errorf("peer: unknown frame type 0x%02x", typ)})
			c.teardown(fmt.Errorf("unknown frame type 0x%02x", typ))
			return
		}
		first = false

		c.mu.Lock()
		st := c.sessions[id]
		if st == nil && typ == frameHello && !c.torn {
			st = c.open(id)
		}
		c.mu.Unlock()
		if st == nil {
			// A frame for a session that already ended (late traffic after a
			// soft failure) or that never opened: drop it. The stream itself
			// is healthy, so the neighbors keep running.
			continue
		}
		select {
		case st.inbox <- srvFrame{typ, payload}:
		case <-st.done:
			// The session exited while we held its frame; drop it.
		}
	}
}

// open registers a new session for id and starts its goroutine. Caller
// holds c.mu.
func (c *srvConn) open(id uint32) *session {
	s := c.srv
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.sessions++
	seq := s.sessions
	s.wg.Add(1)
	s.mu.Unlock()
	st := &session{
		srv: s, c: c, id: id, seq: seq,
		inbox: make(chan srvFrame, sessionInboxCap),
		abort: make(chan struct{}),
		done:  make(chan struct{}),
	}
	c.sessions[id] = st
	go func() {
		defer s.wg.Done()
		st.serve()
	}()
	return st
}

// teardown aborts every session on the connection; their goroutines
// observe the abort on their next wait and exit.
func (c *srvConn) teardown(cause error) {
	c.mu.Lock()
	if c.torn {
		c.mu.Unlock()
		return
	}
	c.torn = true
	aborting := make([]*session, 0, len(c.sessions))
	for _, st := range c.sessions {
		aborting = append(aborting, st)
	}
	c.mu.Unlock()
	if len(aborting) > 0 {
		c.srv.logf("peer: connection %v: aborting %d live sessions: %v", c.conn.RemoteAddr(), len(aborting), cause)
	}
	for _, st := range aborting {
		st.cancel(cause)
	}
}

// unregister removes a finished session from the table.
func (c *srvConn) unregister(id uint32) {
	c.mu.Lock()
	delete(c.sessions, id)
	c.mu.Unlock()
}

// sendError reports a structured failure for one session (best effort:
// the session is ending either way).
func (c *srvConn) sendError(id uint32, rerr *network.RunError) {
	payload, err := json.Marshal(errorFrameOf(rerr))
	if err != nil {
		return
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(c.srv.ioTimeout()))
	_ = writeFrame(c.conn, id, frameError, payload)
}

// session is one run's server half: the hosted nodes, the routed inbox,
// and the per-session deadline and cancel state.
type session struct {
	srv *Server
	c   *srvConn
	id  uint32 // wire session id (unique per connection)
	seq int    // global accept ordinal (failure hooks, logs)

	inbox chan srvFrame
	abort chan struct{} // closed by cancel: connection died or server closing
	done  chan struct{} // closed when the session goroutine exits

	cancelOnce sync.Once
	cause      error

	spec *network.Spec
	// nodes are the hosted NodeStates in ascending node order — the item
	// order of every batch — and nbrs their neighbor lists, ascending, the
	// item order within an exchange batch. exOwed is the exchange batch's
	// item count: the hosted nodes' total degree.
	nodes  []*network.NodeState
	nbrs   [][]int
	exOwed int
	// frame is the outbound batch buffer, reused across steps; msgs is
	// the scratch slice inbound batches decode into.
	frame []byte
	msgs  []wire.Message
}

// cancel aborts the session from outside (connection teardown, server
// close). Idempotent.
func (st *session) cancel(cause error) {
	st.cancelOnce.Do(func() {
		st.cause = cause
		close(st.abort)
	})
}

// serve runs one session to completion: handshake, schedule walk, end.
func (st *session) serve() {
	rerr := st.run()
	close(st.done)
	st.c.unregister(st.id)
	if rerr != nil {
		st.srv.logf("peer: session %d (#%d): %v", st.id, st.seq, rerr)
		st.c.sendError(st.id, rerr)
		return
	}
	st.srv.logf("peer: session %d (#%d): complete", st.id, st.seq)
}

// readNext waits for the session's next routed frame under its own
// deadline, translating coordinator-initiated aborts: an error frame
// surfaces the coordinator's RunError, an end frame mid-run means the run
// finished without us.
func (st *session) readNext() (byte, []byte, *network.RunError) {
	timer := time.NewTimer(st.srv.ioTimeout())
	defer timer.Stop()
	select {
	case f := <-st.inbox:
		if f.typ == frameError {
			var ef errorFrame
			if jerr := json.Unmarshal(f.payload, &ef); jerr != nil {
				return 0, nil, st.failf(-1, "malformed error frame: %v", jerr)
			}
			return 0, nil, ef.runError()
		}
		return f.typ, f.payload, nil
	case <-st.abort:
		return 0, nil, st.failf(-1, "session aborted: %v", st.cause)
	case <-timer.C:
		return 0, nil, st.failf(-1, "timed out after %v waiting for the coordinator", st.srv.ioTimeout())
	}
}

// send writes one frame for this session under the shared write lock.
func (st *session) send(typ byte, payload []byte) *network.RunError {
	return st.write(append(beginFrame(st.frame[:0], st.id, typ), payload...))
}

// write puts one whole frame begun by beginFrame on the wire under the
// shared write lock.
func (st *session) write(frame []byte) *network.RunError {
	st.frame = frame
	if err := sealFrame(frame); err != nil {
		return st.failf(-1, "%v", err)
	}
	st.c.wmu.Lock()
	defer st.c.wmu.Unlock()
	st.c.conn.SetWriteDeadline(time.Now().Add(st.srv.ioTimeout()))
	if _, err := st.c.conn.Write(frame); err != nil {
		return st.failf(-1, "coordinator write: %v", err)
	}
	return nil
}

// beginBatch starts the session's next outbound batch frame.
func (st *session) beginBatch(typ byte, round int, count int) []byte {
	return appendBatchHeader(beginFrame(st.frame[:0], st.id, typ), round, 0, count)
}

// readBatch waits for the step's inbound batch, which must be of type typ
// for (round, flags) and carry count messages.
func (st *session) readBatch(typ byte, round int, flags byte, count int, what string) ([]wire.Message, *network.RunError) {
	gotTyp, payload, rerr := st.readNext()
	if rerr != nil {
		return nil, rerr
	}
	if gotTyp != typ {
		return nil, st.failf(round, "frame type 0x%02x during %s step", gotTyp, what)
	}
	msgs, err := decodeBatch(payload, round, flags, count, st.msgs[:0])
	st.msgs = msgs
	if err != nil {
		return nil, st.failf(round, "%s batch: %v", what, err)
	}
	return msgs, nil
}

// failf builds a PhaseTransport RunError for this session.
func (st *session) failf(round int, format string, args ...any) *network.RunError {
	name := ""
	if st.spec != nil {
		name = st.spec.Name
	}
	return &network.RunError{Protocol: name, Phase: network.PhaseTransport,
		Round: round, Node: -1, Err: fmt.Errorf(format, args...)}
}

func (st *session) run() *network.RunError {
	srv := st.srv
	typ, payload, rerr := st.readNext()
	if rerr != nil {
		return rerr
	}
	if typ != frameHello {
		return st.failf(-1, "first frame type 0x%02x, want hello", typ)
	}
	if proto := helloProto(payload); proto != Version {
		return st.failf(-1, "hello proto %d: this peer requires wire protocol %d", proto, Version)
	}
	hello, err := decodeHello(payload)
	if err != nil {
		return st.failf(-1, "malformed hello: %v", err)
	}
	spec, err := srv.Build(hello.Params)
	if err != nil {
		return &network.RunError{Protocol: "", Phase: network.PhaseSetup, Round: -1, Node: -1,
			Err: fmt.Errorf("peer: building spec: %w", err)}
	}
	st.spec = spec
	steps, err := network.Schedule(spec)
	if err != nil {
		return &network.RunError{Protocol: spec.Name, Phase: network.PhaseSetup, Round: -1, Node: -1,
			Err: fmt.Errorf("peer: compiling schedule: %w", err)}
	}

	for _, hn := range hello.Nodes {
		ns, nerr := network.NewNodeState(spec, hn.V, hello.N, hn.Neighbors, hn.Input, hello.Seed)
		if nerr != nil {
			return st.failf(-1, "node %d: %v", hn.V, nerr)
		}
		st.nodes = append(st.nodes, ns)
		st.nbrs = append(st.nbrs, hn.Neighbors)
		st.exOwed += len(hn.Neighbors)
	}

	if rerr := st.send(frameHelloOK, encodeHelloOK(len(st.nodes))); rerr != nil {
		return rerr
	}
	srv.logf("peer: session %d (#%d): hosting %d of %d nodes (%s)", st.id, st.seq, len(st.nodes), hello.N, spec.Name)

	for _, step := range steps {
		if rerr := st.step(step); rerr != nil {
			return rerr
		}
	}

	// The schedule is done; wait for the coordinator's end frame so the
	// final decision batch is known-delivered before the session closes.
	typ, _, rerr = st.readNext()
	if rerr != nil {
		return rerr
	}
	if typ != frameEnd {
		return st.failf(-1, "post-run frame type 0x%02x, want end", typ)
	}
	return nil
}

// step plays the node-facing half of one schedule step: at most one batch
// in each direction, covering every hosted node.
func (st *session) step(step network.ScheduleStep) *network.RunError {
	switch step.Kind {
	case network.StepChallenge:
		frame := st.beginBatch(frameChallenge, step.Round, len(st.nodes))
		for _, ns := range st.nodes {
			m, rerr := ns.Challenge(step.Round)
			if rerr != nil {
				return rerr
			}
			var err error
			if frame, err = appendMessage(frame, m); err != nil {
				return st.failf(step.Round, "encoding node %d challenge: %v", ns.V(), err)
			}
		}
		return st.write(frame)

	case network.StepRespond:
		msgs, rerr := st.readBatch(frameResponse, step.Round, 0, len(st.nodes), "respond")
		if rerr != nil {
			return rerr
		}
		for i, ns := range st.nodes {
			ns.PushResponse(msgs[i])
		}

	case network.StepExchange:
		srv := st.srv
		if srv.FailSession > 0 && st.seq == srv.FailSession {
			// Crash-test hook: die mid-round, after the handshake and at
			// least one full message phase, without any cleanup — exactly
			// like a peer host losing power.
			srv.logf("peer: session %d (#%d): FailSession crash hook firing", st.id, st.seq)
			os.Exit(2)
		}
		if srv.FailSoft > 0 && st.seq == srv.FailSoft {
			// Isolation hook: poison just this session, mid-round. The
			// structured error reaches only this session's coordinator;
			// every neighbor session keeps running.
			srv.logf("peer: session %d (#%d): FailSoft abort hook firing", st.id, st.seq)
			return st.failf(step.Round, "FailSoft hook: session #%d aborted by configuration", st.seq)
		}
		if st.spec.Rounds[step.Round].Digest != nil {
			frame := st.beginBatch(frameForward, step.Round, len(st.nodes))
			for _, ns := range st.nodes {
				out, rerr := ns.ExchangeOut(step)
				if rerr != nil {
					return rerr
				}
				var err error
				if frame, err = appendMessage(frame, out); err != nil {
					return st.failf(step.Round, "encoding node %d forward: %v", ns.V(), err)
				}
			}
			if rerr := st.write(frame); rerr != nil {
				return rerr
			}
		}
		// Hosted nodes without neighbors are owed nothing: when none has
		// any, the coordinator sends no exchange batch at all.
		var msgs []wire.Message
		if st.exOwed > 0 {
			var flags byte
			if step.Chal {
				flags = flagChal
			}
			var rerr *network.RunError
			if msgs, rerr = st.readBatch(frameExchange, step.Round, flags, st.exOwed, "exchange"); rerr != nil {
				return rerr
			}
		}
		for i, ns := range st.nodes {
			got := make(map[int]wire.Message, len(st.nbrs[i]))
			for _, u := range st.nbrs[i] {
				got[u] = msgs[0]
				msgs = msgs[1:]
			}
			ns.PushExchange(step, got)
		}

	case network.StepDecide:
		frame := st.beginBatch(frameDecision, -1, len(st.nodes))
		for _, ns := range st.nodes {
			d, rerr := ns.Decide()
			if rerr != nil {
				return rerr
			}
			frame = appendDecision(frame, d)
		}
		return st.write(frame)
	}
	return nil
}
