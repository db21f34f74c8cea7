// Package peer runs verifier nodes as real network peers: a Server hosts
// nodes in its own OS process and a Fleet implements network.Transport by
// dialing a set of servers, so the engine's networked executor drives
// actual sockets.
//
// The wire protocol (v3) is deliberately minimal: length-prefixed binary
// frames, each stamped with a session id, over TCP. One peer process
// hosts many interleaved sessions — over a shared connection, or over
// per-session connections — and the session id routes every frame to its
// session's state. A session opens with a binary handshake (hello →
// helloOK) that provisions the peer — protocol parameters, run seed, and
// the graph *slice* of every node the peer hosts (its neighbor lists and
// inputs, never the whole graph) — and then both sides walk the
// spec-derived schedule (network.Schedule) in lockstep, so no round
// negotiation ever crosses the wire.
//
// Traffic moves in batches: each schedule step costs one frame per peer
// in each direction it flows, carrying the step's halves of every node
// that peer hosts. Batches carry no node ids — both sides know the hosted
// nodes (ascending) and their neighbor lists (ascending) from the
// handshake, so position in the batch is identity. The schedule itself is
// the round barrier: each side knows exactly which batch the current step
// owes and how many items it holds.
//
// Everything semantic stays on the coordinator: validation, cost
// accounting, fault corruption, and the transcript live in the engine's
// delivery funnel, and peers only ever see post-funnel copies. That is
// what keeps a multi-process run bit-identical to the in-process
// executors (asserted by the equivalence suite) and what lets
// internal/faults injectors corrupt traffic that genuinely crosses
// sockets without the peers cooperating.
package peer

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dip/internal/network"
	"dip/internal/wire"
)

// Version is the wire protocol version. The hello handshake carries it as
// its first field; a peer refuses any other version with a structured
// error naming the version it requires, so mixed-build fleets fail loudly
// at dial time.
const Version = 3

const (
	// maxFrame caps one frame body (session id + type byte + payload): a
	// hostile or corrupted length prefix cannot make a reader allocate
	// more than this.
	maxFrame = 1 << 24
	// maxMsgBits caps one encoded wire.Message's Bits claim; it matches the
	// largest message the engine's protocols can produce with room to
	// spare, while keeping ceil(bits/8) well under maxFrame.
	maxMsgBits = 1 << 26
	// frameHeader is the framing in front of every payload: u32 length,
	// u32 session id, u8 type.
	frameHeader = 9
	// batchHeader is the header of every batch payload: u32 round, u8
	// flags, u32 item count.
	batchHeader = 9
)

// Frame types. The coordinator→peer direction carries hello, response,
// exchange, error, and end frames; the peer→coordinator direction carries
// helloOK, challenge, forward, decision, and error frames. Every step
// frame is a batch over the nodes the peer hosts.
const (
	frameHello     byte = 0x01 // binary hello (encodeHello)
	frameHelloOK   byte = 0x02 // u32 proto | u32 hosted nodes
	frameChallenge byte = 0x10 // message batch: one per hosted node
	frameResponse  byte = 0x11 // message batch: one per hosted node
	frameForward   byte = 0x12 // message batch: one per hosted node
	frameExchange  byte = 0x13 // message batch: per hosted receiver, one per neighbor
	frameDecision  byte = 0x14 // decision batch: one byte per hosted node
	frameError     byte = 0x1E // JSON errorFrame; aborts the session
	frameEnd       byte = 0x1F // empty; normal session completion
)

// flagChal marks an exchange batch as a challenge exchange
// (Spec.ShareChallenges) rather than a response/digest forward.
const flagChal byte = 0x01

// beginFrame appends a frame header for (sess, typ) to b with the length
// left blank; the caller appends the payload and seals the frame with
// sealFrame. Building frames in place lets a batch be written with one
// Write call and no copy.
func beginFrame(b []byte, sess uint32, typ byte) []byte {
	b = append(b, 0, 0, 0, 0)
	b = binary.BigEndian.AppendUint32(b, sess)
	return append(b, typ)
}

// sealFrame fills in the length prefix of a frame begun by beginFrame,
// enforcing the frame cap.
func sealFrame(frame []byte) error {
	body := len(frame) - 4
	if body > maxFrame {
		return fmt.Errorf("peer: frame type 0x%02x body of %d bytes exceeds the %d cap", frame[8], body, maxFrame)
	}
	binary.BigEndian.PutUint32(frame, uint32(body))
	return nil
}

// writeFrame emits one frame: a 4-byte big-endian length covering the
// session id, type byte, and payload, then all three. The frame is
// assembled into one buffer so a single Write call reaches the socket —
// frames from concurrent sessions sharing a connection can never
// interleave as long as each send holds the connection's write lock for
// exactly one Write call.
func writeFrame(w io.Writer, sess uint32, typ byte, payload []byte) error {
	buf := append(beginFrame(make([]byte, 0, frameHeader+len(payload)), sess, typ), payload...)
	if err := sealFrame(buf); err != nil {
		return err
	}
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame, returning its session id, type, and payload.
// The length prefix is validated before any allocation, so a malformed
// or hostile peer cannot trigger an oversized read.
func readFrame(r io.Reader) (uint32, byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	body := binary.BigEndian.Uint32(hdr[:])
	if body < 5 {
		return 0, 0, nil, fmt.Errorf("peer: frame body of %d bytes is shorter than the frame header (5 bytes)", body)
	}
	if body > maxFrame {
		return 0, 0, nil, fmt.Errorf("peer: frame length %d exceeds the %d cap", body, maxFrame)
	}
	buf := make([]byte, body)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, 0, nil, fmt.Errorf("peer: truncated frame (want %d body bytes): %w", body, err)
	}
	return binary.BigEndian.Uint32(buf), buf[4], buf[5:], nil
}

// looksLikeV1 reports whether a frame parsed under the session-id layout
// is actually a protocol-v1 hello. A v1 frame body was `type | payload`,
// so a v1 hello body starts 0x01 '{' — under the current parsing those
// bytes land in the session id's top half. The check only makes sense on
// the first frame of a connection, before any current-protocol traffic
// has been seen.
func looksLikeV1(sess uint32) bool {
	return byte(sess>>24) == frameHello && byte(sess>>16) == '{'
}

// writeV1Error emits an error frame in the *v1* framing (no session id),
// so a protocol-v1 client that just sent its hello decodes the rejection
// as a structured RunError instead of a framing failure.
func writeV1Error(w io.Writer, ef errorFrame) error {
	payload, err := json.Marshal(ef)
	if err != nil {
		return err
	}
	buf := make([]byte, 5+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(1+len(payload)))
	buf[4] = frameError
	copy(buf[5:], payload)
	_, err = w.Write(buf)
	return err
}

// appendMessage encodes m as u32 bit-length plus its data bytes, enforcing
// the engine's message invariant (len(Data) == ceil(Bits/8)) at the
// boundary so a malformed message never leaves the process.
func appendMessage(b []byte, m wire.Message) ([]byte, error) {
	if m.Bits < 0 || m.Bits > maxMsgBits || len(m.Data) != (m.Bits+7)/8 {
		return nil, fmt.Errorf("peer: malformed message: Bits=%d len(Data)=%d", m.Bits, len(m.Data))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(m.Bits))
	return append(b, m.Data...), nil
}

// decodeMessage decodes one message from b, returning it and the rest of
// the buffer. The bit-length claim is capped before the data length is
// derived from it, so a hostile length cannot cause an oversized slice.
func decodeMessage(b []byte) (wire.Message, []byte, error) {
	if len(b) < 4 {
		return wire.Message{}, nil, fmt.Errorf("peer: message header truncated (%d bytes)", len(b))
	}
	bits := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if bits > maxMsgBits {
		return wire.Message{}, nil, fmt.Errorf("peer: message claims %d bits (cap %d)", bits, maxMsgBits)
	}
	nbytes := (bits + 7) / 8
	if len(b) < nbytes {
		return wire.Message{}, nil, fmt.Errorf("peer: message truncated: %d bits need %d bytes, have %d", bits, nbytes, len(b))
	}
	var data []byte
	if nbytes > 0 {
		data = b[:nbytes:nbytes]
	}
	return wire.Message{Data: data, Bits: bits}, b[nbytes:], nil
}

// appendBatchHeader starts a batch payload: the step's round (-1 for the
// decide step), its flags, and the number of items that follow.
func appendBatchHeader(b []byte, round int, flags byte, count int) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(round))
	b = append(b, flags)
	return binary.BigEndian.AppendUint32(b, uint32(count))
}

// readBatchHeader parses a batch header as the sender wrote it, returning
// the items that follow.
func readBatchHeader(p []byte) (round int, flags byte, count int, rest []byte, err error) {
	if len(p) < batchHeader {
		return 0, 0, 0, nil, fmt.Errorf("peer: batch header truncated (%d bytes)", len(p))
	}
	round = int(int32(binary.BigEndian.Uint32(p)))
	flags = p[4]
	count = int(binary.BigEndian.Uint32(p[5:]))
	if flags&^flagChal != 0 {
		return 0, 0, 0, nil, fmt.Errorf("peer: batch flags 0x%02x unknown", flags)
	}
	return round, flags, count, p[batchHeader:], nil
}

// checkBatchHeader parses a batch header and checks it against the step
// the receiver is playing: the round, the flags, and the item count the
// schedule and the handshake say this batch must carry.
func checkBatchHeader(p []byte, round int, flags byte, count int) ([]byte, error) {
	gotRound, gotFlags, gotCount, rest, err := readBatchHeader(p)
	if err != nil {
		return nil, err
	}
	if gotRound != round {
		return nil, fmt.Errorf("peer: batch for round %d, want round %d", gotRound, round)
	}
	if gotFlags != flags {
		return nil, fmt.Errorf("peer: batch chal flag %v, want %v", gotFlags&flagChal != 0, flags&flagChal != 0)
	}
	if gotCount != count {
		return nil, fmt.Errorf("peer: batch of %d items, want %d", gotCount, count)
	}
	return rest, nil
}

// decodeBatch decodes a message batch that must carry exactly count
// messages for (round, flags), appending them to dst. The messages alias
// p. A batch with fewer items is truncated, one with more has trailing
// bytes; either is an error.
func decodeBatch(p []byte, round int, flags byte, count int, dst []wire.Message) ([]wire.Message, error) {
	rest, err := checkBatchHeader(p, round, flags, count)
	if err != nil {
		return dst, err
	}
	for i := 0; i < count; i++ {
		var m wire.Message
		if m, rest, err = decodeMessage(rest); err != nil {
			return dst, fmt.Errorf("peer: batch item %d of %d: %w", i, count, err)
		}
		dst = append(dst, m)
	}
	if len(rest) != 0 {
		return dst, fmt.Errorf("peer: batch has %d trailing bytes", len(rest))
	}
	return dst, nil
}

// appendDecision appends one decision batch item.
func appendDecision(b []byte, d bool) []byte {
	if d {
		return append(b, 1)
	}
	return append(b, 0)
}

// decodeDecisions decodes a decision batch that must carry exactly count
// decisions, appending them to dst.
func decodeDecisions(p []byte, count int, dst []bool) ([]bool, error) {
	rest, err := checkBatchHeader(p, -1, 0, count)
	if err != nil {
		return dst, err
	}
	if len(rest) < count {
		return dst, fmt.Errorf("peer: decision batch truncated: %d of %d items", len(rest), count)
	}
	if len(rest) > count {
		return dst, fmt.Errorf("peer: batch has %d trailing bytes", len(rest)-count)
	}
	for i, b := range rest {
		if b > 1 {
			return dst, fmt.Errorf("peer: decision item %d is 0x%02x (want 0 or 1)", i, b)
		}
		dst = append(dst, b == 1)
	}
	return dst, nil
}

// helloFrame is the coordinator's session-opening handshake: everything a
// peer needs to host its slice of the run. Proto is the wire protocol
// version (Version); a peer rejects any other value with a structured
// error naming the version it requires. Params is an opaque protocol
// parameter blob the peer's SpecBuilder understands (for dippeer: a JSON
// dip.Request without edge lists); Nodes lists the hosted nodes, strictly
// ascending, with their neighbor slices and private inputs — the peer
// never sees the rest of the graph.
//
// Wire layout, big-endian:
//
//	u32 proto | u32 len | params | u64 seed | u32 n | u32 count |
//	count × (u32 v | u32 degree | degree × u32 neighbor | message input)
type helloFrame struct {
	Proto  int
	Params []byte
	Seed   int64
	N      int
	Nodes  []helloNode
}

// helloNode is one hosted node's slice of the run.
type helloNode struct {
	V         int
	Neighbors []int
	Input     wire.Message
}

// encodeHello builds a hello payload.
func encodeHello(h helloFrame) ([]byte, error) {
	size := 24 + len(h.Params)
	for _, hn := range h.Nodes {
		size += 12 + 4*len(hn.Neighbors) + len(hn.Input.Data)
	}
	b := make([]byte, 0, size)
	b = binary.BigEndian.AppendUint32(b, uint32(h.Proto))
	b = binary.BigEndian.AppendUint32(b, uint32(len(h.Params)))
	b = append(b, h.Params...)
	b = binary.BigEndian.AppendUint64(b, uint64(h.Seed))
	b = binary.BigEndian.AppendUint32(b, uint32(h.N))
	b = binary.BigEndian.AppendUint32(b, uint32(len(h.Nodes)))
	for _, hn := range h.Nodes {
		b = binary.BigEndian.AppendUint32(b, uint32(hn.V))
		b = binary.BigEndian.AppendUint32(b, uint32(len(hn.Neighbors)))
		for _, u := range hn.Neighbors {
			b = binary.BigEndian.AppendUint32(b, uint32(u))
		}
		var err error
		if b, err = appendMessage(b, hn.Input); err != nil {
			return nil, fmt.Errorf("node %d input: %w", hn.V, err)
		}
	}
	return b, nil
}

// helloProto returns the protocol version a hello payload claims. A
// protocol-v2 hello was a JSON object whose "proto" field carried the
// version; it is recognized by its opening brace so the refusal can name
// both versions. A payload too short to carry a version claims 0.
func helloProto(p []byte) int {
	if len(p) > 0 && p[0] == '{' {
		var v2 struct {
			Proto int `json:"proto"`
		}
		_ = json.Unmarshal(p, &v2)
		return v2.Proto
	}
	if len(p) < 4 {
		return 0
	}
	return int(binary.BigEndian.Uint32(p))
}

// decodeHello parses a hello payload of the current version. Every count
// is checked against the bytes that remain before anything is allocated,
// and the provisioning is validated structurally: 1 ≤ count ≤ n, hosted
// nodes strictly ascending in [0, n), each neighbor list strictly
// ascending in [0, n) without the node itself — the order both sides
// rely on to lay out batches without node ids.
func decodeHello(p []byte) (helloFrame, error) {
	var h helloFrame
	if len(p) < 8 {
		return h, fmt.Errorf("hello truncated (%d bytes)", len(p))
	}
	h.Proto = int(binary.BigEndian.Uint32(p))
	plen := int(binary.BigEndian.Uint32(p[4:]))
	p = p[8:]
	if plen > len(p) {
		return h, fmt.Errorf("hello params of %d bytes, %d remain", plen, len(p))
	}
	h.Params, p = p[:plen:plen], p[plen:]
	if len(p) < 16 {
		return h, fmt.Errorf("hello truncated after params (%d bytes)", len(p))
	}
	h.Seed = int64(binary.BigEndian.Uint64(p))
	n := binary.BigEndian.Uint32(p[8:])
	count := binary.BigEndian.Uint32(p[12:])
	p = p[16:]
	if n < 1 || n > 1<<30 || count < 1 || count > n {
		return h, fmt.Errorf("hello provisions %d nodes of %d", count, n)
	}
	// Each node takes at least 12 bytes (v, degree, input bit count).
	if uint64(count)*12 > uint64(len(p)) {
		return h, fmt.Errorf("hello claims %d nodes in %d bytes", count, len(p))
	}
	h.N = int(n)
	h.Nodes = make([]helloNode, count)
	prev := -1
	for i := range h.Nodes {
		if len(p) < 8 {
			return h, fmt.Errorf("hello node %d truncated", i)
		}
		v := int(binary.BigEndian.Uint32(p))
		deg := binary.BigEndian.Uint32(p[4:])
		p = p[8:]
		if v <= prev || v >= h.N {
			return h, fmt.Errorf("hello node %d is vertex %d (after %d, of %d): hosted nodes must ascend", i, v, prev, h.N)
		}
		prev = v
		if uint64(deg)*4 > uint64(len(p)) {
			return h, fmt.Errorf("hello node %d claims %d neighbors in %d bytes", v, deg, len(p))
		}
		nbrs := make([]int, deg)
		for j := range nbrs {
			u := int(binary.BigEndian.Uint32(p[4*j:]))
			if u >= h.N || u == v || (j > 0 && u <= nbrs[j-1]) {
				return h, fmt.Errorf("hello node %d neighbor list is not strictly ascending in [0,%d) without %d", v, h.N, v)
			}
			nbrs[j] = u
		}
		p = p[4*deg:]
		input, rest, err := decodeMessage(p)
		if err != nil {
			return h, fmt.Errorf("hello node %d input: %w", v, err)
		}
		p = rest
		h.Nodes[i] = helloNode{V: v, Neighbors: nbrs, Input: input}
	}
	if len(p) != 0 {
		return h, fmt.Errorf("hello has %d trailing bytes", len(p))
	}
	return h, nil
}

// encodeHelloOK builds the peer's handshake acknowledgement: the protocol
// version it speaks and how many nodes it now hosts.
func encodeHelloOK(nodes int) []byte {
	b := binary.BigEndian.AppendUint32(make([]byte, 0, 8), uint32(Version))
	return binary.BigEndian.AppendUint32(b, uint32(nodes))
}

// decodeHelloOK parses a helloOK payload.
func decodeHelloOK(p []byte) (proto, nodes int, err error) {
	if len(p) != 8 {
		return 0, 0, fmt.Errorf("helloOK payload of %d bytes (want 8)", len(p))
	}
	return int(binary.BigEndian.Uint32(p)), int(binary.BigEndian.Uint32(p[4:])), nil
}

// errorFrame carries a structured *network.RunError across the wire, in
// either direction: a peer whose node callback failed reports the original
// phase (challenge, digest, decide), and a coordinator aborting a run
// tells every peer why. It stays JSON in every protocol version, so a
// client of an older version still decodes the refusal naming the version
// this peer requires.
type errorFrame struct {
	Protocol string `json:"protocol"`
	Phase    string `json:"phase"`
	Round    int    `json:"round"`
	Node     int    `json:"node"`
	Message  string `json:"message"`
}

// errorFrameOf projects a RunError onto its wire form.
func errorFrameOf(rerr *network.RunError) errorFrame {
	return errorFrame{
		Protocol: rerr.Protocol,
		Phase:    string(rerr.Phase),
		Round:    rerr.Round,
		Node:     rerr.Node,
		Message:  rerr.Err.Error(),
	}
}

// runError rebuilds the RunError an errorFrame describes.
func (ef errorFrame) runError() *network.RunError {
	return &network.RunError{
		Protocol: ef.Protocol,
		Phase:    network.Phase(ef.Phase),
		Round:    ef.Round,
		Node:     ef.Node,
		Err:      errors.New(ef.Message),
	}
}
