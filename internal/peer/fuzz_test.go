package peer

import (
	"bytes"
	"testing"

	"dip/internal/wire"
)

// fuzzSeed is one named FuzzPeerFrame seed input.
type fuzzSeed struct {
	name string
	data []byte
}

// peerFrameSeeds lists the FuzzPeerFrame seeds, in the order FuzzPeerFrame
// adds them. TestWriteFuzzCorpus persists the same list under
// testdata/fuzz/FuzzPeerFrame.
func peerFrameSeeds(tb testing.TB) []fuzzSeed {
	tb.Helper()
	framed := func(sess uint32, typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, sess, typ, payload); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	batch := func(round int, flags byte, msgs ...wire.Message) []byte {
		b := appendBatchHeader(nil, round, flags, len(msgs))
		for _, m := range msgs {
			var err error
			if b, err = appendMessage(b, m); err != nil {
				tb.Fatal(err)
			}
		}
		return b
	}
	params := []byte(`{"spec":"echo","bits":8}`)
	hello, err := encodeHello(helloFrame{Proto: Version, Params: params, Seed: 7, N: 4,
		Nodes: []helloNode{{V: 0, Neighbors: []int{1, 3}}, {V: 2, Neighbors: []int{1, 3}, Input: wire.Message{Data: []byte{0x02}, Bits: 8}}}})
	if err != nil {
		tb.Fatal(err)
	}
	// firstDegree is the offset of the first hosted node's degree: after
	// proto, params length, params, seed, n, count, and the node's id.
	firstDegree := 8 + len(params) + 16 + 4
	chal := batch(0, 0, wire.Message{Data: []byte{0xAB, 0x01}, Bits: 9}, wire.Message{Data: []byte{0x10}, Bits: 5})
	ex := batch(1, flagChal, wire.Message{Data: []byte{0x42}, Bits: 7}, wire.Message{}, wire.Message{Data: []byte{0xFF}, Bits: 8})
	decisions := appendDecision(appendDecision(appendBatchHeader(nil, -1, 0, 2), true), false)
	return []fuzzSeed{
		// Well-formed frames of every type, across session-id shapes: zero,
		// small counters, and ids whose bytes collide with the v1-hello
		// heuristic territory.
		{"valid-challenge", framed(1, frameChallenge, chal)},
		{"valid-response", framed(0, frameResponse, batch(2, 0, wire.Message{}))},
		{"valid-forward", framed(0xFFFFFFFF, frameForward, batch(1, 0, wire.Message{Data: []byte{0xFF}, Bits: 8}))},
		{"valid-exchange", framed(7, frameExchange, ex)},
		{"valid-decision", framed(0x017B2276, frameDecision, decisions)},
		{"valid-hello", framed(2, frameHello, hello)},
		{"valid-error", framed(3, frameError, []byte(`{"phase":"transport","round":1,"node":2,"message":"x"}`))},
		{"valid-end", framed(4, frameEnd, nil)},
		// A protocol-v1 hello byte stream: under the session-id layout its
		// type byte and opening brace land in the session id (the
		// rejection heuristic's territory).
		{"v1-hello", append([]byte{0, 0, 0, 14, 0x01}, []byte(`{"version":1}`)...)},
		// Malformed shapes: truncated frames, sub-header length claims,
		// oversized length claims, hostile bit counts, trailing garbage.
		{"zero-length", []byte{0, 0, 0, 0}},
		{"sub-header-length", []byte{0, 0, 0, 1, frameEnd}},
		{"oversized-claim", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x10}},
		{"truncated-body", []byte{0, 0, 1, 0, 0, 0, 0, 1, 0x10, 1, 2, 3}},
		{"hostile-bits", framed(1, frameChallenge, append(appendBatchHeader(nil, 0, 0, 1), 0xFF, 0xFF, 0xFF, 0xFF))},
		{"trailing-garbage", framed(9, frameExchange, append(append([]byte(nil), ex...), 0xEE))},
		// Protocol-v3 handshake and batch shapes.
		{"v2-hello", framed(2, frameHello, []byte(`{"proto":2,"seed":7,"n":4,"nodes":[{"v":0,"neighbors":[1]}]}`))},
		{"valid-hello-ok", framed(2, frameHelloOK, encodeHelloOK(2))},
		{"hello-truncated", framed(2, frameHello, hello[:len(hello)-3])},
		{"hello-huge-degree", framed(2, frameHello, append(append([]byte(nil), hello[:firstDegree]...), 0xFF, 0xFF, 0xFF, 0xFF))},
		{"batch-huge-count", framed(1, frameChallenge, append(appendBatchHeader(nil, 0, 0, 1<<31), chal[batchHeader:]...))},
		{"batch-truncated", framed(1, frameChallenge, chal[:len(chal)-1])},
		{"batch-unknown-flags", framed(7, frameExchange, append(appendBatchHeader(nil, 1, 0x80, 0), ex[batchHeader:]...))},
		{"decision-huge-count", framed(5, frameDecision, append(appendBatchHeader(nil, -1, 0, 1<<31), 1, 0))},
		{"two-batches", append(framed(1, frameChallenge, chal), framed(1, frameDecision, decisions)...)},
	}
}

// FuzzPeerFrame throws arbitrary bytes at the full inbound path a peer or
// coordinator exposes to the network: the length-prefixed frame reader
// (session id | type | payload) followed by every payload decoder — the
// batch decoders with whatever header the bytes claim, and the binary
// hello. The invariants under test are memory-safety ones — no panic, no
// allocation driven by an unvalidated length claim, and any decoded
// message obeys the engine invariant len(Data) == ceil(Bits/8) — plus
// canonical round trips; semantic checks belong to the session layer.
func FuzzPeerFrame(f *testing.F) {
	for _, s := range peerFrameSeeds(f) {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bytes.NewReader(data)
		for {
			_, typ, payload, err := readFrame(br)
			if err != nil {
				return
			}
			if len(payload) > maxFrame {
				t.Fatalf("readFrame returned a %d-byte payload past the cap", len(payload))
			}
			switch typ {
			case frameChallenge, frameResponse, frameForward, frameExchange:
				round, flags, count, _, err := readBatchHeader(payload)
				if err != nil {
					continue
				}
				msgs, err := decodeBatch(payload, round, flags, count, nil)
				if err != nil {
					continue
				}
				if len(msgs) != count {
					t.Fatalf("batch of %d items decoded to %d", count, len(msgs))
				}
				// A decoded batch must survive re-encoding byte for byte:
				// the codec round-trips everything it accepts.
				re := appendBatchHeader(nil, round, flags, count)
				for _, m := range msgs {
					if m.Bits < 0 || m.Bits > maxMsgBits || len(m.Data) != (m.Bits+7)/8 {
						t.Fatalf("decoder produced malformed message Bits=%d len(Data)=%d", m.Bits, len(m.Data))
					}
					if re, err = appendMessage(re, m); err != nil {
						t.Fatalf("accepted message fails re-encode: %v", err)
					}
				}
				if !bytes.Equal(re, payload) {
					t.Fatal("batch re-encodes to different bytes")
				}
			case frameDecision:
				_, _, count, _, err := readBatchHeader(payload)
				if err != nil {
					continue
				}
				if ds, err := decodeDecisions(payload, count, nil); err == nil && len(ds) != count {
					t.Fatalf("decision batch of %d items decoded to %d", count, len(ds))
				}
			case frameHello:
				helloProto(payload)
				h, err := decodeHello(payload)
				if err != nil {
					continue
				}
				re, err := encodeHello(h)
				if err != nil {
					t.Fatalf("accepted hello fails re-encode: %v", err)
				}
				if !bytes.Equal(re, payload) {
					t.Fatal("hello re-encodes to different bytes")
				}
			case frameHelloOK:
				decodeHelloOK(payload)
			}
		}
	})
}
