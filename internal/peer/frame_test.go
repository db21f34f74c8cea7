package peer

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dip/internal/wire"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cases := []struct {
		sess    uint32
		typ     byte
		payload []byte
	}{
		{0, frameHello, []byte{0, 0, 0, 3}},
		{1, frameEnd, nil},
		{0xFFFFFFFF, frameHelloOK, []byte{0xDE, 0xAD}},
		{42, frameChallenge, []byte{1, 2, 3}},
	}
	for _, tc := range cases {
		buf.Reset()
		if err := writeFrame(&buf, tc.sess, tc.typ, tc.payload); err != nil {
			t.Fatal(err)
		}
		gotSess, gotTyp, gotP, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if gotSess != tc.sess || gotTyp != tc.typ || !bytes.Equal(gotP, tc.payload) {
			t.Fatalf("session %d type 0x%02x: round trip got (%d, 0x%02x, %x)",
				tc.sess, tc.typ, gotSess, gotTyp, gotP)
		}
	}
}

func TestReadFrameRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		frag string
	}{
		{"zero-length", []byte{0, 0, 0, 0}, "shorter than the frame header"},
		{"v1-length", []byte{0, 0, 0, 1, frameEnd}, "shorter than the frame header"},
		{"oversized-claim", []byte{0xFF, 0xFF, 0xFF, 0xFF}, "exceeds"},
		{"truncated-header", []byte{0, 0}, "EOF"},
		{"truncated-body", []byte{0, 0, 0, 9, 0, 0, 0, 1, frameEnd}, "truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := readFrame(bytes.NewReader(tc.raw))
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want mention of %q", err, tc.frag)
			}
		})
	}
}

func TestWriteFrameRejectsOversized(t *testing.T) {
	if err := writeFrame(&bytes.Buffer{}, 1, frameHello, make([]byte, maxFrame)); err == nil {
		t.Fatal("writeFrame accepted a body over the cap")
	}
}

// TestLooksLikeV1 pins the v1-hello heuristic: a protocol-v1 hello frame
// parsed under the session-id layout lands its type byte and opening
// brace in the session id, while current frames never match.
func TestLooksLikeV1(t *testing.T) {
	// A real v1 hello: u32 len | 0x01 | `{"version":1,...}`.
	v1 := []byte{0, 0, 0, 14, 0x01}
	v1 = append(v1, []byte(`{"version":1}`)...)
	sess, typ, _, err := readFrame(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if !looksLikeV1(sess) {
		t.Fatalf("v1 hello parsed as session %#x type 0x%02x not flagged", sess, typ)
	}
	if validFrameType(typ) {
		t.Fatalf("v1 hello byte stream produced a valid type 0x%02x", typ)
	}
	// A genuine current hello must not be flagged.
	hello, err := encodeHello(testHello())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, 7, frameHello, hello); err != nil {
		t.Fatal(err)
	}
	if sess, _, _, err = readFrame(&buf); err != nil {
		t.Fatal(err)
	}
	if looksLikeV1(sess) {
		t.Fatal("current hello misflagged as v1")
	}
}

// TestWriteV1Error pins that the v1-framed rejection is decodable by a
// v1 reader: u32 len | type | payload, carrying the structured error.
func TestWriteV1Error(t *testing.T) {
	var buf bytes.Buffer
	ef := errorFrame{Phase: "transport", Round: -1, Node: -1, Message: "peer speaks wire protocol 3"}
	if err := writeV1Error(&buf, ef); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) < 5 {
		t.Fatalf("frame too short: %x", raw)
	}
	body := binary.BigEndian.Uint32(raw)
	if int(body) != len(raw)-4 {
		t.Fatalf("length prefix %d for %d body bytes", body, len(raw)-4)
	}
	if raw[4] != frameError {
		t.Fatalf("type byte 0x%02x, want error", raw[4])
	}
	var got errorFrame
	if err := json.Unmarshal(raw[5:], &got); err != nil {
		t.Fatal(err)
	}
	if got.Message != ef.Message || got.Phase != ef.Phase {
		t.Fatalf("round trip got %+v", got)
	}
}

// messageBatch encodes msgs as a batch for (round, flags).
func messageBatch(t *testing.T, round int, flags byte, msgs ...wire.Message) []byte {
	t.Helper()
	b := appendBatchHeader(nil, round, flags, len(msgs))
	for _, m := range msgs {
		var err error
		if b, err = appendMessage(b, m); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestDeliveryRoundTrip round-trips the message batch every challenge,
// response and forward frame carries, including empty and odd-width
// messages.
func TestDeliveryRoundTrip(t *testing.T) {
	msgs := []wire.Message{
		{},
		{Data: []byte{0xAB}, Bits: 8},
		{Data: []byte{0xAB, 0x03}, Bits: 11},
	}
	p := messageBatch(t, 3, 0, msgs...)
	got, err := decodeBatch(p, 3, 0, len(msgs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d items, want %d", len(got), len(msgs))
	}
	for i, m := range msgs {
		if got[i].Bits != m.Bits || !bytes.Equal(got[i].Data, m.Data) {
			t.Fatalf("item %d: round trip of %+v got %+v", i, m, got[i])
		}
	}
}

// TestDeliveryRejectsMalformed covers the batch decoder's refusals: a
// batch must carry exactly the items, round and flags the receiver's step
// expects, with nothing cut short and nothing left over.
func TestDeliveryRejectsMalformed(t *testing.T) {
	good := messageBatch(t, 1, 0, wire.Message{Data: []byte{0xFF}, Bits: 8}, wire.Message{Data: []byte{0x01}, Bits: 1})
	hostile := appendBatchHeader(nil, 1, 0, 1)
	hostile = binary.BigEndian.AppendUint32(hostile, uint32(maxMsgBits+1))
	cases := []struct {
		name  string
		p     []byte
		round int
		flags byte
		count int
		frag  string
	}{
		{"too-few-items", good, 1, 0, 3, "batch of 2 items, want 3"},
		{"too-many-items", good, 1, 0, 1, "batch of 2 items, want 1"},
		{"truncated-message", good[:len(good)-1], 1, 0, 2, "truncated"},
		{"truncated-header", good[:6], 1, 0, 2, "header truncated"},
		{"trailing-bytes", append(append([]byte(nil), good...), 0x00), 1, 0, 2, "trailing"},
		{"wrong-round", good, 2, 0, 2, "batch for round 1, want round 2"},
		{"wrong-chal-flag", good, 1, flagChal, 2, "chal flag false, want true"},
		{"hostile-bits", hostile, 1, 0, 1, "claims"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeBatch(tc.p, tc.round, tc.flags, tc.count, nil)
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want mention of %q", err, tc.frag)
			}
		})
	}
	// Malformed messages must not leave the process either.
	if _, err := appendMessage(nil, wire.Message{Data: []byte{1, 2}, Bits: 3}); err == nil {
		t.Fatal("encoded a message whose Data length contradicts Bits")
	}
}

// TestExchangeRoundTrip round-trips exchange batches with and without the
// challenge-exchange flag.
func TestExchangeRoundTrip(t *testing.T) {
	for _, chal := range []bool{false, true} {
		var flags byte
		if chal {
			flags = flagChal
		}
		msgs := []wire.Message{{Data: []byte{0x5A, 0x01}, Bits: 9}, {Data: []byte{0x07}, Bits: 3}}
		p := messageBatch(t, 2, flags, msgs...)
		round, gotFlags, count, _, err := readBatchHeader(p)
		if err != nil {
			t.Fatal(err)
		}
		if round != 2 || gotFlags != flags || count != 2 {
			t.Fatalf("chal=%v header got (%d, 0x%02x, %d)", chal, round, gotFlags, count)
		}
		got, err := decodeBatch(p, 2, flags, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, msgs) {
			t.Fatalf("chal=%v round trip got %+v", chal, got)
		}
	}
}

func TestExchangeRejectsUnknownFlags(t *testing.T) {
	p := messageBatch(t, 0, 0, wire.Message{})
	p[4] = 0x04
	if _, err := decodeBatch(p, 0, 0, 1, nil); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Fatalf("unknown flags: err = %v", err)
	}
}

func TestDecisionRoundTrip(t *testing.T) {
	want := []bool{false, true, true}
	p := appendBatchHeader(nil, -1, 0, len(want))
	for _, d := range want {
		p = appendDecision(p, d)
	}
	got, err := decodeDecisions(p, len(want), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip of %v got %v", want, got)
	}
	bad := append([]byte(nil), p...)
	bad[len(bad)-1] = 2
	if _, err := decodeDecisions(bad, 3, nil); err == nil {
		t.Fatal("accepted decision byte 2")
	}
	if _, err := decodeDecisions(p[:len(p)-1], 3, nil); err == nil {
		t.Fatal("accepted a truncated decision batch")
	}
	if _, err := decodeDecisions(append(append([]byte(nil), p...), 0), 3, nil); err == nil {
		t.Fatal("accepted a decision batch with trailing bytes")
	}
	if _, err := decodeDecisions(p, 2, nil); err == nil {
		t.Fatal("accepted a decision batch with the wrong item count")
	}
	if _, err := decodeDecisions(appendBatchHeader(nil, 0, 0, 0), 0, nil); err == nil {
		t.Fatal("accepted a decision batch claiming a round")
	}
}

// testHello is a small well-formed hello: two hosted nodes of five, one
// with an input.
func testHello() helloFrame {
	return helloFrame{
		Proto:  Version,
		Params: []byte(`{"spec":"echo","bits":8}`),
		Seed:   -7,
		N:      5,
		Nodes: []helloNode{
			{V: 1, Neighbors: []int{0, 2}, Input: wire.Message{Data: []byte{0x80}, Bits: 1}},
			{V: 3, Neighbors: []int{2, 4}},
		},
	}
}

func TestHelloRoundTrip(t *testing.T) {
	want := testHello()
	p, err := encodeHello(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := helloProto(p); got != Version {
		t.Fatalf("helloProto = %d, want %d", got, Version)
	}
	got, err := decodeHello(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	proto, nodes, err := decodeHelloOK(encodeHelloOK(2))
	if err != nil || proto != Version || nodes != 2 {
		t.Fatalf("helloOK round trip = (%d, %d, %v)", proto, nodes, err)
	}
	if _, _, err := decodeHelloOK([]byte{0, 0, 0, 3}); err == nil {
		t.Fatal("accepted a truncated helloOK")
	}
}

// TestHelloRejectsMalformed covers the hello decoder's structural gates:
// counts checked against the bytes that remain, and the ascending orders
// the batch layout depends on.
func TestHelloRejectsMalformed(t *testing.T) {
	mutate := func(f func(*helloFrame)) []byte {
		h := testHello()
		f(&h)
		p, err := encodeHello(h)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := mutate(func(*helloFrame) {})
	hugeCount := append([]byte(nil), good...)
	// count sits after proto, params length, params, seed and n.
	binary.BigEndian.PutUint32(hugeCount[8+len(testHello().Params)+12:], 0xFFFFFFFF)
	cases := []struct {
		name string
		p    []byte
		frag string
	}{
		{"truncated", good[:len(good)-1], "truncated"},
		{"trailing", append(append([]byte(nil), good...), 0), "trailing"},
		{"no-nodes", mutate(func(h *helloFrame) { h.Nodes = nil }), "provisions 0 nodes"},
		{"huge-count", hugeCount, "provisions"},
		{"descending-nodes", mutate(func(h *helloFrame) { h.Nodes[0], h.Nodes[1] = h.Nodes[1], h.Nodes[0] }), "must ascend"},
		{"node-out-of-range", mutate(func(h *helloFrame) { h.Nodes[1].V = 5 }), "must ascend"},
		{"unsorted-neighbors", mutate(func(h *helloFrame) { h.Nodes[0].Neighbors = []int{2, 0} }), "strictly ascending"},
		{"self-neighbor", mutate(func(h *helloFrame) { h.Nodes[0].Neighbors = []int{0, 1} }), "strictly ascending"},
		{"params-overrun", append([]byte{0, 0, 0, 3, 0, 0, 1, 0}, good[8:20]...), "params"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeHello(tc.p)
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want mention of %q", err, tc.frag)
			}
		})
	}
}

// TestHelloProtoRecognizesV2 pins that a protocol-v2 JSON hello is read as
// claiming version 2, so its refusal can name both versions.
func TestHelloProtoRecognizesV2(t *testing.T) {
	v2 := []byte(`{"proto":2,"params":{},"seed":1,"n":2,"nodes":[{"v":0,"neighbors":[1]}]}`)
	if got := helloProto(v2); got != 2 {
		t.Fatalf("helloProto(v2 JSON) = %d, want 2", got)
	}
	if got := helloProto([]byte{0, 0}); got != 0 {
		t.Fatalf("helloProto(short) = %d, want 0", got)
	}
}
