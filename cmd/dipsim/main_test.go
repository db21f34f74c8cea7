package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dip"
	"dip/internal/core"
)

// TestMakeGraphValidatesRandomKinds is the regression test for the
// silent-resize bug: unsatisfiable -n values must error instead of
// producing a graph of a different size.
func TestMakeGraphValidatesRandomKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		kind string
		n    int
		want string // substring of the error; "" = must succeed with g.N()==n
	}{
		{"doubled", 12, "at least 14"},
		{"doubled", 15, "even size"},
		{"doubled", 14, ""},
		{"doubled", 16, ""},
		{"asymmetric", 4, "at least 6"},
		{"asymmetric", 6, ""},
		{"nonsense", 10, "unknown graph kind"},
	}
	for _, tc := range cases {
		g, err := makeGraph(tc.kind, tc.n, rng)
		if tc.want != "" {
			if err == nil {
				t.Fatalf("makeGraph(%q, %d) succeeded, want error", tc.kind, tc.n)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("makeGraph(%q, %d) error %q, want mention of %q", tc.kind, tc.n, err, tc.want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("makeGraph(%q, %d): %v", tc.kind, tc.n, err)
		}
		if g.N() != tc.n {
			t.Fatalf("makeGraph(%q, %d) built %d vertices, want exactly %d", tc.kind, tc.n, g.N(), tc.n)
		}
	}
}

// TestRunReportsGraphErrors drives the CLI entry point end to end with an
// unsatisfiable size.
func TestRunReportsGraphErrors(t *testing.T) {
	var out bytes.Buffer
	err := run(simOptions{protocol: "sym-dmam", kind: "doubled", n: 12, seed: 1}, &out)
	if err == nil || !strings.Contains(err.Error(), "at least 14") {
		t.Fatalf("run with -n 12 returned %v, want the size error", err)
	}
}

// TestKFlagDefaultsToSharedConstant pins the -k default to the shared
// repetition constant (it used to be an out-of-sync literal 30 while the
// library used 40).
func TestKFlagDefaultsToSharedConstant(t *testing.T) {
	o := parseFlags(nil)
	if o.k != core.DefaultGNIRepetitions {
		t.Fatalf("-k default = %d, want core.DefaultGNIRepetitions (%d)", o.k, core.DefaultGNIRepetitions)
	}
}

// TestRunEmitsJSON smoke-tests the machine-readable output: a valid
// dip-report/v1 document with per-round prover bits that sum to the
// aggregate (Validate re-checks the full invariant set).
func TestRunEmitsJSON(t *testing.T) {
	var out bytes.Buffer
	o := simOptions{protocol: "sym-dmam", kind: "cycle", n: 8, k: 1, seed: 1, jsonPath: "-"}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	start := strings.Index(text, "{")
	if start < 0 {
		t.Fatalf("no JSON in output:\n%s", text)
	}
	rec, err := dip.DecodeWireReport(strings.NewReader(text[start:]))
	if err != nil {
		t.Fatalf("bad dip-report/v1 document: %v\n%s", err, text[start:])
	}
	if rec.Schema != dip.ReportSchema {
		t.Fatalf("schema %q, want %q", rec.Schema, dip.ReportSchema)
	}
	if rec.Protocol != "sym-dmam" || rec.Nodes != 8 || len(rec.PerRound) == 0 {
		t.Fatalf("malformed record: %+v", rec)
	}
	if rec.Graph == "" {
		t.Fatalf("graph provenance missing: %+v", rec)
	}
	sum := 0
	for _, r := range rec.PerRound {
		sum += r.ToProver + r.FromProver
	}
	if sum != rec.MaxProverBits {
		t.Fatalf("per-round sum %d != max_prover_bits %d", sum, rec.MaxProverBits)
	}
	if !strings.Contains(text, "per-round bits at node") {
		t.Fatalf("human-readable per-round section missing:\n%s", text)
	}
}

// TestRunMatchesDipRun pins dipsim's plain path to the public API: the
// JSON document dipsim emits must agree with dip.Run on the request
// dipsim reports having executed.
func TestRunMatchesDipRun(t *testing.T) {
	var out bytes.Buffer
	o := simOptions{protocol: "sym-dam", kind: "cycle", n: 10, seed: 7, jsonPath: "-"}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	rec, err := dip.DecodeWireReport(strings.NewReader(text[strings.Index(text, "{"):]))
	if err != nil {
		t.Fatal(err)
	}
	edges := make([][2]int, 10)
	for i := 0; i < 10; i++ {
		edges[i] = [2]int{i, (i + 1) % 10}
	}
	rep, err := dip.Run(dip.Request{Protocol: "sym-dam", N: 10, Edges: edges, Options: dip.Options{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	want := dip.WireReportFrom(rep, 7)
	if rec.Accepted != want.Accepted || rec.MaxProverBits != want.MaxProverBits ||
		rec.TotalProverBits != want.TotalProverBits || rec.MaxNode != want.MaxNode {
		t.Fatalf("dipsim document %+v disagrees with dip.Run %+v", rec, want)
	}
	a, _ := json.Marshal(rec.PerRound)
	b, _ := json.Marshal(want.PerRound)
	if !bytes.Equal(a, b) {
		t.Fatalf("per-round breakdowns differ: %s vs %s", a, b)
	}
}

// TestRunWithFault drives the -fault path: an honest sym-dam run with
// every prover message bit-flipped must be rejected, and the JSON record
// must carry the fault configuration.
func TestRunWithFault(t *testing.T) {
	var out bytes.Buffer
	o := simOptions{protocol: "sym-dam", kind: "doubled", n: 14, seed: 1, jsonPath: "-",
		fault: "bitflip", faultPlane: "prover", faultProb: 1}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "fault: bitflip on prover plane") {
		t.Fatalf("fault banner missing:\n%s", text)
	}
	rec, err := dip.DecodeWireReport(strings.NewReader(text[strings.Index(text, "{"):]))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Accepted {
		t.Fatal("bit-flipped sym-dam run was accepted")
	}
	if len(rec.RejectingNodes) == 0 {
		t.Fatalf("rejected run lists no rejecting nodes: %+v", rec)
	}
	if rec.Fault != "bitflip" || rec.FaultPlane != "prover" || rec.FaultProb != 1 {
		t.Fatalf("fault fields not recorded: %+v", rec)
	}
}

// TestRunRejectsBadFaultFlags covers the -fault validation paths.
func TestRunRejectsBadFaultFlags(t *testing.T) {
	cases := []struct {
		name string
		o    simOptions
		want string
	}{
		{"unknown class", simOptions{fault: "gamma-ray"}, "unknown fault class"},
		{"unknown plane", simOptions{fault: "bitflip", faultPlane: "carrier"}, "unknown fault plane"},
		{"unsupported plane", simOptions{fault: "nodeswap", faultPlane: "exchange"}, "does not support"},
		{"bad prob", simOptions{fault: "bitflip", faultPlane: "prover", faultProb: 2}, "outside [0, 1]"},
		{"NaN prob", simOptions{fault: "bitflip", faultPlane: "prover", faultProb: math.NaN()}, "outside [0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.o.protocol = "sym-dam"
			tc.o.kind = "doubled"
			tc.o.n = 14
			tc.o.seed = 1
			var out bytes.Buffer
			err := run(tc.o, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run returned %v, want error containing %q", err, tc.want)
			}
		})
	}
}
