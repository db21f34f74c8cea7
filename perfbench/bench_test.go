package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"dip"
	"dip/internal/graph"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	// Nearest rank: p99 of 1000 samples is the 990th, with 10 beyond it.
	got, err := percentile(sorted, 0.99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	if _, err := percentile(sorted[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples (9 beyond it) was not refused")
	}
	if got, err := percentile(sorted[:21], 0.5); err != nil || got != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", got, err)
	}
	if _, err := percentile(sorted[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond it) was not refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples was not refused")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: spanRequest, Parent: -1, Start: 0, End: 100},
		{Name: spanDecode, Parent: 0, Start: 10, End: 20},
		{Name: spanEngine, Parent: 0, Start: 30, End: 90},
		{Name: spanProver, Parent: 2, Start: 40, End: 50},
		// Overlapping children are covered once.
		{Name: spanPeerStep, Parent: 2, Start: 45, End: 60},
		// A child reaching past its parent only covers the overlap.
		{Name: spanPeerStep, Parent: 2, Start: 85, End: 95},
	}
	got := selfTimes(spans)
	want := []int64{100 - 10 - 60, 10, 60 - 20 - 5, 10, 15, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	// Nested, non-overlapping spans: self times partition the root, which
	// is what the replay's reconciliation row checks.
	nested := spans[:4]
	sum := int64(0)
	for _, v := range selfTimes(nested) {
		sum += v
	}
	if sum != 100 {
		t.Fatalf("self times of a nested tree sum to %d, want the root's 100", sum)
	}
}

func TestStreamsDeterministic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, err := newStream(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newStream(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		other, err := newStream(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		differs := false
		for k := 0; k < 64; k++ {
			if !bytes.Equal(a.body(k), b.body(k)) {
				t.Fatalf("%s: body %d differs between two streams of seed 7", w.name, k)
			}
			differs = differs || !bytes.Equal(a.body(k), other.body(k))
			req, err := a.request(k)
			if err != nil {
				t.Fatalf("%s: body %d does not decode: %v", w.name, k, err)
			}
			if req.Options.Seed != a.requestSeed(k) {
				t.Fatalf("%s: body %d carries seed %d, want %d", w.name, k, req.Options.Seed, a.requestSeed(k))
			}
		}
		if !differs {
			t.Fatalf("%s: seeds 7 and 8 give the same stream", w.name)
		}
	}
	// The fleet and job workloads replay run-cycle64's stream exactly.
	base, _ := newStream(&workloads[0], 3)
	for _, name := range []string{"fleet-cycle64", "jobs-journal"} {
		w, _ := workloadByName(name)
		s, _ := newStream(w, 3)
		for k := 0; k < 16; k++ {
			if !bytes.Equal(s.body(k), base.body(k)) {
				t.Fatalf("%s body %d differs from run-cycle64's", name, k)
			}
		}
	}
}

func TestTemplateMatchesEncoding(t *testing.T) {
	w, _ := workloadByName("run-doubled-mix")
	s, err := newStream(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		req, err := s.request(k)
		if err != nil {
			t.Fatal(err)
		}
		if req.Protocol != mixProtocols[k%len(mixProtocols)] || req.N != mixN {
			t.Fatalf("request %d is %s n=%d", k, req.Protocol, req.N)
		}
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s.body(k), want) {
			t.Fatalf("body %d is not the encoding of its request:\n%s\n%s", k, s.body(k), want)
		}
	}
}

func TestDoubledPoolDistinctSymmetric(t *testing.T) {
	pool, err := doubledPool(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != mixPoolSize {
		t.Fatalf("pool of %d graphs, want %d", len(pool), mixPoolSize)
	}
	for i, g := range pool {
		if g.N() != mixN || !g.IsConnected() {
			t.Fatalf("graph %d: %d vertices, connected %v", i, g.N(), g.IsConnected())
		}
		if graph.FindNontrivialAutomorphism(g) == nil {
			t.Fatalf("graph %d is not symmetric", i)
		}
		for j := 0; j < i; j++ {
			if pool[j].Equal(g) {
				t.Fatalf("graphs %d and %d are equal", j, i)
			}
		}
	}
}

func TestComposedPathMatchesRun(t *testing.T) {
	w, _ := workloadByName("run-doubled-mix")
	s, err := newStream(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{on: true}
	c := &composer{t: tr}
	for k := 0; k < 8; k++ {
		got, err := c.serve(k, s.body(k))
		if err != nil {
			t.Fatal(err)
		}
		want, err := reference(s, k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d: composed report differs from dip.Run", k)
		}
		if err := checkReport(s, k, got); err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
	}
	seen := map[spanName]bool{}
	for _, sp := range tr.spans {
		seen[sp.Name] = true
	}
	for _, name := range []spanName{spanRequest, spanDecode, spanGraph, spanProtocol, spanEngine, spanProver, spanVerifier, spanEncode} {
		if !seen[name] {
			t.Fatalf("no %s span recorded", spanNames[name])
		}
	}
}

func TestCheckReportRejectsWrongAnswer(t *testing.T) {
	w, _ := workloadByName("run-cycle64")
	s, _ := newStream(w, 2)
	body, err := reference(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(s, 0, body); err != nil {
		t.Fatal(err)
	}
	if err := checkReport(s, 1, body); err == nil {
		t.Fatal("request 0's report passed as request 1's")
	}
	rep, _ := dip.DecodeWireReport(bytes.NewReader(body))
	rep.Accepted, rep.RejectingNodes = false, []int{3}
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := checkReport(s, 0, buf.Bytes()); err == nil {
		t.Fatal("a rejecting report passed")
	}
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json to what perfbench
// prints: the same workloads, and per mode the same metric names and
// units.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, perfbench %v", names, workloadNames())
	}
	for _, list := range []struct {
		declared []struct{ Name, Unit string }
		printed  []string
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		var declared []string
		for _, m := range list.declared {
			declared = append(declared, m.Name)
			if units[m.Name] != m.Unit {
				t.Errorf("%s: BENCHMARK.json unit %q, perfbench %q", m.Name, m.Unit, units[m.Name])
			}
		}
		sort.Strings(declared)
		printed := append([]string(nil), list.printed...)
		sort.Strings(printed)
		if !reflect.DeepEqual(declared, printed) {
			t.Errorf("BENCHMARK.json declares %v, perfbench prints %v", declared, printed)
		}
	}
}

func TestQuietest(t *testing.T) {
	steal := []float64{0.5, 9, 0.1, 0.5, 30}
	if got, want := quietest(steal), []int{2, 0, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("quietest %v, want %v", got, want)
	}
	if got := pick([]float64{10, 20, 30, 40, 50}, []int{2, 0, 3}); !reflect.DeepEqual(got, []float64{30, 10, 40}) {
		t.Fatalf("pick %v", got)
	}
}
