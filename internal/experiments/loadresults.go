package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"dip/internal/stats"
)

// LoadSchema identifies the machine-readable load-test format emitted by
// cmd/dipload: throughput and latency quantiles of a run against a
// cmd/dipserve instance. Unlike dip-bench/v1 files it is NOT reproducible
// byte-for-byte — wall-clock timings depend on the host — but its shape
// and invariants are, and dipbench -validate checks them.
const LoadSchema = "dip-load/v1"

// LoadResultsFile is the versioned record of one dipload run.
type LoadResultsFile struct {
	Schema string `json:"schema"`
	Tool   string `json:"tool"`
	// Target is the base URL the load was sent to.
	Target string `json:"target,omitempty"`
	// Seed is the base seed; request i runs with DeriveSeed(seed, i).
	Seed int64 `json:"seed"`
	// Concurrency is the number of in-flight client workers.
	Concurrency int `json:"concurrency"`
	// GOMAXPROCS records the generator process's scheduler width during the
	// run (set with the GOMAXPROCS environment variable, e.g. GOMAXPROCS=4)
	// — provenance for comparing throughput numbers across sweeps (a
	// single-threaded generator saturates well before the service does).
	// Zero in files from older tool builds.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// Requests counts completed requests (2xx responses with a decodable
	// report). Errors counts requests the service (or its answer)
	// actually failed: a non-retryable error status or an undecodable
	// report. Exhausted counts requests abandoned after the retry budget
	// ran out against 503 admission overflows — a merely-overloaded
	// service, NOT a protocol failure; consumers judging correctness
	// must read Errors, consumers judging capacity read Exhausted.
	// Retries counts 503-and-retry round trips (each eventually
	// succeeded, exhausted its budget, or is in Errors). Dropped counts
	// transport-level connection failures in request units (a dropped
	// batch of k items is k) — the acceptance gate requires it to be
	// zero.
	Requests  int `json:"requests"`
	Errors    int `json:"errors"`
	Exhausted int `json:"exhausted"`
	Retries   int `json:"retries"`
	Dropped   int `json:"dropped"`
	// WallMS is the whole run's wall-clock and ThroughputRPS the completed
	// requests per second over it.
	WallMS        float64              `json:"wall_ms"`
	ThroughputRPS float64              `json:"throughput_rps"`
	Protocols     []LoadProtocolResult `json:"protocols"`
	// BatchSize and Batches describe a `dipload -batch` run: requests were
	// sent as Batches bodies of up to BatchSize items each through
	// /v1/batch. Both are zero for plain (one-request-per-body) runs —
	// readers of older files see exactly that.
	BatchSize int `json:"batch_size,omitempty"`
	Batches   int `json:"batches,omitempty"`
	// RequestBench, when present, records the allocs/op of the in-process
	// request path (dip.MeasureRequestAllocs) measured alongside the run;
	// `dipbench -bench-check` diffs it against a fresh measurement.
	RequestBench *RequestBench `json:"request_bench,omitempty"`
}

// RequestBench is the allocation budget of the full request path —
// dispatch, setup (cached), engine run, report assembly — on the load
// generator's reference workload. Like EngineBench it is a reproducible
// function of the code, so it belongs in committed artifacts and gates
// regressions.
type RequestBench struct {
	// Workload names the measured configuration.
	Workload string `json:"workload"`
	// Nodes is the instance size of the workload graph.
	Nodes int `json:"nodes"`
	// Trials is the number of measured runs (after one warmup run).
	Trials int `json:"trials"`
	// AllocsPerOp is the steady-state heap allocations per request.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// CheckRequestAllocs compares a fresh request-path measurement against a
// recorded budget, failing beyond AllocRegressionLimit — the request-path
// twin of CheckEngineAllocs.
func CheckRequestAllocs(recorded *RequestBench, measuredAllocs float64) error {
	if recorded == nil {
		return fmt.Errorf("request bench: results file has no request_bench record to check against")
	}
	if recorded.AllocsPerOp <= 0 {
		return fmt.Errorf("request bench: recorded allocs/op %v is not positive", recorded.AllocsPerOp)
	}
	limit := recorded.AllocsPerOp * (1 + AllocRegressionLimit)
	if measuredAllocs > limit {
		return fmt.Errorf("request bench: %.1f allocs/op exceeds recorded %.1f by more than %d%% (limit %.1f)",
			measuredAllocs, recorded.AllocsPerOp, int(AllocRegressionLimit*100), limit)
	}
	return nil
}

// LoadProtocolResult is the per-protocol slice of a load run.
type LoadProtocolResult struct {
	Protocol string `json:"protocol"`
	Requests int    `json:"requests"`
	Errors   int    `json:"errors"`
	// Exhausted mirrors the top-level field per protocol: requests
	// whose 503-retry budget ran out (overload, not failure).
	Exhausted     int            `json:"exhausted,omitempty"`
	ThroughputRPS float64        `json:"throughput_rps"`
	LatencyMS     LatencySummary `json:"latency_ms"`
	// BatchLatencyMS, present only in -batch runs, summarizes whole-batch
	// round trips (LatencyMS then holds the per-request approximation:
	// batch latency divided by batch size, queue-full retry time included
	// in the mean like every other sample).
	BatchLatencyMS *LatencySummary `json:"batch_latency_ms,omitempty"`
}

// LatencySummary is a quantile sketch of request latencies, in
// milliseconds.
type LatencySummary struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// SummarizeLatencies computes the quantile sketch of a latency sample.
func SummarizeLatencies(durations []time.Duration) LatencySummary {
	if len(durations) == 0 {
		return LatencySummary{}
	}
	ms := make([]float64, len(durations))
	for i, d := range durations {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return LatencySummary{
		P50:  stats.Percentile(ms, 50),
		P95:  stats.Percentile(ms, 95),
		P99:  stats.Percentile(ms, 99),
		Mean: stats.Mean(ms),
		Max:  ms[len(ms)-1],
	}
}

// Validate checks the structural invariants of a decoded load file.
func (f *LoadResultsFile) Validate() error {
	if f.Schema != LoadSchema {
		return fmt.Errorf("load: schema %q, want %q", f.Schema, LoadSchema)
	}
	if f.Concurrency < 1 {
		return fmt.Errorf("load: concurrency %d", f.Concurrency)
	}
	if f.GOMAXPROCS < 0 {
		return fmt.Errorf("load: gomaxprocs %d", f.GOMAXPROCS)
	}
	if f.Requests < 0 || f.Errors < 0 || f.Exhausted < 0 || f.Retries < 0 || f.Dropped < 0 {
		return fmt.Errorf("load: negative counters")
	}
	if f.Requests == 0 {
		return fmt.Errorf("load: no completed requests")
	}
	if f.WallMS <= 0 {
		return fmt.Errorf("load: wall_ms %v", f.WallMS)
	}
	if f.ThroughputRPS < 0 {
		return fmt.Errorf("load: throughput %v", f.ThroughputRPS)
	}
	if len(f.Protocols) == 0 {
		return fmt.Errorf("load: no per-protocol results")
	}
	total, totalExhausted := 0, 0
	for i, p := range f.Protocols {
		if p.Protocol == "" {
			return fmt.Errorf("load: protocol %d unnamed", i)
		}
		if p.Requests < 0 || p.Errors < 0 || p.Exhausted < 0 {
			return fmt.Errorf("load: protocol %q: negative counters", p.Protocol)
		}
		l := p.LatencyMS
		if l.P50 < 0 || l.P50 > l.P95 || l.P95 > l.P99 || l.P99 > l.Max {
			return fmt.Errorf("load: protocol %q: non-monotone latency quantiles %+v", p.Protocol, l)
		}
		if b := p.BatchLatencyMS; b != nil {
			if b.P50 < 0 || b.P50 > b.P95 || b.P95 > b.P99 || b.P99 > b.Max {
				return fmt.Errorf("load: protocol %q: non-monotone batch latency quantiles %+v", p.Protocol, *b)
			}
		}
		total += p.Requests
		totalExhausted += p.Exhausted
	}
	if total != f.Requests {
		return fmt.Errorf("load: per-protocol requests sum to %d, total %d", total, f.Requests)
	}
	if totalExhausted != f.Exhausted {
		return fmt.Errorf("load: per-protocol exhausted sum to %d, total %d", totalExhausted, f.Exhausted)
	}
	if f.BatchSize < 0 || f.Batches < 0 {
		return fmt.Errorf("load: negative batch counters")
	}
	if (f.BatchSize == 0) != (f.Batches == 0) {
		return fmt.Errorf("load: batch_size %d with batches %d", f.BatchSize, f.Batches)
	}
	if rb := f.RequestBench; rb != nil && rb.AllocsPerOp <= 0 {
		return fmt.Errorf("load: request_bench allocs/op %v is not positive", rb.AllocsPerOp)
	}
	return nil
}

// Encode writes the file as stable, indented JSON with a trailing newline.
func (f *LoadResultsFile) Encode(w io.Writer) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFile encodes the results to path.
func (f *LoadResultsFile) WriteFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Encode(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// DecodeLoadResults parses and validates a load file.
func DecodeLoadResults(r io.Reader) (*LoadResultsFile, error) {
	var f LoadResultsFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// ReadLoadResultsFile decodes and validates the load file at path.
func ReadLoadResultsFile(path string) (*LoadResultsFile, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return DecodeLoadResults(in)
}
