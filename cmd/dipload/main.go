// Command dipload is the load generator for cmd/dipserve: it fires a fixed
// number of protocol-run requests at a running service from a pool of
// concurrent clients, retries admission overflows (503), decodes every
// dip-report/v1 answer, and reports throughput and latency quantiles as a
// dip-load/v1 document.
//
//	dipload -url http://127.0.0.1:8123 -protocol sym-dmam -n 64 -c 8 -requests 2000 -json LOAD_seed1.json
//
// Request i runs with seed DeriveSeed(-seed, i), so the request stream is
// reproducible; the timings of course are not. Transport-level failures
// (dropped connections) are counted separately from protocol errors — a
// healthy service under overload answers 503, it never drops.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dip"
	"dip/internal/experiments"
	"dip/internal/stats"
)

type options struct {
	url       string
	protocols []string
	n         int
	clients   int
	requests  int
	batch     int
	chaos     int
	seed      int64
	wait      time.Duration
	jsonPath  string
	reqBench  bool
	// jobsMode drives the async tier instead of /v1/run: "submit" only
	// enqueues (and records the ids), "poll" verifies a recorded id set,
	// "full" does both in one process. Empty stays in load mode.
	jobsMode string
	// jobsFile is the id manifest submit writes and poll reads.
	jobsFile string
	// pollWait bounds how long poll waits for the whole id set to settle.
	pollWait time.Duration
}

// supportedProtocols maps the protocol names dipload can generate
// instances for: the symmetry family on cycle graphs (always symmetric,
// so the honest prover accepts).
var supportedProtocols = map[string]bool{
	"sym-dmam": true,
	"sym-dam":  true,
	"sym-lcp":  true,
	"sym-rpls": true,
}

func main() {
	var o options
	var protoList string
	flag.StringVar(&o.url, "url", "http://127.0.0.1:8123", "dipserve base URL")
	flag.StringVar(&protoList, "protocol", "sym-dmam", "comma-separated protocols to exercise (sym-dmam, sym-dam, sym-lcp, sym-rpls)")
	flag.IntVar(&o.n, "n", 64, "vertices per instance (cycle graph)")
	flag.IntVar(&o.clients, "c", 8, "concurrent clients")
	flag.IntVar(&o.requests, "requests", 2000, "total requests")
	flag.IntVar(&o.batch, "batch", 0, "send batches of this many same-protocol requests through /v1/batch (0 = one request per body)")
	flag.IntVar(&o.chaos, "chaos", 0, "chaos mode: fire this many adversarial HTTP exchanges (seed-deterministic scenarios) instead of a load run, then gate on service health")
	flag.Int64Var(&o.seed, "seed", 1, "base seed (request i uses DeriveSeed(seed, i))")
	flag.DurationVar(&o.wait, "wait", 10*time.Second, "wait up to this long for the service to report ready")
	flag.StringVar(&o.jsonPath, "json", "", "write dip-load/v1 results to this file")
	flag.BoolVar(&o.reqBench, "request-bench", false, "measure the in-process request path's allocs/op and embed it in -json output")
	flag.StringVar(&o.jobsMode, "jobs", "", "async job mode: submit (enqueue and record ids), poll (verify a recorded id set), full (both)")
	flag.StringVar(&o.jobsFile, "jobs-file", "", "job id manifest: -jobs submit writes it, -jobs poll reads it")
	flag.DurationVar(&o.pollWait, "poll-wait", time.Minute, "bound on waiting for the whole job set to settle in -jobs poll/full")
	flag.Parse()

	for _, p := range strings.Split(protoList, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !supportedProtocols[p] {
			fmt.Fprintf(os.Stderr, "dipload: unsupported protocol %q\n", p)
			os.Exit(2)
		}
		o.protocols = append(o.protocols, p)
	}
	if len(o.protocols) == 0 || o.n < 3 || o.clients < 1 || o.requests < 1 || o.batch < 0 || o.chaos < 0 {
		fmt.Fprintln(os.Stderr, "dipload: need at least one protocol, -n >= 3, -c >= 1, -requests >= 1, -batch >= 0, -chaos >= 0")
		os.Exit(2)
	}

	if o.chaos > 0 {
		if err := runChaos(o); err != nil {
			fmt.Fprintf(os.Stderr, "dipload: chaos: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if o.jobsMode != "" {
		if err := runJobs(o); err != nil {
			fmt.Fprintf(os.Stderr, "dipload: jobs: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "dipload: %v\n", err)
		os.Exit(1)
	}
}

// protoStats collects one protocol's outcomes across workers. The four
// outcome classes are disjoint: errors are protocol/service failures,
// exhausted are retry budgets spent against 503s (overload, not
// failure), dropped are transport losses; completed = requests -
// errors - exhausted - dropped.
type protoStats struct {
	mu        sync.Mutex
	requests  int
	errors    int
	exhausted int
	dropped   int
	latencies []time.Duration
	// batchLatencies holds whole-batch round trips in -batch mode;
	// latencies then holds the per-request approximation (batch latency
	// divided by item count), so both views stay comparable across modes.
	batchLatencies []time.Duration
}

func run(o options) error {
	if err := waitReady(o.url, o.wait); err != nil {
		return err
	}

	// Pre-build every request body before the clock starts: the generator
	// should spend the measured window driving the service, not encoding
	// JSON on the same cores.
	edges := make([][2]int, o.n)
	for i := 0; i < o.n; i++ {
		edges[i] = [2]int{i, (i + 1) % o.n}
	}
	var bodies [][]byte
	if o.batch == 0 {
		bodies = make([][]byte, o.requests)
		for i := 0; i < o.requests; i++ {
			req := dip.Request{
				Protocol: o.protocols[i%len(o.protocols)],
				N:        o.n,
				Edges:    edges,
				Options:  dip.Options{Seed: stats.DeriveSeed(o.seed, int64(i))},
			}
			b, err := json.Marshal(req)
			if err != nil {
				return err
			}
			bodies[i] = b
		}
	}

	perProto := make(map[string]*protoStats, len(o.protocols))
	for _, p := range o.protocols {
		perProto[p] = &protoStats{}
	}

	// One warm connection per client: the default Transport keeps only two
	// idle connections per host, so higher concurrency would constantly
	// re-dial and the measured latency would be TCP churn, not the service.
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        o.clients,
			MaxIdleConnsPerHost: o.clients,
		},
	}
	var batches []batchJob
	if o.batch > 0 {
		var err error
		if batches, err = buildBatches(o); err != nil {
			return err
		}
	}

	var next, retries, dropped, errs, exhausted atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < o.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if o.batch > 0 {
				for {
					i := next.Add(1) - 1
					if i >= int64(len(batches)) {
						return
					}
					job := batches[i]
					ps := perProto[job.proto]
					reqStart := time.Now()
					good, out, retried := fireBatch(client, o.url, job.body, job.count, stats.DeriveSeed(o.seed, i))
					lat := time.Since(reqStart)
					retries.Add(retried)
					// All counters are per-item: one batch body carries
					// job.count requests, so a dropped or exhausted batch
					// moves its class by job.count, never by 1.
					var bad, spent, lost int
					switch out {
					case fireOK:
						bad = job.count - good
					case fireExhausted:
						spent = job.count
					case fireDropped:
						lost = job.count
					default:
						bad = job.count - good
					}
					// Per-request latency approximation: the batch round
					// trip spread evenly over its items (retry waits
					// included, like every plain-mode sample).
					per := lat / time.Duration(job.count)
					ps.mu.Lock()
					ps.requests += job.count
					ps.errors += bad
					ps.exhausted += spent
					ps.dropped += lost
					ps.batchLatencies = append(ps.batchLatencies, lat)
					for k := 0; k < job.count; k++ {
						ps.latencies = append(ps.latencies, per)
					}
					ps.mu.Unlock()
					errs.Add(int64(bad))
					exhausted.Add(int64(spent))
					dropped.Add(int64(lost))
				}
			}
			for {
				i := next.Add(1) - 1
				if i >= int64(o.requests) {
					return
				}
				proto := o.protocols[int(i)%len(o.protocols)]
				ps := perProto[proto]
				reqStart := time.Now()
				out, retried := fire(client, o.url, bodies[i], stats.DeriveSeed(o.seed, i))
				lat := time.Since(reqStart)
				retries.Add(retried)
				ps.mu.Lock()
				ps.requests++
				switch out {
				case fireErr:
					ps.errors++
				case fireExhausted:
					ps.exhausted++
				case fireDropped:
					ps.dropped++
				}
				ps.latencies = append(ps.latencies, lat)
				ps.mu.Unlock()
				switch out {
				case fireErr:
					errs.Add(1)
				case fireExhausted:
					exhausted.Add(1)
				case fireDropped:
					dropped.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	completed := 0
	var protoResults []experiments.LoadProtocolResult
	names := make([]string, 0, len(perProto))
	for name := range perProto {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ps := perProto[name]
		good := ps.requests - ps.errors - ps.exhausted - ps.dropped
		completed += good
		pr := experiments.LoadProtocolResult{
			Protocol:      name,
			Requests:      good,
			Errors:        ps.errors,
			Exhausted:     ps.exhausted,
			ThroughputRPS: float64(good) / wall.Seconds(),
			LatencyMS:     experiments.SummarizeLatencies(ps.latencies),
		}
		if len(ps.batchLatencies) > 0 {
			bl := experiments.SummarizeLatencies(ps.batchLatencies)
			pr.BatchLatencyMS = &bl
		}
		protoResults = append(protoResults, pr)
	}

	results := &experiments.LoadResultsFile{
		Schema:        experiments.LoadSchema,
		Tool:          "dipload",
		Target:        o.url,
		Seed:          o.seed,
		Concurrency:   o.clients,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Requests:      completed,
		Errors:        int(errs.Load()),
		Exhausted:     int(exhausted.Load()),
		Retries:       int(retries.Load()),
		Dropped:       int(dropped.Load()),
		WallMS:        float64(wall) / float64(time.Millisecond),
		ThroughputRPS: float64(completed) / wall.Seconds(),
		Protocols:     protoResults,
	}
	if o.batch > 0 {
		results.BatchSize = o.batch
		results.Batches = len(batches)
	}
	if o.reqBench {
		allocs, err := dip.MeasureRequestAllocs()
		if err != nil {
			return fmt.Errorf("request bench: %w", err)
		}
		results.RequestBench = &experiments.RequestBench{
			Workload:    "sym-dmam request, cycle graph, fresh seed per run",
			Nodes:       64,
			Trials:      50,
			AllocsPerOp: allocs,
		}
		fmt.Printf("dipload: request bench %.0f allocs/op\n", allocs)
	}
	if err := results.Validate(); err != nil {
		return err
	}

	fmt.Printf("dipload: %d requests in %v (%.1f req/s, c=%d), %d errors, %d exhausted, %d retries, %d dropped\n",
		completed, wall.Round(time.Millisecond), results.ThroughputRPS, o.clients,
		results.Errors, results.Exhausted, results.Retries, results.Dropped)
	for _, pr := range results.Protocols {
		fmt.Printf("  %-10s %5d ok  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms  max %6.2fms\n",
			pr.Protocol, pr.Requests, pr.LatencyMS.P50, pr.LatencyMS.P95, pr.LatencyMS.P99, pr.LatencyMS.Max)
		if b := pr.BatchLatencyMS; b != nil {
			fmt.Printf("  %-10s batch(%d): p50 %6.2fms  p95 %6.2fms  p99 %6.2fms  max %6.2fms\n",
				"", o.batch, b.P50, b.P95, b.P99, b.Max)
		}
	}
	if o.jsonPath != "" {
		if err := results.WriteFile(o.jsonPath); err != nil {
			return err
		}
		fmt.Printf("dipload: wrote %s\n", o.jsonPath)
	}
	if results.Dropped > 0 {
		return fmt.Errorf("%d dropped connections", results.Dropped)
	}
	return nil
}

// fireOutcome classifies one request's fate. The classes matter because
// they answer different questions: fireErr means the service (or its
// answer) is wrong, fireExhausted means it is merely overloaded — its
// every 503 was a correct admission answer — and fireDropped means the
// transport failed underneath the exchange.
type fireOutcome int

const (
	fireOK fireOutcome = iota
	fireErr
	fireExhausted
	fireDropped
)

// fire sends one run request, retrying 503 admission overflows on the
// capped-exponential schedule in backoff.go (seeded jitter, Retry-After
// honored); retried counts the overflow round-trips. An exhausted retry
// budget is its own outcome, not an error: 50 polite 503s are a
// capacity statement, not a protocol failure.
func fire(client *http.Client, url string, body []byte, seed int64) (out fireOutcome, retried int64) {
	const maxAttempts = 50
	for attempt := 0; attempt < maxAttempts; attempt++ {
		resp, err := client.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return fireDropped, retried
		}
		switch resp.StatusCode {
		case http.StatusOK:
			_, derr := dip.DecodeWireReport(resp.Body)
			drain(resp)
			if derr != nil {
				return fireErr, retried
			}
			return fireOK, retried
		case http.StatusServiceUnavailable:
			hint := retryAfterHint(resp)
			drain(resp)
			retried++
			time.Sleep(retryDelay(seed, attempt, hint))
		default:
			drain(resp)
			return fireErr, retried
		}
	}
	return fireExhausted, retried
}

// drain reads the body to EOF and closes it, so the transport can return
// the connection to the idle pool instead of tearing it down.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// waitReady polls /readyz until the service answers 200.
func waitReady(url string, bound time.Duration) error {
	deadline := time.Now().Add(bound)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("service at %s not ready: %w", url, err)
			}
			return fmt.Errorf("service at %s not ready", url)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// batchJob is one pre-marshaled /v1/batch body: count same-protocol
// requests sharing the instance, seeds preserved from the plain-mode
// stream (request i still runs with DeriveSeed(seed, i)).
type batchJob struct {
	proto string
	body  []byte
	count int
}

// buildBatches groups the request stream by protocol and chunks each
// group into bodies of up to o.batch items.
func buildBatches(o options) ([]batchJob, error) {
	edges := make([][2]int, o.n)
	for i := 0; i < o.n; i++ {
		edges[i] = [2]int{i, (i + 1) % o.n}
	}
	perProto := make(map[string][]dip.Request, len(o.protocols))
	for i := 0; i < o.requests; i++ {
		p := o.protocols[i%len(o.protocols)]
		perProto[p] = append(perProto[p], dip.Request{
			Protocol: p,
			N:        o.n,
			Edges:    edges,
			Options:  dip.Options{Seed: stats.DeriveSeed(o.seed, int64(i))},
		})
	}
	var jobs []batchJob
	for _, p := range o.protocols {
		reqs := perProto[p]
		perProto[p] = nil
		for len(reqs) > 0 {
			size := o.batch
			if size > len(reqs) {
				size = len(reqs)
			}
			body, err := json.Marshal(struct {
				Requests []dip.Request `json:"requests"`
			}{reqs[:size]})
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, batchJob{proto: p, body: body, count: size})
			reqs = reqs[size:]
		}
	}
	return jobs, nil
}

// fireBatch sends one batch body, retrying 503 overflows like fire. good
// counts elements that decoded as dip-report/v1 documents (meaningful
// only for fireOK); the outcome classifies the whole batch, and the
// caller charges it per item.
func fireBatch(client *http.Client, url string, body []byte, count int, seed int64) (good int, out fireOutcome, retried int64) {
	const maxAttempts = 50
	for attempt := 0; attempt < maxAttempts; attempt++ {
		resp, err := client.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, fireDropped, retried
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var elems []json.RawMessage
			derr := json.NewDecoder(resp.Body).Decode(&elems)
			drain(resp)
			if derr != nil || len(elems) != count {
				return 0, fireErr, retried
			}
			for _, e := range elems {
				if _, err := dip.DecodeWireReport(bytes.NewReader(e)); err == nil {
					good++
				}
			}
			return good, fireOK, retried
		case http.StatusServiceUnavailable:
			hint := retryAfterHint(resp)
			drain(resp)
			retried++
			time.Sleep(retryDelay(seed, attempt, hint))
		default:
			drain(resp)
			return 0, fireErr, retried
		}
	}
	return 0, fireExhausted, retried
}
