// Command perfbench is the repository's benchmark: it boots the real
// serving stack (dipserve, plus dippeer processes for the fleet), drives
// it over loopback HTTP in a closed loop from one process, checks every
// answer, and prints the end-to-end metrics — or, with --trace 1, the
// per-layer ledger, which adds a traced replay of the stream through the
// layers' public functions in this process. See README.md for the
// workloads, the metrics and the predictions they encode.
//
//	perfbench --workload run-cycle64 --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the result: one JSON object with
// the keys correct, attempted, failed and metrics. The line before it
// records the provenance of the run. The process exits 1 when any
// correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// setupBoots is how many times a run boots the stack to measure setup_s;
// the median is reported, and the last boot serves the window.
const setupBoots = 15

// warmup precedes every measured window: it opens the connections, fills
// the setup caches and lets the processes' heaps grow to size.
const warmup = time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	bin      string
	work     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same requests")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 prints the per-layer metrics, 0 the end-to-end metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the dipserve and dippeer binaries")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for logs, address files and journals")
	flag.Parse()

	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	prov, _ := json.Marshal(map[string]any{"provenance": res.provenance})
	fmt.Println(string(prov))
	line, _ := json.Marshal(res.summary)
	fmt.Println(string(line))
	if !res.summary.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type outcome struct {
	summary    summary
	provenance map[string]any
}

// units of every metric the benchmark can print.
var units = map[string]string{
	"throughput_rps":        "1/s",
	"latency_p50_ms":        "ms",
	"setup_s":               "s",
	"server_cpu_ms_per_req": "ms",
	"server_rss_mb":         "MB",

	"dipserve.server_latency_ms_mean": "ms",
	"dipserve.http_overhead_us":       "us",
	"dipserve.rejected_per_kreq":      "count",
	"dipserve.decode_us":              "us",
	"dipserve.encode_us":              "us",
	"engine.wall_us_per_run":          "us",
	"engine.deliveries_per_run":       "count",
	"engine.delivered_bits_per_run":   "bit",
	"engine.pool_hit_ratio":           "ratio",
	"engine.self_us":                  "us",
	"setup.graph_hit_ratio":           "ratio",
	"setup.artifact_hit_ratio":        "ratio",
	"setup.protocol_hit_ratio":        "ratio",
	"setup.graph_us":                  "us",
	"setup.protocol_us":               "us",
	"prover.respond_us":               "us",
	"verifier.node_us":                "us",
	"peer.frames_per_run":             "count",
	"peer.bytes_per_run":              "B",
	"peer.bytes_per_metered_bit":      "B/bit",
	"peer.begin_us":                   "us",
	"peer.step_wait_us":               "us",
	"jobs.settle_ms_p50":              "ms",
	"jobs.journal_bytes_per_job":      "B",
	"jobs.attempts_per_job":           "count",
	"jobs.publish_us":                 "us",
	"hashing.row_hash_us":             "us",
	"wire.codec_ns_per_kbit":          "ns/kbit",
	"trace.overhead_pct":              "%",
	"trace.request_us":                "us",
	"trace.unattributed_pct":          "%",
}

// endToEnd are the metrics --trace 0 prints. Failures are reported
// through the result's attempted and failed counts (their ratio is the
// error rate), not as a metric, since a healthy run's rate is 0.
var endToEnd = []string{"throughput_rps", "latency_p50_ms", "setup_s", "server_cpu_ms_per_req", "server_rss_mb"}

func run(o options) (*outcome, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace %d: want 0 or 1", o.trace)
	}
	for _, b := range []string{"dipserve", "dippeer"} {
		if _, err := os.Stat(filepath.Join(o.bin, b)); err != nil {
			return nil, fmt.Errorf("missing binary (build it first): %w", err)
		}
	}
	st, err := newStream(w, o.seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid()))
	nproc := runtime.NumCPU()

	// Stop every child if the benchmark itself is interrupted.
	var live atomic.Pointer[system]
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sig
		if sys := live.Load(); sys != nil {
			sys.stop()
		}
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", s)
		os.Exit(1)
	}()

	var setups []float64
	var sys *system
	for b := 0; b < setupBoots; b++ {
		if sys != nil {
			sys.stop()
			sys.removeJournal()
		}
		var took time.Duration
		sys, took, err = boot(w, o.bin, filepath.Join(dir, fmt.Sprint("boot", b)), nproc)
		if err != nil {
			return nil, err
		}
		live.Store(sys)
		setups = append(setups, took.Seconds())
	}
	defer sys.stop()

	m, c, err := measure(w, st, sys, o, nproc)
	if err != nil {
		return nil, err
	}
	m["setup_s"] = median(setups)

	prov := map[string]any{
		"workload":             w.name,
		"seed":                 o.seed,
		"seconds":              o.seconds,
		"cpu_model":            cpuModel(),
		"nproc":                nproc,
		"go_version":           runtime.Version(),
		"gomaxprocs":           gomaxprocsOf(sys, nproc),
		"connections":          nproc,
		"generator_goroutines": nproc,
		"loop":                 "closed",
		"network":              "loopback",
		"setup_boots":          setupBoots,
		"samples":              c.samples,
		"steal_pct":            c.stealPct,
	}
	if c.p99MS > 0 {
		prov["latency_p99_ms"] = c.p99MS
	}

	if o.trace == 1 {
		tr, err := replay(w, st, sys.peerAddrs, sys.dir, c.check)
		if err != nil {
			return nil, err
		}
		for k, v := range tr.metrics {
			m[k] = v
		}
		prov["trace_sample"] = tr.sample
		spansPath := filepath.Join(dir, "spans.jsonl")
		if err := writeSpans(spansPath, tr.spans); err != nil {
			return nil, err
		}
		prov["spans"] = spansPath
	}
	if err := sys.alive(); err != nil {
		c.check.fail("system: %v", err)
	}
	sys.stop()
	sys.removeJournal()

	ck := c.check
	for _, e := range ck.examples {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
	errRate := float64(ck.failures) / float64(max(ck.attempts, 1))
	prov["error_rate"] = errRate
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d attempted, %d failed (error rate %g)\n", w.name, o.seed, ck.attempts, ck.failures, errRate)

	names := endToEnd
	if o.trace == 1 {
		names = perLayer
	}
	out := summary{Correct: ck.failures == 0, Attempted: ck.attempts, Failed: ck.failures, Metrics: map[string]metric{}}
	for _, name := range names {
		v, ok := m[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		out.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	all := map[string]metric{}
	for name, v := range m {
		all[name] = metric{Value: v, Unit: units[name]}
	}
	if err := writeResult(dir, o, out, all, prov); err != nil {
		return nil, err
	}
	return &outcome{summary: out, provenance: prov}, nil
}

// perLayer are the metrics --trace 1 prints. A layer a workload bypasses
// reads 0 there (peer on the in-process workloads, the job tier outside
// jobs-journal), which is the prediction the README table states.
var perLayer = func() []string {
	var out []string
	for name := range units {
		if !isEndToEnd(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}()

func isEndToEnd(name string) bool {
	for _, e := range endToEnd {
		if e == name {
			return true
		}
	}
	return false
}

// writeResult keeps the full record of the run — every metric measured,
// the provenance and the failed checks — next to its logs.
func writeResult(dir string, o options, out summary, all map[string]metric, prov map[string]any) error {
	data, err := json.MarshalIndent(map[string]any{
		"result":     out,
		"all":        all,
		"provenance": prov,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("result-trace%d.json", o.trace)), append(data, '\n'), 0o644)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func gomaxprocsOf(s *system, nproc int) map[string]int {
	out := map[string]int{"perfbench": runtime.GOMAXPROCS(0)}
	for _, p := range s.procs {
		out[p.name] = nproc
	}
	return out
}
