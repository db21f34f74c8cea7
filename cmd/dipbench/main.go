// Command dipbench regenerates the experiment tables of EXPERIMENTS.md:
// one table per theorem of "Interactive Distributed Proofs" (PODC 2018),
// plus the hash-family, adversary, building-block and ablation studies.
//
// Usage:
//
//	dipbench                  # run every experiment at full size
//	dipbench -experiment E5   # run one experiment
//	dipbench -quick           # reduced sizes (seconds instead of minutes)
//	dipbench -seed 7          # change the reproducibility seed
//	dipbench -trials 500      # override the per-cell trial count
//	dipbench -parallel 2      # cap the trial-harness worker count
//	dipbench -json out.json   # also emit machine-readable results
//	dipbench -faults          # run the fault matrix (E12) instead of E1..E11
//	dipbench -validate x.json [y.json ...]  # check results files against their schemas
//	dipbench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Tables are reproducible for a fixed -seed regardless of -parallel: each
// trial's randomness is derived from (seed, experiment, trial index)
// alone. The -json file is likewise byte-identical across -parallel and
// GOMAXPROCS settings, so committed BENCH_*.json artifacts diff cleanly
// across PRs; -json-timings adds a non-reproducible timings block (wall
// times, worker count, engine meters) for profiling sessions. Long runs
// report live progress (trials per cell, ETA) on stderr; silence it with
// -progress=false.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dip"
	"dip/internal/experiments"
	"dip/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dipbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		which       = flag.String("experiment", "all", "experiment ID (E1..E12) or 'all'")
		seed        = flag.Int64("seed", 1, "reproducibility seed")
		quick       = flag.Bool("quick", false, "reduced sizes and trial counts")
		trials      = flag.Int("trials", 0, "override the per-cell trial count (0 = experiment default)")
		parallel    = flag.Int("parallel", 0, "trial-harness worker count (0 = GOMAXPROCS)")
		jsonPath    = flag.String("json", "", "write machine-readable results to this path")
		jsonTimings = flag.Bool("json-timings", false, "include the non-reproducible timings block in -json output")
		progress    = flag.Bool("progress", true, "report live per-cell progress on stderr")
		faultsMode  = flag.Bool("faults", false, "run the fault-injection matrix (E12); -json emits dip-fault/v1")
		validate    = flag.String("validate", "", "validate existing results files against their schemas and exit (accepts further paths as positional args)")
		benchCheck  = flag.String("bench-check", "", "re-measure allocs/op and fail on >10% regressions: dip-bench files gate the engine workload, dip-load files the request path (accepts further paths as positional args)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this path")
	)
	flag.Parse()

	if *validate != "" {
		return validateFiles(append([]string{*validate}, flag.Args()...))
	}

	if *benchCheck != "" {
		return checkBenchFiles(append([]string{*benchCheck}, flag.Args()...))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick, Trials: *trials, Parallel: *parallel}
	if *progress {
		cfg.Progress = obs.NewReporter(os.Stderr)
	}

	if *faultsMode {
		return runFaults(cfg, *jsonPath)
	}

	runners := experiments.All()
	if *which != "all" {
		r, ok := experiments.ByID(*which)
		if !ok {
			return fmt.Errorf("unknown experiment %q (want E1..E12 or all)", *which)
		}
		runners = []experiments.Runner{r}
	}

	results := &experiments.ResultsFile{
		Schema:         experiments.Schema,
		Tool:           "dipbench",
		Seed:           *seed,
		Quick:          *quick,
		TrialsOverride: *trials,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
	}
	var timings experiments.Timings
	totalStart := time.Now()

	for _, r := range runners {
		start := time.Now()
		rec := &experiments.Recorder{}
		cfg.Recorder = rec
		cfg.Progress.SetLabel(r.ID)
		table, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		elapsed := time.Since(start)
		fmt.Println(table.Format())
		fmt.Printf("(%s finished in %v)\n\n", r.ID, elapsed.Round(time.Millisecond))

		results.Experiments = append(results.Experiments, experiments.ExperimentResult{
			ID:      table.ID,
			Title:   table.Title,
			Columns: table.Columns,
			Rows:    table.Rows,
			Notes:   table.Notes,
			Cells:   rec.Cells(),
		})
		timings.Experiments = append(timings.Experiments, experiments.ExperimentTiming{
			ID:     table.ID,
			WallMS: elapsed.Milliseconds(),
		})
	}

	if *jsonPath != "" {
		eb, err := experiments.MeasureEngineAllocs()
		if err != nil {
			return err
		}
		results.EngineBench = eb
		fmt.Fprintf(os.Stderr, "engine bench: %.0f allocs/op (%s, n=%d)\n",
			eb.AllocsPerOp, eb.Workload, eb.Nodes)
		if *jsonTimings {
			timings.Parallel = *parallel
			timings.GoVersion = runtime.Version()
			timings.TotalWallMS = time.Since(totalStart).Milliseconds()
			timings.Engine = obs.Snapshot()
			results.Timings = &timings
		}
		if err := results.Validate(); err != nil {
			return fmt.Errorf("internal: generated results fail validation: %w", err)
		}
		if err := results.WriteFile(*jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// runFaults runs the E12 fault matrix and optionally writes the
// dip-fault/v1 results file.
func runFaults(cfg experiments.Config, jsonPath string) error {
	cfg.Progress.SetLabel("E12")
	start := time.Now()
	file, table, err := experiments.RunFaultMatrix(cfg)
	if err != nil {
		return err
	}
	fmt.Println(table.Format())
	fmt.Printf("(E12 finished in %v)\n", time.Since(start).Round(time.Millisecond))
	if bad := file.GateViolations(); len(bad) > 0 {
		fmt.Printf("WARNING: %d cell(s) fail the 1/3 gate\n", len(bad))
	}
	if jsonPath != "" {
		if err := file.Validate(); err != nil {
			return fmt.Errorf("internal: generated fault results fail validation: %w", err)
		}
		if err := file.WriteFile(jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
	}
	return nil
}

// checkBenchFiles is the allocation-regression gate, dispatching on each
// file's schema: dip-bench/v1 files gate the engine reference workload
// (engine_bench block), dip-load/v1 files gate the full request path
// (request_bench block). Accepts several files in one invocation
// (`dipbench -bench-check BENCH_seed1.json LOAD_seed2.json`) and reports
// every failure before exiting.
func checkBenchFiles(paths []string) error {
	failed := 0
	for _, path := range paths {
		if err := checkBenchFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "dipbench: %s: %v\n", path, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d file(s) failed the bench check", failed, len(paths))
	}
	return nil
}

func checkBenchFile(path string) error {
	schema, err := experiments.SniffSchema(path)
	if err != nil {
		return err
	}
	switch schema {
	case experiments.Schema:
		return checkEngineAllocs(path)
	case experiments.LoadSchema:
		return checkRequestAllocs(path)
	default:
		return fmt.Errorf("schema %q carries no allocation budget (want %s or %s)",
			schema, experiments.Schema, experiments.LoadSchema)
	}
}

// checkEngineAllocs re-measures the engine reference workload and compares
// against the engine_bench record committed in a dip-bench/v1 file.
func checkEngineAllocs(path string) error {
	f, err := experiments.ReadResultsFile(path)
	if err != nil {
		return err
	}
	measured, err := experiments.MeasureEngineAllocs()
	if err != nil {
		return err
	}
	recorded := f.EngineBench
	if err := experiments.CheckEngineAllocs(recorded, measured); err != nil {
		return err
	}
	fmt.Printf("%s: engine bench OK: %.0f allocs/op measured vs %.0f recorded (limit +%d%%)\n",
		path, measured.AllocsPerOp, recorded.AllocsPerOp, int(experiments.AllocRegressionLimit*100))
	return nil
}

// checkRequestAllocs re-measures the service-layer request path and
// compares against the request_bench record in a dip-load/v1 file.
func checkRequestAllocs(path string) error {
	f, err := experiments.ReadLoadResultsFile(path)
	if err != nil {
		return err
	}
	measured, err := dip.MeasureRequestAllocs()
	if err != nil {
		return err
	}
	if err := experiments.CheckRequestAllocs(f.RequestBench, measured); err != nil {
		return err
	}
	fmt.Printf("%s: request bench OK: %.0f allocs/op measured vs %.0f recorded (limit +%d%%)\n",
		path, measured, f.RequestBench.AllocsPerOp, int(experiments.AllocRegressionLimit*100))
	return nil
}

// validateFiles checks every file and reports each failure with its own
// diagnostic before exiting: a batch invocation (`dipbench -validate
// a.json b.json c.json`) surfaces all broken artifacts in one pass
// instead of stopping at the first.
func validateFiles(paths []string) error {
	failed := 0
	for _, path := range paths {
		if err := validateFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "dipbench: %s: %v\n", path, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d file(s) failed validation", failed, len(paths))
	}
	return nil
}

// validateFile dispatches on the file's schema field: dip-bench/v1,
// dip-fault/v1, dip-report/v1, dip-job/v1 and dip-load/v1 files are all
// accepted.
func validateFile(path string) error {
	schema, err := experiments.SniffSchema(path)
	if err != nil {
		return err
	}
	switch schema {
	case dip.ReportSchema:
		w, err := dip.ReadWireReportFile(path)
		if err != nil {
			return err
		}
		fmt.Printf("%s: valid %s (protocol %s, %d nodes, seed %d, accepted=%v)\n",
			path, w.Schema, w.Protocol, w.Nodes, w.Seed, w.Accepted)
		return nil
	case dip.JobSchema:
		w, err := dip.ReadWireJobFile(path)
		if err != nil {
			return err
		}
		fmt.Printf("%s: valid %s (id %s, state %s, protocol %s, %d attempts)\n",
			path, w.Schema, w.ID, w.State, w.Protocol, w.Attempts)
		return nil
	case experiments.LoadSchema:
		f, err := experiments.ReadLoadResultsFile(path)
		if err != nil {
			return err
		}
		fmt.Printf("%s: valid %s results (seed %d, c=%d, %d requests, %.1f req/s, %d dropped)\n",
			path, f.Schema, f.Seed, f.Concurrency, f.Requests, f.ThroughputRPS, f.Dropped)
		return nil
	case experiments.Schema:
		f, err := experiments.ReadResultsFile(path)
		if err != nil {
			return err
		}
		cells := 0
		for _, e := range f.Experiments {
			cells += len(e.Cells)
		}
		fmt.Printf("%s: valid %s results (seed %d, %d experiments, %d cells)\n",
			path, f.Schema, f.Seed, len(f.Experiments), cells)
		return nil
	case experiments.FaultSchema:
		f, err := experiments.ReadFaultResultsFile(path)
		if err != nil {
			return err
		}
		fmt.Printf("%s: valid %s results (seed %d, %d cells, %d gate violations)\n",
			path, f.Schema, f.Seed, len(f.Cells), len(f.GateViolations()))
		return nil
	default:
		return fmt.Errorf("unknown schema %q", schema)
	}
}
