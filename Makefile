GO ?= go

.PHONY: verify lint vet build test race stress smoke fuzz-short fault-smoke e2e bench bench-check tables tables-quick clean

# verify is the tier-1 gate, nine stages: lint, build, tests, the race
# check across the whole module (short mode keeps it minutes, not
# hours), a stress pass, a results-file smoke round-trip, a short
# mutation burst on every decoder fuzz target, a fault-matrix smoke run,
# and the process drills (e2e: the service, load, chaos, job-replay,
# peer-fleet and fleet-serving drills against the real binaries). test
# and race run every package at one and four procs, and stress repeats
# the packages with the most concurrency, so a failure that needs
# several cores, or a lucky interleaving, cannot pass on a single-CPU
# box.
verify: lint build test race stress smoke fuzz-short fault-smoke e2e

# lint fails on unformatted files or vet findings, in the smoke-tagged
# drill package too.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) vet -tags smoke ./internal/smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -cpu 1,4 ./...

# race covers every package: the trial-harness pool, the state pool, the
# peer transport's reader goroutines and the service tiers have real
# concurrency, and the rest is cheap under -short.
race:
	$(GO) test -race -short -cpu 1,4 ./...

# stress reruns the packages with shared pools, sockets, worker pools
# and shutdown races several times over, so an interleaving that fails
# one run in a few shows up here.
stress:
	$(GO) test -count=3 -short ./internal/network ./internal/peer ./internal/jobs ./cmd/dipserve

# smoke emits a quick machine-readable benchmark file and round-trips it
# through the schema validator, then re-validates every committed results
# sidecar so a hand-edited or stale artifact cannot sit in the tree.
smoke:
	$(GO) run ./cmd/dipbench -quick -seed 1 -progress=false -json /tmp/dip-bench-smoke.json >/dev/null
	$(GO) run ./cmd/dipbench -validate /tmp/dip-bench-smoke.json
	$(GO) run ./cmd/dipbench -validate BENCH_seed1.json FAULT_seed1.json LOAD_seed1.json LOAD_seed2.json LOAD_seed3.json LOAD_seed4.json

# fuzz-short gives each decoder fuzz target, and the hash kernel's
# differential target, a brief mutation burst on top of the checked-in
# seed corpus (go only allows one -fuzz pattern per invocation, hence the
# loop).
FUZZ_TIME ?= 2s
fuzz-short:
	@for target in FuzzReader FuzzRoundTrip FuzzSymDecoders FuzzDSymDecoder FuzzGNIDecoders FuzzLCPDecoders FuzzWireReport FuzzRequestDecode FuzzPeerFrame FuzzLinearFamily; do \
		pkg=./internal/core; \
		case $$target in \
			FuzzReader|FuzzRoundTrip) pkg=./internal/wire;; \
			FuzzWireReport|FuzzRequestDecode) pkg=.;; \
			FuzzPeerFrame) pkg=./internal/peer;; \
			FuzzLinearFamily) pkg=./internal/hashing;; \
		esac; \
		$(GO) test -run xxx -fuzz "^$$target$$" -fuzztime $(FUZZ_TIME) $$pkg || exit 1; \
	done

# fault-smoke runs the quick fault matrix (E12) end to end and round-trips
# the dip-fault/v1 file through the schema validator.
fault-smoke:
	$(GO) run ./cmd/dipbench -faults -quick -seed 1 -progress=false -json /tmp/dip-fault-smoke.json >/dev/null
	$(GO) run ./cmd/dipbench -validate /tmp/dip-fault-smoke.json

# e2e runs the process drills in internal/smoke: the real dipserve,
# dipload, dippeer and dipsim binaries, built once, booted on ephemeral
# ports and drained with SIGTERM. TestServe and TestLoad round-trip the
# service, TestChaos fires an adversarial session at it,
# TestJobsCrashReplay SIGKILLs the job tier mid-backlog and replays it,
# TestPeerFleet pins a dippeer fleet's report byte-identical to the
# in-process one, and TestFleetServing kills a peer under a live
# fleet-backed load. The package comment describes every gate.
e2e:
	$(GO) test -tags smoke -count=1 ./internal/smoke

# bench runs the engine micro-benchmark (sequential executor, n=256).
bench:
	$(GO) test -run xxx -bench 'BenchmarkEngine' -benchmem -benchtime 2s .

# bench-check re-measures allocs/op for both committed baselines and fails
# on a >10% regression: the engine workload against the engine_bench record
# in BENCH_seed1.json and the full request path against the request_bench
# record in LOAD_seed2.json.
bench-check:
	$(GO) run ./cmd/dipbench -bench-check BENCH_seed1.json LOAD_seed2.json

# tables regenerates every EXPERIMENTS.md table at full trial counts and
# the committed BENCH_seed1.json / FAULT_seed1.json sidecars (quick sizes,
# like CI checks).
tables:
	$(GO) run ./cmd/dipbench -seed 1
	$(GO) run ./cmd/dipbench -faults -seed 1
	$(GO) run ./cmd/dipbench -quick -seed 1 -progress=false -json BENCH_seed1.json >/dev/null
	$(GO) run ./cmd/dipbench -faults -quick -seed 1 -progress=false -json FAULT_seed1.json >/dev/null

tables-quick:
	$(GO) run ./cmd/dipbench -seed 1 -quick

clean:
	rm -f dip.test
