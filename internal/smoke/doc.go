// Package smoke holds the process drills: end-to-end tests that build the
// real binaries (dipserve, dipload, dippeer, dipsim), boot them on
// ephemeral ports, drive them over HTTP and TCP, and gate on the files and
// JSON they answer with, decoded into the project's own types. The tests
// sit behind the smoke build tag, so `go test ./...` skips them; run them
// with
//
//	go test -tags smoke -count=1 ./internal/smoke
//
// (`make e2e`, part of `make verify`). Every drill boots its servers the
// same way, waits for the address file they write once listening, and
// ends with a SIGTERM drain that must exit 0 and log the "drained" marker.
//
// TestServe exercises the verification service end to end: boot dipserve,
// fire a short two-protocol load with dipload, validate the dip-load/v1
// file, and drain.
//
// TestLoad exercises the request path in both shapes: a short plain load
// and a short batch load, both validated and both with zero request
// errors, then a leak check on the idle service. /metrics must show zero
// in-flight requests and an empty admission queue, in the service block
// and in the job tier's block alike.
//
// TestChaos hardens the serving boundary: boot dipserve (with a generous
// rate limit so well-behaved traffic is never quota-refused), fire a
// seed-deterministic adversarial session through `dipload -chaos` —
// malformed, truncated and oversized bodies, slowloris drips, disconnects,
// garbage framing — and a short well-formed load after it, then require a
// clean drain and a panic-free server log. dipload itself gates on
// structured 4xx/5xx answers, drained gauges and a settled goroutine
// count.
//
// TestJobsCrashReplay proves the job tier's crash-replay contract. Boot 1
// runs with a durable journal in ingest-only mode (-job-workers 0), so
// every submitted job is still pending when the server is SIGKILLed: no
// graceful drain, no flush beyond the per-record journal write. Boot 2
// reopens the same journal with workers and replays the backlog, and
// `dipload -jobs poll` requires every recorded job id to finish with a
// validated dip-job/v1 envelope whose report matches the submitted seed
// and protocol. The log must name the full backlog as replayed, and
// /metrics pins "exactly once": completed equals the backlog size,
// nothing parked, no ack errors.
//
// TestPeerFleet proves the multi-process executor: verifier nodes decide
// from their local views, so the same sym-dmam instance run in-process and
// across four dippeer processes must produce byte-identical dip-report/v1
// files. A peer armed with -fail-session 1 (it exits 2 mid-exchange in its
// first session) must make a run fail with a structured transport-phase
// error, never hang or mis-answer; the healthy fleet must still serve a
// byte-identical run after the wreck, and every surviving peer must drain.
//
// TestFleetServing proves the fleet-backed serving tier: three dippeers
// and a dipserve pointed at them with -peers serve a plain load, a batch
// load and an async jobs round with zero errors. One peer is then
// SIGKILLed while a plain load is being served: dipload must still exit
// cleanly (the failures are structured 502 answers, counted as errors,
// never dropped connections), the load file must record errors for the
// kill window, /readyz must stay 200 while naming the dead peer
// unreachable, and a fresh load on the two survivors must finish with
// zero errors before dipserve and the survivors drain.
package smoke
