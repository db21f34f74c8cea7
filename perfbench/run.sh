#!/usr/bin/env bash
# Builds the serving binaries and perfbench itself from this checkout,
# then runs perfbench with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload run-cycle64 --seed 1 --seconds 25 --trace 0
#
# Everything it writes (Go build cache, binaries, logs, journals, spans)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/dipserve || ! -d cmd/dippeer ]]; then
	echo "perfbench: $root is not a checkout of the dip module (no go.mod, cmd/dipserve or cmd/dippeer)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bin/" ./cmd/dipserve ./cmd/dippeer >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --bin "$out/bin" --work "$out/work" "$@"
