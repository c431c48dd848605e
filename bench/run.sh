#!/usr/bin/env bash
# The benchmark's command: build the harness from source, then run it
# with the driver's arguments. Everything it writes — the Go build cache,
# the binary, data directories, the trace file — stays inside the
# checkout (.bench_build/ and bench/out/).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$here/out"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -out "$here/out" "$@"
