#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds egmark (and, from inside
# egmark, cmd/egserve) from source with every toolchain write kept
# under <repo>/.bench_build, then hands all arguments to the harness.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
mkdir -p "$root/.bench_build/bin" "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/go-cache" GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$root/.bench_build/bin/egmark" .
exec "$root/.bench_build/bin/egmark" -root "$root" "$@"
