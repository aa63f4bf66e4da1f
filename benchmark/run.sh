#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it with the
# given arguments from the root of the checkout. Everything the build and
# the run write (Go build cache, binary, traces, profiles) stays under
# .bench_build/ in the checkout; no module download is attempted.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
(cd "$here" && go build -o "$build/dhtm-benchmark" .)
cd "$root"
exec "$build/dhtm-benchmark" "$@"
