#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# there, passing every argument through. Nothing is read or written outside
# the checkout: the Go build cache lives in .bench_build too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/benchmark" .)
cd "$root"
exec "$out/benchmark" --out "$out" "$@"
