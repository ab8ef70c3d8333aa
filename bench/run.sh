#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write stays under the checkout: the Go build cache, the binary and the
# MDP's data directories in .bench_build/, records and span files in
# bench/out/. Arguments are passed through to the binary (see README.md).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
bin="$build/mdv-bench"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
before="$(stat -c %Y "$bin" 2>/dev/null || true)"
(cd "$root/bench" && go build -o "$bin" .)
if [ "$before" != "$(stat -c %Y "$bin")" ]; then
	# A fresh build leaves the build cache's pages dirty; their write-back
	# would compete with the changelog's fsyncs during the run that follows.
	sync -f "$build" 2>/dev/null || true
fi
cd "$root"
exec "$bin" "$@"
