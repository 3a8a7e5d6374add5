#!/usr/bin/env bash
# Builds the llmsql benchmark from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash llmbench/run.sh --workload adhoc-cold --seed 1 --seconds 25 --trace 0
# Build outputs, the Go build cache and the toolchain's temporary files stay
# under .bench_build/ in the checkout; nothing is fetched (the engine has no
# external dependencies).
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
(cd "$root/llmbench" && go build -o "$out/llmbench" .)
exec "$out/llmbench" "$@"
