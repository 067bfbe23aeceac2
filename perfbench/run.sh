#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload replay-dtb --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and the traced run's spans all stay under
# .bench_build/ at the repository root; nothing is fetched.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/spans" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOTOOLCHAIN=local \
	CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
