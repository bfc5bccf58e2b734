#!/usr/bin/env bash
# Builds and runs the dqm-serve benchmark (bench/). Run it from anywhere;
# arguments go to the benchmark, e.g.
#   bash bench/run.sh -seed 7 -out runs.jsonl
#   bash bench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
# Everything the build and the runs write stays under .bench_build/ at the
# repository root, including the Go build cache.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in there too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
cd "$root/bench"
go build -o "$out/dqmbench" .
cd "$root"
# Flags take one or two dashes (-seed or --seed), as Go's flag package does.
exec "$out/dqmbench" "$@"
