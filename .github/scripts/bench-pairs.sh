#!/usr/bin/env bash
# Runs the pinned hot-path benchmarks of two checkouts in pairs, one run of
# each side per pair, the side that runs first alternating from pair to pair
# (base first in odd pairs, head first in even ones), so neither side always
# inherits the other's dirty page cache or heat. Each pair's two runs share
# the host's speed and its drift, so dqm-benchdiff -paired can gate the ratio
# of the two sides where a committed ns/op baseline, measured on another
# host, cannot.
#
# Usage: bench-pairs.sh BASE_DIR HEAD_DIR OUT_DIR [PAIRS]
#
# Each side's test binaries are built once, from its own checkout, and run
# from its package directories. PAIRS defaults to 10. Writes OUT_DIR/base.txt
# and OUT_DIR/head.txt; gate them with
#
#	go run ./cmd/dqm-benchdiff -bench-out OUT_DIR/head.txt -paired OUT_DIR/base.txt
#
# When BASE_DIR is HEAD_DIR there is nothing to pair: the head runs PAIRS
# times alone, for the allocation gate, and no base.txt is written. To pair
# a checkout with itself (a no-op check of the gate), extract it twice.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
pairs=${4:-10}
pinned='BenchmarkJournalAppend|BenchmarkTaskRecords|BenchmarkGroupCommit|BenchmarkSessionIngest$|BenchmarkSessionIngestGated|BenchmarkColumnarIngest|BenchmarkAppendLog/memory|BenchmarkAppendLog/durable/never|BenchmarkEstimatesCached|BenchmarkEstimatesDirty|BenchmarkBootstrapCI|BenchmarkWindowedIngest|BenchmarkWindowedEstimates|BenchmarkRecovery|BenchmarkMatrixAdd$|BenchmarkSwitchTrackerAdd$|BenchmarkAdd4Bit$|BenchmarkAdd8Bit$|BenchmarkAdd16Bit$|BenchmarkWideAdd$|BenchmarkLevenshtein$|BenchmarkHubEncodeOnce|BenchmarkWatchFanout|BenchmarkGateEvaluate'
pkgs=(. ./internal/engine ./internal/wal ./internal/hub ./internal/policy ./cmd/dqm-serve)
sides=(base head)
[ "$base" = "$head" ] && sides=(head)

# bin names the test binary of package $2 on side $1.
bin() { echo "$out/bin-$1/$(echo "$2" | tr './' '__').test"; }

for side in "${sides[@]}"; do
	mkdir -p "$out/bin-$side"
	for p in "${pkgs[@]}"; do
		# A package the base does not have yet is skipped on that side; the
		# gate reports its benchmarks as new.
		(cd "${!side}" && go test -c -o "$(bin "$side" "$p")" "$p") || echo "bench-pairs: no $p on the $side side"
	done
done

rm -f "$out/base.txt" "$out/head.txt"

for i in $(seq "$pairs"); do
	order=("${sides[@]}")
	[ $((i % 2)) -eq 0 ] && [ ${#sides[@]} -eq 2 ] && order=(head base)
	for side in "${order[@]}"; do
		echo "bench-pairs: pair $i of $pairs, $side" >&2
		for p in "${pkgs[@]}"; do
			b=$(bin "$side" "$p")
			[ -x "$b" ] || continue
			(cd "${!side}/$p" && "$b" -test.run '^$' -test.bench "$pinned" -test.benchtime 300ms -test.benchmem -test.timeout 30m) >>"$out/$side.txt"
		done
	done
done
