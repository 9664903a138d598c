#!/usr/bin/env bash
# Compares this checkout with a parent commit: alternating runs in a checkout
# of the parent and in this one, one new seed per pair and the order flipped
# every pair, every run's report kept. A workload is one of BENCHMARK.json's,
# run by bench/run.sh, or `micro`: the micro-benchmark rows `make
# bench-regress` gates (microGates in cmd/benchjson), run at 1 s benchtime by
# each side's root test binary, built once per side. Then `benchjson -pairs`
# prints the table a claim is written from: every run, and per gated metric
# the medians, the delta, the pairs the change is better in, the parent's
# interquartile range and the verdict. Exits non-zero when, on any workload, a
# gated metric's median is worse than the parent's by more than its bound, a
# gated metric is in no complete pair, or a run exits non-zero or leaves no
# report.
#
#   scripts/pairs.sh <parent-ref> <workload>[,<workload>...] <first-seed> <pairs>
#   scripts/pairs.sh HEAD~1 micro 1 10
#   scripts/pairs.sh HEAD~1 batch_lookup 5401 10
#   scripts/pairs.sh HEAD~1 stream_ingest,reinfer_refresh 5401 10
#
# Several workloads run one after another, in the order given, each with the
# same seeds and its own table; the micro rows take no seed, it numbers the
# pair. <parent-ref> is a git revision, checked out with `git worktree add`
# into a temporary directory that is removed on exit. `scripts/pairs.sh HEAD
# ...` on a clean tree compares the commit with itself: the A/A noise floor to
# read a real comparison against. Logs and reports stay in
# .bench_build/pairs/<workload>-<parent-hash>-<first-seed>/, <parent-hash>
# the short hash <parent-ref> resolves to: a rerun against the same commit
# and seeds replaces its directory, and a run against another commit (the
# A/A floor at HEAD beside `make bench-regress` at HEAD~1) keeps its own.
set -euo pipefail

if [ $# -ne 4 ]; then
  echo "usage: scripts/pairs.sh <parent-ref> <workload>[,<workload>...] <first-seed> <pairs>" >&2
  exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="$1" first="$3" pairs="$4"
IFS=, read -ra workloads <<<"$2"
parent_hash="$(git -C "$root" rev-parse --short "$parent^{commit}")"

tmp="$(mktemp -d)"
parent_dir="$tmp/parent"
trap 'git -C "$root" worktree remove --force "$parent_dir" || true; rm -rf "$tmp"' EXIT
git -C "$root" worktree add --detach "$parent_dir" "$parent" >&2

if [[ ",$2," == *,micro,* ]]; then
  (cd "$parent_dir" && go test -c -o "$tmp/parent.test" .)
  (cd "$root" && go test -c -o "$tmp/change.test" .)
fi

# micro runs the gated rows on one side's test binary, from that side's root.
# A benchmark without sub-benchmarks runs only under a one-level pattern,
# hence two runs of the binary.
micro() {
  local side="$1" dir="$2"
  (cd "$dir" &&
    "$tmp/$side.test" -test.run '^$' -test.benchtime 1s -test.timeout 2m \
      -test.bench '^(BenchmarkServeQueriesParallel|BenchmarkServeQueriesBatch|BenchmarkFitParallel|BenchmarkRestartHistory)$/^(shards=1|workers=1|windows=16)$' &&
    "$tmp/$side.test" -test.run '^$' -test.benchtime 1s -test.timeout 2m \
      -test.bench '^(BenchmarkServeStreamIngest|BenchmarkRestoreSnapshot|BenchmarkBatchHandler|BenchmarkPoolSealGrowth|BenchmarkReplayWAL)$')
}

status=0
for workload in "${workloads[@]}"; do
  out="$root/.bench_build/pairs/$workload-$parent_hash-$first"
  rm -rf "$out"
  mkdir -p "$out"
  for ((i = 0; i < pairs; i++)); do
    seed=$((first + i))
    order=(parent change)
    if ((i % 2 == 1)); then
      order=(change parent)
    fi
    pos=1
    for side in "${order[@]}"; do
      dir="$root"
      if [ "$side" = parent ]; then
        dir="$parent_dir"
      fi
      run="$out/$seed.$pos.$side"
      echo "pairs: $workload $((i + 1))/$pairs seed $seed, $side" >&2
      exit_code=0
      if [ "$workload" = micro ]; then
        # The report is the run's whole `go test -bench` output.
        report="$run.txt"
        micro "$side" "$dir" >"$run.log" 2>&1 || exit_code=$?
        cp "$run.log" "$report"
      else
        # The report is the run's last JSON line.
        report="$run.json"
        bash "$dir/bench/run.sh" --workload "$workload" --seed "$seed" --trace 0 >"$run.log" 2>&1 || exit_code=$?
        { grep '^{' "$run.log" || true; } | tail -n 1 >"$report"
      fi
      if [ "$exit_code" -ne 0 ]; then
        # An empty report is a missing run, which fails the verdict.
        echo "pairs: the $side run of seed $seed exited $exit_code (see $run.log)" >&2
        : >"$report"
      fi
      pos=$((pos + 1))
    done
  done
  echo "pairs: reports in $out" >&2
  (cd "$root" && go run ./cmd/benchjson -pairs "$out") || status=$?
done
exit "$status"
