#!/usr/bin/env bash
# Compares two commits on workloads of the benchmark (BENCHMARK.json):
# alternating bench/run.sh runs in a checkout of the parent and in this
# checkout, one new seed per pair and the order flipped every pair, every
# run's report kept. Then `benchjson -pairs` prints the table a claim is
# written from: every run, and per end-to-end metric the medians, the delta,
# the pairs the change is better in, the parent's interquartile range and the
# failed operations. Exits non-zero when a gated metric is worse than its
# bound in at least nine pairs of ten on any workload.
#
#   scripts/pairs.sh <parent-ref> <workload>[,<workload>...] <first-seed> <pairs>
#   scripts/pairs.sh HEAD~1 batch_lookup 5401 10
#   scripts/pairs.sh HEAD~1 stream_ingest,reinfer_refresh 5401 10
#
# Several workloads run one after another, in the order given, each with the
# same seeds and its own table. <parent-ref> is a git revision, checked out
# with `git worktree add` into a temporary directory that is removed on exit.
# `scripts/pairs.sh HEAD ...` on a clean tree compares the commit with itself:
# the A/A noise floor to read a real comparison against. Logs and reports stay
# in .bench_build/pairs/<workload>-<first-seed>/.
set -euo pipefail

if [ $# -ne 4 ]; then
  echo "usage: scripts/pairs.sh <parent-ref> <workload>[,<workload>...] <first-seed> <pairs>" >&2
  exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="$1" first="$3" pairs="$4"
IFS=, read -ra workloads <<<"$2"

parent_dir="$(mktemp -d)/parent"
trap 'git -C "$root" worktree remove --force "$parent_dir" || true; rm -rf "$(dirname "$parent_dir")"' EXIT
git -C "$root" worktree add --detach "$parent_dir" "$parent" >&2

status=0
for workload in "${workloads[@]}"; do
  out="$root/.bench_build/pairs/$workload-$first"
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
      if ! bash "$dir/bench/run.sh" --workload "$workload" --seed "$seed" --trace 0 >"$run.log" 2>&1; then
        echo "pairs: the $side run of seed $seed exited non-zero (see $run.log)" >&2
      fi
      # The report is the run's last JSON line; a run that printed none leaves
      # an empty file, shown as missing.
      { grep '^{' "$run.log" || true; } | tail -n 1 >"$run.json"
      pos=$((pos + 1))
    done
  done
  echo "pairs: reports in $out" >&2
  (cd "$root" && go run ./cmd/benchjson -pairs "$out") || status=$?
done
exit "$status"
