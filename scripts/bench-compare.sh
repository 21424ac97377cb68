#!/usr/bin/env bash
# Benchmark the working tree against a git revision, seed by seed:
#
#   scripts/bench-compare.sh [REV] ["WORKLOADS"] ["SEEDS"]
#   (usually through `make bench-compare W=fleet.serve SEEDS="2008 2009"`)
#
# An empty or missing argument takes its default: REV HEAD, workload
# fleet.serve, seeds 2008-2017.  Every run lasts protemp_bench's
# default length, the benchmark's run_seconds, on both sides.
#
# REV is unpacked from `git archive` into a temporary directory
# outside the repository, and the working tree (its tracked and
# untracked files, not the ignored ones) is copied beside it as it
# stands; both build benchmark/protemp_bench.exe from source.  An
# archive, not a `git worktree`: it writes nothing into the
# repository's .git (no worktree entry to prune, no lock left by an
# interrupted run), so the script also runs from a checkout whose .git
# it may not write.  The two trees sit in directories whose names have
# the same length, and the two sides' result files too: a run's peak
# RSS follows the length of its path and of its argv, so a side run
# from a longer path would read as using more memory.  For every
# workload and seed the two trees run one after the other, and which
# tree goes first flips from seed to seed, so a slow spell of a shared
# host lands on both sides.  Then `protemp_bench.exe compare` prints
# medians, quartiles, deltas and verdicts.  The two trees are removed
# at exit; the result files stay in the temporary directory printed at
# the end, never in the repository.
set -euo pipefail
rev=${1:-HEAD}
workloads=${2:-fleet.serve}
seeds=${3:-2008 2009 2010 2011 2012 2013 2014 2015 2016 2017}

repo=$(git rev-parse --show-toplevel)
base_rev=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/protemp-bench-compare.XXXXXX")
# Equal-length names: the parent's tree and the working tree's copy.
base="$tmp/base"
work="$tmp/work"
results="$tmp/results"
mkdir -p "$results"
cleanup() {
  rm -rf "$base" "$work"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

mkdir -p "$base" "$work"
git -C "$repo" archive "$base_rev" | tar -C "$base" -xf -
# Tracked files deleted from the working tree are left out.
git -C "$repo" ls-files -z --cached --others --exclude-standard \
  | (cd "$repo" && while IFS= read -r -d '' f; do
       if [ -e "$f" ]; then printf '%s\0' "$f"; fi
     done | tar --null -T - -cf -) \
  | tar -C "$work" -xf -
for tree in "$base" "$work"; do
  echo "building $tree" >&2
  DUNE_CACHE=disabled dune build --root "$tree" --display quiet \
    ./benchmark/protemp_bench.exe 1>&2
done

# One untraced run; the human-readable report goes to a log file.  The
# pair number keeps repeated seeds apart; the side names [base] and
# [work] have the same length.
run() {
  local side=$1 tree=$2 workload=$3 seed=$4
  local name="$results/$side-$workload-$seed-$pair"
  echo "  $side $workload seed $seed" >&2
  if ! (cd "$tree" && ./_build/default/benchmark/protemp_bench.exe run \
      --workload "$workload" --seed "$seed" --trace 0 \
      --out "$name.json" >/dev/null 2>"$name.log"); then
    echo "run failed: $side $workload seed $seed (see $name.log)" >&2
    tail -5 "$name.log" >&2
    exit 1
  fi
}

first=base
pair=0
for workload in $workloads; do
  for seed in $seeds; do
    pair=$((pair + 1))
    if [ "$first" = base ]; then
      run base "$base" "$workload" "$seed"
      run work "$work" "$workload" "$seed"
      first=work
    else
      run work "$work" "$workload" "$seed"
      run base "$base" "$workload" "$seed"
      first=base
    fi
  done
done

echo "base: $rev ($base_rev); change: working tree of $repo" >&2
echo "results: $results" >&2
"$work/_build/default/benchmark/protemp_bench.exe" compare \
  --benchmark "$work/BENCHMARK.json" \
  --base "$results"/base-*.json --change "$results"/work-*.json
