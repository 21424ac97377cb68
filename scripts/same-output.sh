#!/usr/bin/env bash
# Check that the working tree computes what a git revision computes,
# byte for byte:
#
#   scripts/same-output.sh [REV]
#   (usually through `make same-output REV=<rev>`; REV defaults to HEAD)
#
# REV is unpacked from `git archive` into a temporary directory
# outside the repository, as scripts/bench-compare.sh does, and both
# trees build from source.  An archive, not a `git worktree`: it
# writes nothing into the repository's .git (no worktree entry to
# prune, no lock left by an interrupted run), so the script also runs
# from a checkout whose .git it may not write.  On each tree the
# script runs
#   - the driver scripts/same-output/same_output.exe, which prints at
#     %.17g every solve, frontier and profile solve (duals included)
#     and every table of a fixed set: Niagara and big.LITTLE; the
#     variable, uniform, gradient and capped-gradient variants;
#     strides 1 and 4; margins 0 and 5 C; plus the benchmark's three
#     grids, its two table builds in their 10 interleaved row blocks,
#     and one grid on a Niagara whose step matrix has a negative
#     entry, with their fill and solver counters.  Both trees run the
#     same driver source: the working tree's driver when it builds
#     against REV, otherwise REV's own driver, built against REV and
#     against a copy of the working tree (a driver that prints a
#     counter REV lacks does not build there).  The script says which
#     driver it used;
#   - the CLI's `solve`, `frontier` and `table` on both platforms for
#     the same variants, strides and margins: their printed output and
#     the tables' %.17g CSVs.
# Every output is compared with cmp.  Exits 1 on any difference (the
# outputs then stay in the temporary directory printed at the end), 0
# when every output matches.
set -euo pipefail
rev=${1:-HEAD}

repo=$(git rev-parse --show-toplevel)
base_rev=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/protemp-same-output.XXXXXX")
base="$tmp/base"
keep=1
cleanup() {
  if [ "$keep" = 0 ]; then rm -rf "$tmp"; fi
}
trap cleanup EXIT
trap 'exit 130' INT TERM

mkdir -p "$base"
git -C "$repo" archive "$base_rev" | tar -C "$base" -xf -

build() {
  DUNE_CACHE=disabled dune build --root "$1" --display quiet \
    ./bin/protemp_cli.exe ./scripts/same-output/same_output.exe
}

# The driver both trees run: the working tree's when it builds against
# REV, else REV's own, which then also builds against a copy of the
# working tree (the working tree itself is left untouched).
change="$repo"
rm -rf "$base/scripts/same-output"
mkdir -p "$base/scripts"
cp -R "$repo/scripts/same-output" "$base/scripts/same-output"
echo "building $base" >&2
if build "$base" >"$tmp/driver-build.log" 2>&1; then
  echo "driver: the working tree's scripts/same-output" >&2
else
  rm -rf "$base/scripts/same-output"
  if ! git -C "$repo" archive "$base_rev" scripts/same-output 2>/dev/null |
    tar -C "$base" -xf - 2>/dev/null ||
    [ ! -d "$base/scripts/same-output" ]; then
    cat "$tmp/driver-build.log" >&2
    echo "the working tree's driver does not build at $rev, which has no" \
      "driver of its own" >&2
    exit 2
  fi
  echo "driver: $rev's scripts/same-output (the working tree's does not" \
    "build there; see $tmp/driver-build.log)" >&2
  build "$base" 1>&2
  change="$tmp/change"
  mkdir -p "$change"
  # Tracked and untracked, non-ignored files as they are on disk.
  git -C "$repo" ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do
      if [ -e "$repo/$f" ]; then printf '%s\0' "$f"; fi
    done |
    tar -C "$repo" --null -T - -cf - | tar -C "$change" -xf -
  rm -rf "$change/scripts/same-output"
  cp -R "$base/scripts/same-output" "$change/scripts/same-output"
fi
echo "building $change" >&2
build "$change" 1>&2

# All outputs of one tree go to $tmp/out-<side>/, one file per
# command.
run_tree() {
  local side=$1 tree=$2
  local out="$tmp/out-$side"
  local cli="$tree/_build/default/bin/protemp_cli.exe"
  mkdir -p "$out"
  echo "running $side" >&2
  "$tree/_build/default/scripts/same-output/same_output.exe" >"$out/driver.txt"
  # One CLI run; its exit status is part of its output.
  run() {
    local name=$1
    shift
    local status=0
    "$cli" "$@" >"$out/$name.txt" 2>&1 || status=$?
    echo "exit $status" >>"$out/$name.txt"
  }
  local platform variant stride margin flags tstart
  for platform in niagara biglittle; do
    for variant in variable uniform gradient; do
      case $variant in
        variable) flags=() ;;
        uniform)
          [ "$platform" = niagara ] || continue
          flags=(--uniform) ;;
        gradient) flags=(--gradient 0.5) ;;
      esac
      for stride in 1 4; do
        local tag="$platform-$variant-stride$stride"
        for tstart in 27 60 85 100; do
          run "solve-$tag-$tstart" solve --platform "$platform" \
            ${flags[@]+"${flags[@]}"} --stride "$stride" --tstart "$tstart" \
            --ftarget 500
          run "frontier-$tag-$tstart" frontier --platform "$platform" \
            ${flags[@]+"${flags[@]}"} --stride "$stride" --tstart "$tstart"
        done
        for margin in 0 5; do
          run "table-$tag-margin$margin" table --platform "$platform" \
            ${flags[@]+"${flags[@]}"} --stride "$stride" --margin "$margin" \
            --domains 1 --tstarts 27,40,55,70,85,100 \
            --ftargets 100,250,400,550,700,850 \
            -o "$out/table-$tag-margin$margin.csv"
          # The CSV path is printed; keep the comparison to its content.
          sed -i "s|$out/||" "$out/table-$tag-margin$margin.txt"
        done
      done
    done
  done
}

run_tree base "$base"
run_tree change "$change"

differ=0
compared=0
for file in "$tmp/out-base"/*; do
  name=$(basename "$file")
  compared=$((compared + 1))
  if ! cmp -s "$file" "$tmp/out-change/$name"; then
    echo "differs: $name" >&2
    differ=$((differ + 1))
  fi
done
echo "base: $rev ($base_rev); change: working tree of $repo" >&2
if [ "$differ" -gt 0 ]; then
  echo "$differ of $compared outputs differ: see $tmp/out-*" >&2
  exit 1
fi
echo "all $compared outputs identical" >&2
keep=0
