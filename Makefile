.PHONY: ci build test lint bench-compare same-output clean

# Everything the tier-1 gate runs: full build, then `dune runtest`,
# which runs
#   - the test suites in test/ (alcotest + qcheck; the table_store
#     suite also pins the serving format against
#     test/table_store_header.golden, so a format or version change
#     must update that committed header consciously);
#   - bench/main.exe in fast mode (PROTEMP_BENCH_FAST=1, see
#     bench/dune), which exits non-zero if any of its 18 figure-shape
#     and Sec. 5.1 claims fails;
#   - the four benchmark/ smokes (table.niagara, table.biglittle,
#     chip.trace, fleet.serve at --fast sizes, see benchmark/dune),
#     each failing on any of its output checks;
#   - the self-lint of the whole tree (see the root `dune` rule).
# `lint` below runs the same static-analysis pass standalone; ci runs
# it explicitly so a lint regression is reported even if the runtest
# alias is filtered.
ci: build test lint

build:
	dune build

test:
	dune runtest

# Static analysis: domain-safety, alloc-free manifest, float equality,
# mli coverage (DESIGN.md section 6f), plus the typed pass — units of
# measure per units.manifest and cross-domain capture (section 6k).
# Building the check alias first guarantees fresh .cmt artifacts, so
# the typed checkers see real cross-module types; findings whose
# stable id is in lint.baseline are reported but don't fail.  Exits
# non-zero on any unsuppressed, unbaselined finding.
lint:
	dune build @lib/check @bin/check @benchmark/check
	dune exec bin/protemp_cli.exe -- lint --manifest lint.manifest \
	  --units units.manifest --baseline lint.baseline

# Regenerate the baseline: acknowledge every current finding by id.
# Review the diff — a grown baseline is a consciously accepted debt.
lint-baseline:
	dune build @lib/check @bin/check @benchmark/check
	dune exec bin/protemp_cli.exe -- lint --manifest lint.manifest \
	  --units units.manifest --baseline lint.baseline --update-baseline

# Benchmark this working tree against REV (default HEAD) with the
# end-to-end harness in benchmark/: W names the workloads, SEEDS the
# trace seeds; unset ones take the defaults in scripts/bench-compare.sh.
# Each run lasts the harness's own default length.  REV builds from a
# `git archive` of it in a temporary directory outside the repository
# (no git worktree); the two trees
# alternate seed by seed, flipping which runs first, and
# `protemp_bench.exe compare` prints the verdicts.  Result files stay
# in a temporary directory.
#   make bench-compare W=fleet.serve SEEDS="2008 2009 2010"
bench-compare:
	bash scripts/bench-compare.sh "$(REV)" "$(W)" "$(SEEDS)"

# Check that the working tree computes what REV (default HEAD)
# computes, byte for byte: scripts/same-output.sh builds REV from a
# `git archive` of it in a temporary directory outside the repository
# (no git worktree), runs its %.17g driver
# (scripts/same-output/) and the CLI's solve, frontier and table on
# both trees, and exits non-zero on any difference.
#   make same-output REV=HEAD~1
same-output:
	bash scripts/same-output.sh "$(REV)"

clean:
	dune clean
