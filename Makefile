.PHONY: ci build test lint bench bench-compare clean

# Everything the tier-1 gate runs: full build, then the test suites.
# `dune runtest` also executes the benchmarks in fast mode
# (PROTEMP_BENCH_FAST=1, see bench/dune): the sweep smoke cross-checks
# the compiled vs reference barrier backends and the parallel vs
# sequential tables, walks the dense-table pipeline end to end (fill,
# domain invariance, warm-start hit-rate gate, mmap store, both
# serving paths), and the sim smoke checks the allocation-free
# engine against the reference engine, the campaign (including its
# fault axis) across domain counts, and the fault sweep's golden
# guarantee gate — a zero-fault configuration reporting any tmax
# violation, or the guard-banded table failing to absorb an injected
# fault, exits non-zero.  The fleet smoke runs all three fleet gates
# on a small rack: zero violations under the shared guard-banded
# store, bit-identical aggregates across domain counts, and
# coolest-headroom strictly beating round-robin on the hot-aisle
# scenario.  The paper-claim harness (bench/main.exe, fast mode)
# exits non-zero if any of its 18 figure-shape and Sec. 5.1 claims
# fails.  The table_store suite also pins the serving
# format against test/table_store_header.golden: a format/version
# change must update that committed header consciously or ci fails.
# `dune runtest` additionally self-lints the
# whole tree (see the root `dune` rule), and `lint` below runs the
# same pass standalone; ci runs it explicitly so a lint regression is
# reported even if the runtest alias is filtered.
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

# Full-size benchmarks; rewrite BENCH_sweep.json / BENCH_sim.json /
# BENCH_fleet.json.
bench:
	dune exec bench/sweep_bench.exe
	dune exec bench/sim_bench.exe
	dune exec bench/fleet_bench.exe

# Benchmark this working tree against REV (default HEAD) with the
# end-to-end harness in benchmark/: W names the workloads, SEEDS the
# trace seeds; unset ones take the defaults in scripts/bench-compare.sh.
# Each run lasts the harness's own default length.  REV builds in a
# temporary git worktree outside the repository; the two trees
# alternate seed by seed, flipping which runs first, and
# `protemp_bench.exe compare` prints the verdicts.  Result files stay
# in a temporary directory.
#   make bench-compare W=fleet.serve SEEDS="2008 2009 2010"
bench-compare:
	bash scripts/bench-compare.sh "$(REV)" "$(W)" "$(SEEDS)"

clean:
	dune clean
