(** Phase 1 (design time): the table builder, with demand-driven cell
    solving, certified interpolation between grid points, and export
    to the mmap-able serving format.

    Every Phase-1 table is built here, from the paper's 6x10 table to
    the 100x100+ grids a production deployment wants per floorplan
    per power-law revision: [create ... |> to_table].  A {!t} is a
    memoized grid over [(tstart, ftarget)], each cell the solution of
    the Eq. 3 program ({!Model}): {!cell} solves lazily through
    {!Model.solve} (the floor-only closed form when no thermal row
    binds, else the conic solver on a working set), a
    certified-infeasible cell prunes everything hotter {e and} faster
    through the monotone feasibility frontier, and {!fill} fans the
    remaining cells across {!Parallel.Pool} with domain-count-invariant
    results.  {!lookup} serves points {e between} grid cells by
    bilinear interpolation, with a monotonicity-repair pass that clamps
    any blend whose {!Guarantee.window_peak} certificate would exceed
    the envelope back to the paper's discrete rule — so interpolated
    lookups are never less safe than discrete ones.  (DESIGN.md
    section 6h.)

    {b Served throughput.}  A feasible cell [(tstart, ftarget)] holds
    the frequencies [f_j] of the optimum of Eq. 3, each clamped to its
    core's ceiling [core_fmax_j].  They meet the throughput floor
    [sum_j f_j >= n ftarget] ([n] the core count) up to a shortfall
    bounded by

    {v
      n ftarget - sum_j f_j
        <= (f_box - 1 + eps) sum_j core_fmax_j + eps fmax,
      eps = 100 Convex.Conic.feas_tol max(2, n)
    v}

    The first term is the clamp: the model's box lets each normalized
    frequency reach {!Model.f_box} [= 1.002], and the served value is
    cut back to 1.  [eps] is the largest floor or box residual, in
    units of [fmax], of an interior-point optimum that
    {!Convex.Conic} accepts (its tolerance relaxed 100x for a stalled
    endgame, relative to [max(1, |h|_inf)] and [|h|_inf <= max(2, n)]
    on a feasible cell); a cell settled in closed form meets the floor
    up to rounding.  On the benchmark's grids at stride 4 the worst
    shortfall is 4.80 MHz of the 13.4 MHz bound on big.LITTLE (150x8,
    at 27 C and 614.29 MHz) and 572 Hz of 16.7 MHz on Niagara
    (100x100); test_dense_table gates both grids.

    A row holds its solver state (its {!Model.prepared} context and
    conic workspace) only while it has a cell left to solve: once every
    cell of the row is memoized, by {!fill} or by {!cell} calls, the
    state is dropped.  A filled grid keeps only its cells and the
    neighbour seeds: 29k words on the 74x9 serving grid, against 2.1M
    with every row's solver state (DESIGN.md section 6p). *)

open Linalg

type t

val create :
  ?margin:float ->
  machine:Sim.Machine.t ->
  spec:Spec.t ->
  tstarts:float array ->
  ftargets:float array ->
  unit ->
  t
(** An empty memoized grid.  [margin] (default [0.0]) tightens the
    spec's [tmax] once through {!Spec.guard_band}, so solved cells and
    the interpolation repair pass certify against the same
    guard-banded envelope.  Raises [Invalid_argument] on a margin
    {!Spec.guard_band} rejects, or when an axis is empty, holds a
    non-finite value, or is not strictly increasing.

    A [t] memoizes in place and is {e not} safe for concurrent
    mutation from several domains — {!fill} parallelizes internally
    (one row per task); on-demand {!cell}/{!lookup} calls belong on
    one domain.  Export with {!to_table}/{!Table_store.write} and
    share the image instead. *)

val tstarts : t -> float array
val ftargets : t -> float array

val cell : t -> int -> int -> Table.cell
(** Solve (or recall) cell [(i, j)].  A fresh solve is seeded from the
    already-solved adjacent cell with the closest [ftarget] (so a
    same-column vertical neighbour beats a horizontal one), falling
    back to a cold start; one {!Convex.Conic.workspace} and one
    {!Model.prepared} context are reused per row, and dropped when
    this call completes the row.  If any known infeasible cell sits at
    or below [(i, j)] on the monotone frontier
    (cooler row, same-or-slower column), the cell is certified
    infeasible without a solve and counted as pruned.  Raises
    [Invalid_argument] out of range. *)

val computed : t -> int
(** Memoized cells so far (solved + pruned). *)

type fill_stats = {
  cells : int;  (** Cells this {!fill} materialized (not yet memoized). *)
  solves : int;  (** Solver invocations among them. *)
  warm_hits : int;  (** Solves seeded from a neighbour's optimum. *)
  pruned : int;  (** Cells certified infeasible via the frontier, no solve. *)
  feasible : int;  (** Feasible cells among [cells]. *)
}

val fill : ?domains:int -> t -> fill_stats
(** Materialize every remaining cell.  Rows are fanned across a
    {!Parallel.Pool} ([domains] defaults to
    {!Parallel.Pool.default_domains}); within a row, columns run left
    to right, each solve seeded from the previous feasible column, and
    the cross-row frontier is snapshotted before the fan-out — so the
    resulting grid is a pure function of the pre-fill memo state,
    bit-identical at any domain count. *)

val stats : t -> fill_stats
(** Cumulative counters over the whole life of [t] (on-demand calls
    included); [cells] equals {!computed}. *)

val solver_stats : t -> Convex.Conic.stats
(** Cumulative solver work counters over the whole life of [t]
    ({!cell} calls included), with one certificate outcome per cell
    solve ({!Model.solve}).  {!fill} merges its rows in row order,
    so the counters do not depend on the domain count. *)

val closed_form_cells : t -> int
(** Cells {!Model.solve} settled by the floor-only closed form, with
    no interior-point iteration, over the whole life of [t] ({!cell}
    calls included).  A subset of the feasible solved cells; {!fill}
    merges its rows in row order, like {!solver_stats}. *)

val lookup :
  t ->
  temperature:float ->
  required:float ->
  [ `Interpolated of Vec.t | `Clamped of Vec.t | `None ]
(** Serve a point between grid cells, solving the (up to four)
    surrounding corners on demand.

    [`Interpolated v] is the bilinear blend of the four corner
    vectors, returned only when its {!Guarantee.window_peak} from the
    conservative covering row's [tstart] stays inside the (possibly
    guard-banded) envelope — the repair-pass certificate.  Otherwise
    the result falls back to the paper's discrete rule on the same
    grid and is reported as [`Clamped] (also used when a corner is
    infeasible or the requirement exceeds the grid).  [`None] is the
    discrete rule's miss: observation hotter than every row, or no
    feasible column.  Never less safe than the discrete rule: every
    interpolated vector carries the same simulate-and-check
    certificate the {!Guarantee} audits use. *)

val discrete : t -> temperature:float -> required:float -> Vec.t option
(** The paper's discrete rule served from the memoized grid (corners
    solved on demand): covering row, round the requirement up, walk
    down to the first feasible column. *)

val to_table : ?domains:int -> t -> Table.t
(** {!fill} (if needed) then snapshot the grid as an immutable
    {!Table.t} — the hand-off point to {!Table_store.write}. *)

val audit : t -> Guarantee.audit
(** {!fill} (if needed) then {!Guarantee.audit_table} against the
    grid's (guard-banded) envelope — the whole-grid certification
    pass. *)
