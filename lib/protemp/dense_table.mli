(** Phase 1 (design time): the table builder.

    Every Phase-1 table is built here, from the paper's 6x10 table to
    the 100x100+ grids a production deployment wants per floorplan
    per power-law revision: [create ... |> to_table].  Each cell
    [(tstart, ftarget)] is the solution of the Eq. 3 program
    ({!Model.solve}); {!fill} solves them row by row, and the paper's
    discrete lookup serves the resulting {!Table.t} ({!Table_store}).

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
    (100x100); test_dense_table gates both grids. *)

type t

val create :
  ?margin:float ->
  machine:Sim.Machine.t ->
  spec:Spec.t ->
  tstarts:float array ->
  ftargets:float array ->
  unit ->
  t
(** An empty grid.  [margin] (default [0.0]) tightens the spec's
    [tmax] once through {!Spec.guard_band}, so every cell is solved
    against the guard-banded envelope.  Raises [Invalid_argument] on a
    margin {!Spec.guard_band} rejects, when an axis is empty, holds
    a non-finite value, or is not strictly increasing, and for an
    [ftarget] outside [[0, fmax]] of the machine, NaN included.  {!fill}
    writes its result into [t]: call it from one domain (it
    parallelizes internally), then share the exported table. *)

type fill_stats = {
  cells : int;  (** Cells this {!fill} materialized. *)
  solves : int;
      (** Cells settled among them, by their column or by
          {!Model.solve}: each row's columns up to and including its
          first infeasible one. *)
  warm_hits : int;
      (** Settled cells seeded from the previous column's optimum:
          every one but the first of each row. *)
  pruned : int;
      (** Cells after a row's first infeasible column: infeasible, no
          solve. *)
  feasible : int;  (** Feasible cells among [cells]. *)
}

val fill : ?domains:int -> t -> fill_stats
(** Solve every cell, once.  {!Model.rows} takes the grid's
    {!Model.columns} (one floor-only optimum per [ftarget], with the
    machine's thermal rows) and finds its closed rows (the leading
    rows every column holds on, in one pass over the thermal rows at
    the last column's point, with no start) on the calling domain; the
    rows it then settles are fanned across a {!Parallel.Pool}
    ([domains] defaults to {!Parallel.Pool.default_domains}), and
    their counts are merged here.  A closed row is served a copy of
    each column's frequencies with no start, check, instance or solve
    record.  Any other row
    prepares its start once, serves the leading columns that hold
    there the same way, and settles every later cell as
    {!Model.solve} does, making its one conic workspace only if a cell
    reaches the conic method.  Each cell is seeded from the previous
    feasible column, and the row stops at its first infeasible
    column: infeasibility is monotone in [ftarget], so the rest are
    pruned.  Every cell and counter is what {!Model.solve} gives for
    it, and the grid is bit-identical at any domain count.  Raises
    [Invalid_argument], before any row is solved and with [t] left
    unfilled, when {!Model} refuses the spec on the machine (the
    uniform variant on a platform of several core classes).  A second
    [fill] materializes nothing and returns zero counts. *)

val solver_stats : t -> Convex.Conic.stats
(** Solver work counters of the {!fill}, with one certificate outcome
    per cell solve ({!Model.solve}; a cell its column settles counts
    as one optimal outcome with no iteration); zero before it.  Rows are merged
    in row order, so the counters do not depend on the domain
    count. *)

val closed_form_cells : t -> int
(** Cells settled by the floor-only closed form (their column held),
    with no interior-point iteration; zero before {!fill}.  A subset
    of the feasible cells. *)

val active_set_cells : t -> int
(** Cells {!Model.solve} settled by its active-set step (a KKT point
    from a few binding thermal rows), with no interior-point
    iteration; zero before {!fill}.  A subset of the feasible cells,
    disjoint from {!closed_form_cells}. *)

val frontier_verdicts : t -> int
(** Rows whose first infeasible cell {!Model.solve} refuted with a
    cached frontier tangent, with no interior-point run: the cells its
    solver stats count as primal-infeasible with no iteration; zero
    before {!fill}.  A cell refuted by its own start's frontier after a
    stalled run is not among them (its stats carry the iterations). *)

val to_table : ?domains:int -> t -> Table.t
(** {!fill} (if needed) and the grid as an immutable {!Table.t} — the
    hand-off point to {!Table_store.write}.  The table is built once
    and every later call returns it. *)
