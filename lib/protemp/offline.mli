(** Phase 1 (design time): sweep the design space and build the table.

    For every grid point [(tstart, ftarget)] the convex model is
    solved and the optimal frequency vector stored.  Infeasibility is
    monotone (hotter starts and higher targets are both harder), which
    prunes the sweep: once a column is infeasible for a row, all
    higher columns are too, and the check is skipped.

    The sweep is parallel across [tstart] rows (each row is an
    independent {!Model.prepare} context) and warm-started along the
    [ftarget] columns within a row (each solve is seeded from the
    previous feasible cell's interior optimum).  Rows are assembled by
    index, and each row is a pure sequential function of its inputs,
    so the table contents do not depend on the domain count. *)


val default_tstarts : float array
(** 30..100 in steps of 10 (plus the 27 ambient row). *)

val default_ftargets : float array
(** 100 MHz..1 GHz in steps of 100 MHz. *)

type progress = {
  tstart : float;
  ftarget : float;
  outcome : [ `Feasible | `Infeasible | `Pruned ];
  seconds : float;
}

type sweep_stats = {
  solves : int;  (** Cells actually solved (pruned cells excluded). *)
  barrier : Convex.Barrier.stats;
      (** Barrier-path work — frontier climbs, phase-I runs and conic
          fallbacks included. *)
  conic : Convex.Conic.stats;
      (** Conic-path work, with per-solve certificate outcomes. *)
}
(** Aggregated solver work counters for a whole sweep, split by
    solver.  Deterministic for fixed inputs (independent of the
    domain count). *)

val sweep_stats_zero : sweep_stats
val sweep_stats_add : sweep_stats -> sweep_stats -> sweep_stats

val sweep :
  ?solver:[ `Conic | `Barrier ] ->
  ?options:Convex.Barrier.options ->
  ?backend:Convex.Barrier.backend ->
  ?domains:int ->
  ?warm_starts:bool ->
  ?tstarts:float array ->
  ?ftargets:float array ->
  ?on_progress:(progress -> unit) ->
  machine:Sim.Machine.t ->
  spec:Spec.t ->
  unit ->
  Table.t
(** [solver] is passed to every {!Model.solve} (default [`Conic]).
    [domains] is the worker-pool size (default
    {!Parallel.Pool.default_domains}, i.e. the [PROTEMP_DOMAINS]
    environment variable or the hardware count); [1] runs the classic
    sequential loop on the calling domain.  [warm_starts] (default
    [true]) seeds each solve from the previous column's optimum: on
    the conic path the seed picks the cell's working set and the
    iterate starts cold (no more factorizations than cold solves on
    the default 9x10 axes at stride 2, which [test_parallel] gates;
    DESIGN.md 6p); on the barrier path it stays within noise of cold
    and exists for measurement.  [backend] selects the barrier
    oracle (default [`Compiled]); the [`Reference] path exists for
    differential testing.  With [domains > 1], [on_progress] is
    invoked from worker domains — calls are serialized under a mutex,
    but rows interleave, so expect out-of-order cells. *)

val sweep_with_stats :
  ?solver:[ `Conic | `Barrier ] ->
  ?options:Convex.Barrier.options ->
  ?backend:Convex.Barrier.backend ->
  ?domains:int ->
  ?warm_starts:bool ->
  ?tstarts:float array ->
  ?ftargets:float array ->
  ?on_progress:(progress -> unit) ->
  machine:Sim.Machine.t ->
  spec:Spec.t ->
  unit ->
  Table.t * sweep_stats
(** {!sweep} plus the aggregated solver work counters. *)

val frontier_point :
  ?options:Convex.Barrier.options ->
  ?backend:Convex.Barrier.backend ->
  machine:Sim.Machine.t ->
  spec:Spec.t ->
  tstart:float ->
  unit ->
  Model.outcome
(** Solve the max-throughput problem at one starting temperature; the
    solution's per-core frequencies are the Fig. 10 data. *)

val max_feasible_ftarget :
  ?options:Convex.Barrier.options ->
  ?backend:Convex.Barrier.backend ->
  machine:Sim.Machine.t ->
  spec:Spec.t ->
  tstart:float ->
  unit ->
  float option
(** The feasibility frontier at one starting temperature — the average
    of {!frontier_point}'s frequencies (the Fig. 9 series); [None]
    when even idling is infeasible. *)

val solve_point :
  ?solver:[ `Conic | `Barrier ] ->
  ?options:Convex.Barrier.options ->
  ?backend:Convex.Barrier.backend ->
  machine:Sim.Machine.t ->
  spec:Spec.t ->
  tstart:float ->
  ftarget:float ->
  unit ->
  Model.outcome
(** One design point (convenience wrapper over {!Model}). *)
