(** Online (MPC-style) Pro-Temp: re-solve the convex program at every
    DFS epoch from the measured temperatures, hardened for imperfect
    sensing.

    The paper precomputes a table precisely to avoid online solving,
    at the cost of two conservatisms: the measured per-core profile is
    collapsed to its maximum (the table row key), and the demand is
    rounded to the column grid.  This controller removes both by
    solving the Eq. 3/5 instance for the actual situation each window.
    It keeps the never-exceeds-tmax guarantee: core temperatures are
    measured, and the unsensed non-core nodes are set to the hottest
    core reading, an upper bound under the monotone thermal dynamics
    (caches and buffers run cooler than cores on this platform).

    Two hardening mechanisms close the gap to real TMUs:

    {b Guard band.}  With [~margin:m] every instance is solved against
    [tmax - m] instead of [tmax].  Sensors that under-read by at most
    [m] degrees (bounded noise, staleness over windows that heat less
    than [m]) then cannot break the cap: the step matrix is
    sub-stochastic, so a start profile [m] degrees hotter than assumed
    lifts the certified trajectory by at most [m].

    {b Degradation chain.}  Every decision walks a fixed chain and
    counts where it landed: (1) a fresh solve at the observed profile;
    (2) on infeasibility, the [fallback] table's run-time rule — the
    next lower feasible column of the covering row; (3) with no
    fallback entry either, a safe stop (all cores off for the
    window).  {!counts} exposes the per-outcome totals, and
    {!outcome_probe} turns them into a {!Sim.Probe} for a single run.

    All counters are {!Atomic} and instance names draw from an atomic
    sequence, so controllers built concurrently inside
    [Sim.Campaign.run] worker domains never race or collide.

    Cost: one interior-point solve (hundreds of milliseconds of host
    time at full constraint resolution) per 100 ms control window, so
    this variant is a research upper bound for what the table
    approximates — see the [abl_online_vs_table] bench. *)

type counts = {
  solved : int;  (** Fresh solves that came back feasible. *)
  fallbacks : int;  (** Decisions served from the fallback table. *)
  stops : int;  (** Safe stops (no solve, no table entry). *)
}

type t
(** One controller instance with its decision counters. *)

val create :
  ?fallback:Table.t ->
  ?margin:float ->
  machine:Sim.Machine.t ->
  spec:Spec.t ->
  unit ->
  t
(** Every decision is one {!Model.solve} of the window from the
    measured profile.  [margin] (degrees, default [0.0] — the unguarded controller of
    the paper's idealized sensing) is subtracted from [spec]'s [tmax]
    before solving by {!Spec.guard_band}, which raises
    [Invalid_argument] when it is negative, not finite or at least
    [tmax].  At [margin = 0.0] the controller's decisions are
    bit-identical to the historical unguarded implementation. *)

val controller : t -> Sim.Policy.controller
(** The engine-facing view.  Decisions mutate the instance's
    counters. *)

val solves : t -> int
(** Decisions taken so far — every decision attempts one fresh
    solve, so this also counts solver invocations. *)

val counts : t -> counts
(** Per-outcome decision totals; fields sum to {!solves}. *)

val outcome_probe : t -> Sim.Probe.t * (unit -> counts)
(** A probe isolating one run: the accessor reports the counts
    accumulated since the probe was created (finalized when the run
    finishes, live before that).  Attach to [Sim.Engine.run] alongside
    the instance's {!controller}. *)
