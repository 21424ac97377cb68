(** Construction of the paper's convex models (Eqs. 3-5).

    For a starting temperature [tstart] and a target average frequency
    [ftarget], builds the program

    {v
      minimize    sum_i p_i            (+ weight * tgrad, Eq. 5)
      subject to  t_{0,i}   = tstart
                  t_{k+1,i} = t_{k,i} + sum_j a_ij (t_kj - t_ki) + b_i p_i
                  t_{k,i}  <= tmax                  for all steps k, nodes i
                  pmax f_i^2 / fmax^2 <= p_i        (Eq. 2)
                  sum_i f_i >= n ftarget
                  0 <= f_i <= fmax
                  (gradient variant: t_{k,i} - t_{k,j} <= tgrad)
    v}

    Because the frequencies are held for the whole window, the
    temperature at step [k] is an {e affine} function of the power
    vector; the recurrence is eliminated up front, leaving one linear
    constraint per (step, node) pair, quadratic power-law constraints
    and a linear objective — a convex QCQP solved by {!Convex.Solve}.
    The gradient term is encoded with two auxiliary variables
    [u >= t_{k,i}/tmax >= l] ranging over all steps and cores, so
    [u - l] bounds the spread across the whole window; this dominates
    the paper's per-instant pairwise spread (Eq. 4) — a conservative
    over-approximation — while needing O(mn) instead of O(mn^2)
    constraints.

    A thermal row is emitted only when some point of the power box
    [0 <= p_i/pmax <= 1.005] could reach [tmax] on it (to a relative
    margin of 1e-6): every other row is implied by the box rows, which
    stay in the problem, so the feasible set is unchanged.  At stride 4
    on the Niagara model that keeps 144 of 1071 thermal rows at 27 C
    and 504 at 100 C.

    Variables are normalized ([f/fmax], [p/pmax], [t/tmax]) so the
    barrier solver operates on a well-conditioned unit box. *)

open Linalg

type layout = {
  dim : int;
  n_cores : int;
  f_offset : int;  (** Index of the first frequency variable. *)
  n_f : int;  (** 1 for the uniform variant, [n_cores] otherwise. *)
  p_offset : int;
  n_p : int;
  bounds_offset : int option;
      (** Index of [(u, l)] when the gradient term is enabled. *)
}

type built = {
  problem : Convex.Barrier.problem;
  layout : layout;
  spec : Spec.t;
  initial_temperatures : Vec.t;
      (** Per-node start temperatures (uniform [tstart] for table
          cells; a measured profile for the online controller). *)
  ftarget : float;  (** Hz. *)
  steps : int;  (** Thermal steps in the window ([m] in the paper). *)
  machine : Sim.Machine.t;
  frontier_problem : Convex.Barrier.problem Lazy.t;
      (** The floor-free companion problem over the same envelope,
          used as a structural phase I by {!solve}.  Shared — and
          forced at most once — by every instance made from the same
          {!prepared} context. *)
  compiled : Convex.Compiled.t Lazy.t;
      (** Packed-Jacobian form of [problem].  Instances made from one
          {!prepared} context share the packed matrix — only the
          throughput-floor offset differs — so a sweep row compiles
          once. *)
  frontier_compiled : Convex.Compiled.t Lazy.t;
      (** Packed form of the frontier problem, shared like
          [frontier_problem]. *)
  conic : Convex.Conic.t Lazy.t;
      (** Conic (orthant + epigraph) form of [problem].  Instances
          made from one {!prepared} context share the packed cone
          matrix — only the throughput-floor offset differs — so a
          sweep row converts once. *)
}

val conic_blocks : layout -> int array
(** The variable partition under which the conic normal equations are
    block-tridiagonal: [(n_f, n_p)] plus the two gradient bounds when
    present.  Pass as [`Blocks] to {!Convex.Conic}. *)

type prepared
(** The [(machine, spec, t0)]-dependent part of a model: the
    matrix-power products, base trajectory and every constraint except
    the throughput floor.  Building it costs as much as one {!build};
    each further {!instantiate} at a new [ftarget] is then almost
    free.  The offline sweep prepares once per table row and
    instantiates once per column. *)

val prepare :
  machine:Sim.Machine.t -> spec:Spec.t -> tstart:float -> prepared
(** Raises [Invalid_argument] for an invalid spec or a window shorter
    than one thermal step. *)

val prepare_with_profile :
  machine:Sim.Machine.t -> spec:Spec.t -> t0:Vec.t -> prepared

val instantiate : prepared -> ftarget:float -> built
(** Splice the throughput floor for [ftarget] into the prepared
    context.  The result is identical, constraint for constraint, to
    the corresponding {!build}.  Raises [Invalid_argument] for
    [ftarget] outside [[0, fmax]]. *)

val frontier_of_prepared : prepared -> built
(** The {!build_frontier} instance of a prepared context. *)

val build :
  machine:Sim.Machine.t -> spec:Spec.t -> tstart:float -> ftarget:float ->
  built
(** Raises [Invalid_argument] for [ftarget] outside [[0, fmax]] or a
    window shorter than one thermal step. *)

val build_frontier :
  machine:Sim.Machine.t -> spec:Spec.t -> tstart:float -> built
(** The companion problem: maximize the total frequency under the same
    thermal envelope (no throughput floor).  Its optimum is the
    feasibility frontier of {!build} over [ftarget] — the Fig. 9
    curve — and its per-core split is the Fig. 10 data. *)

val build_with_profile :
  machine:Sim.Machine.t -> spec:Spec.t -> t0:Vec.t -> ftarget:float -> built
(** Like {!build} but from a full per-node temperature profile, for
    controllers that re-solve online with measured temperatures. *)

val build_frontier_with_profile :
  machine:Sim.Machine.t -> spec:Spec.t -> t0:Vec.t -> built

val start_hint : built -> Vec.t
(** A point that satisfies the power-law, box and throughput
    constraints (thermal feasibility still depends on [tstart]); lets
    the solver skip phase I whenever the instance is thermally
    easy. *)

val trivial_start : built -> Vec.t
(** Near-zero frequencies: strictly feasible for {!build_frontier}
    whenever the start temperature is inside the envelope at all. *)

type solution = {
  frequencies : Vec.t;  (** Per-core, Hz (expanded for uniform). *)
  core_powers : Vec.t;  (** Per-core, W. *)
  total_power : float;  (** W. *)
  gradient_spread : float option;
      (** [u - l] in degrees, when the gradient term is on. *)
  raw : Convex.Solve.solution;
}

type outcome = Feasible of solution | Infeasible

val solve :
  ?solver:[ `Conic | `Barrier ] ->
  ?options:Convex.Barrier.options ->
  ?conic_options:Convex.Conic.options ->
  ?backend:Convex.Barrier.backend ->
  ?stats_into:Convex.Barrier.stats ref ->
  ?conic_stats_into:Convex.Conic.stats ref ->
  ?conic_ws:Convex.Conic.workspace ->
  ?start:Vec.t ->
  ?start_dual:Vec.t ->
  built ->
  outcome
(** Solve an Eq. 3/5 instance.

    [solver] picks the algorithm (default [`Conic]): the primal-dual
    predictor-corrector method of {!Convex.Conic} on the homogeneous
    self-dual embedding, with the block-tridiagonal factorization from
    {!conic_blocks}, [start] as a primal warm seed, and [start_dual]
    (a neighbouring solution's [raw.dual], used only together with
    [start]) seeding the cone dual as well.  No feasible
    point is needed — an infeasible cell ends with a
    primal-infeasibility certificate, so the frontier climb never
    runs.  In the two residual conic outcomes (dual-infeasibility
    certificate, which a well-posed cell cannot produce, and a stalled
    [Unknown]) the call falls back to the [`Barrier] path below, so
    the result is always grounded in one of the two solvers.
    [conic_options] overrides the conic defaults ({b including} the
    [`Blocks] factorization — pass [kkt] explicitly when setting it);
    [conic_stats_into] accumulates conic work counters, whose
    certificate-outcome fields also count the fallbacks; [conic_ws]
    reuses a preallocated solver workspace across the solves of a
    sweep row (see {!Convex.Conic.make_workspace}).

    With [~solver:`Barrier] (the reference path): feasibility is
    established structurally — if the start point is not strictly
    feasible, the frontier problem is driven until the throughput
    floor is cleared (or shown unreachable), side-stepping the generic
    phase I.

    [start] is a warm-start point, typically the previous column's
    [raw.x] when sweeping [ftarget] upward.  It is used directly when
    strictly feasible; otherwise it seeds the frontier climb after
    being blended toward {!trivial_start} to restore interior margin
    (barrier iterates are strictly interior, so a neighbouring cell's
    optimum is always strictly feasible for the floor-free frontier
    problem).  Points of the wrong dimension are ignored.  Warm starts
    change only the path taken, not the model: every returned solution
    satisfies the same constraints to the same duality gap.

    [backend] selects the barrier oracle (default [`Compiled], which
    reuses the row's packed Jacobian); [stats_into] accumulates solver
    work counters across calls, frontier climbs included. *)

val solve_frontier :
  ?options:Convex.Barrier.options ->
  ?backend:Convex.Barrier.backend ->
  ?stats_into:Convex.Barrier.stats ref ->
  built ->
  outcome
(** Solve a {!build_frontier} instance; the returned solution's
    [frequencies] sum to the maximal supportable total. *)

val predicted_peak : built -> Vec.t -> float
(** Peak temperature over the window (any node, any step) when the
    cores run busy at the given per-core frequencies from [tstart] —
    i.e. what the model believes; used to verify solutions against the
    simulator. *)
