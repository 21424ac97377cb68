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
    and a linear objective — a convex QCQP, solved with the
    primal-dual conic method of {!Convex.Conic} ({!solve}).  The
    coefficient of core [j]'s power on node [i] at step [k] is
    [S_k[i, core_j] b_j] with [S_k = sum_{l<k} A^l]; only those
    [n_cores] columns are ever read.  They depend on the machine, the
    window and the stride but not on the start temperature, so they
    are the machine's {!Sim.Machine.window_response}: computed once
    per [(machine, steps, stride)] by a recurrence on the core columns
    alone and shared by every row, every domain and every caller.  A
    {!prepare} only scales them, in one scratch row per (step, node),
    in the same floating-point order as the matrix-power
    construction, to which every coefficient is bit-identical.
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
    and 504 at 100 C.  The conic {!solve} goes further and works on a
    working set of those rows, grown by constraint generation until
    the optimum satisfies every row, because at the optimum only a few
    of them bind.

    Variables are normalized ([f/fmax], [p/pmax], [t/tmax]) so the
    solver operates on a well-conditioned unit box. *)

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
  problem : Convex.Conic.problem Lazy.t;
      (** The instance, one {!Convex.Quad.t} per constraint: power-law
          and box rows, the throughput floor, then the thermal and
          gradient rows.  No solve reads it — {!solve} works on [conic]
          — so it is formed only when forced, by the KKT audit of
          [raw.kkt] or by a caller. *)
  layout : layout;
  spec : Spec.t;
  initial_temperatures : Vec.t;
      (** Per-node start temperatures (uniform [tstart] for table
          cells; a measured profile for the online controller). *)
  ftarget : float;  (** Hz. *)
  steps : int;  (** Thermal steps in the window ([m] in the paper). *)
  machine : Sim.Machine.t;
  conic : Convex.Conic.t Lazy.t;
      (** Conic (orthant + epigraph) form of [problem], the one form
          {!solve} and {!solve_frontier} read.  Instances made from
          one {!prepared} context share the packed cone matrix — only
          the throughput-floor offset differs — so a sweep row
          converts once. *)
}

val conic_blocks : layout -> int array
(** The variable partition under which the conic normal equations are
    block-tridiagonal: [(n_f, n_p)] plus the two gradient bounds when
    present.  Pass as [`Blocks] to {!Convex.Conic}. *)

type prepared
(** The [(machine, spec, t0)]-dependent part of a model: the base
    trajectory and every constraint except the throughput floor.
    Building it costs one pass of the base trajectory over the window
    (stepped in two vectors, never stored whole), one pass over the
    machine's shared {!Sim.Machine.window_response} (computed on the
    machine's first prepare at that window and stride, and read by
    every later one) and the rows it emits — nearly all of a
    {!build}, whose solver forms are lazy; each further
    {!instantiate} at a new [ftarget] is then almost free.  The
    offline sweep prepares once per table row and instantiates once
    per column. *)

val prepare :
  machine:Sim.Machine.t -> spec:Spec.t -> tstart:float -> prepared
(** Raises [Invalid_argument] for an invalid spec, a [tstart] that is
    not finite, or a window shorter than one thermal step. *)

val prepare_with_profile :
  machine:Sim.Machine.t -> spec:Spec.t -> t0:Vec.t -> prepared
(** Like {!prepare}; raises [Invalid_argument] when [t0] has the wrong
    length or a non-finite entry. *)

val instantiate : prepared -> ftarget:float -> built
(** Splice the throughput floor for [ftarget] into the prepared
    context.  The result is identical, constraint for constraint, to
    the corresponding {!build}.  Raises [Invalid_argument] for
    [ftarget] outside [[0, fmax]], NaN included. *)

val frontier_of_prepared : prepared -> built
(** The {!build_frontier} instance of a prepared context. *)

val build :
  machine:Sim.Machine.t -> spec:Spec.t -> tstart:float -> ftarget:float ->
  built
(** Raises [Invalid_argument] for [ftarget] outside [[0, fmax]] (NaN
    included), a [tstart] that is not finite, or a window shorter than
    one thermal step. *)

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
  ?conic_stats_into:Convex.Conic.stats ref ->
  ?conic_ws:Convex.Conic.workspace ->
  ?start:Vec.t ->
  built ->
  outcome
(** Solve an Eq. 3/5 instance with the primal-dual predictor-corrector
    method of {!Convex.Conic} on the homogeneous self-dual embedding,
    with the block-tridiagonal factorization from {!conic_blocks}.  No
    feasible point is needed: an infeasible cell ends with a
    primal-infeasibility certificate.

    The solve runs on a {e working set} of rows: the box rows, the
    power-law cones, the throughput floor and the gradient bounds
    always, plus the thermal and gradient rows that bind at [start]
    (when given; within 1e-6 tmax of binding) — without [start] it
    starts with none of them.  [start] only picks that set: the first
    solve starts from the conic's cold central point either way, which
    took fewer iterations than starting the iterate at a neighbouring
    cell's optimum.  Points of the wrong dimension are ignored.  After
    each solve every row is evaluated at the optimum in one pass; the
    violated ones join the set and the cell is re-solved warm from
    that optimum, until none is violated.  The working-set problem is
    a relaxation, so its final optimum is the cell's optimum and
    [raw.dual], zero on the rows left out, is a KKT certificate for
    the full [problem]; an infeasible working set proves the cell
    infeasible.  At the optimum only a handful of the hundreds of
    thermal rows bind, so a cell usually finishes in one round on a
    few dozen rows.

    A round that ends without a certificate ([Unknown], or a
    dual-infeasibility certificate, which a bounded cell cannot have)
    is retried once, cold, on every row.  An optimum of that solve is
    served; anything else is reported [Infeasible] — the thermally
    safe verdict, under which a table falls back to a lower column.

    [conic_stats_into] accumulates the work counters of every solve
    the call makes, while its certificate-outcome fields count the
    call once, by its final status: [unknown] counts the cells
    reported infeasible without a certificate.  [conic_ws] is the
    solver workspace the rounds run in: one made by
    {!Convex.Conic.make_workspace} for any instance of the same
    prepared row holds the working set and grows to the largest one
    solved, so a sweep row reuses it across its cells; without it each
    call makes its own. *)

val solve_frontier : built -> outcome
(** Solve a {!build_frontier} instance: one conic solve on every row.
    The returned solution's [frequencies] sum to the maximal
    supportable total.  A primal-infeasibility certificate — the start
    temperature is already outside the envelope — and a solve that
    ends without a certificate are both [Infeasible]. *)

val predicted_peak : built -> Vec.t -> float
(** Peak temperature over the window (any node, any step) when the
    cores run busy at the given per-core frequencies from [tstart] —
    i.e. what the model believes; used to verify solutions against the
    simulator. *)
