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
    and 504 at 100 C.  {!solve} goes further, because at the optimum
    only a few of them bind, and usually none: it first tries the
    closed-form optimum of the throughput floor alone against every
    row, and otherwise solves on a working set of the rows, grown by
    constraint generation until the optimum satisfies every row.

    Variables are normalized ([f/fmax], [p/pmax], [t/tmax]) so the
    solver operates on a well-conditioned unit box.  The program is
    written straight into the form {!Convex.Conic} solves,
    [h - G x in K]: each affine row an orthant row, stored as the
    stripe of its nonzero columns, and each power law
    [fhat^2 <= phat] a rotated-quadratic block [(phat, 1/2, fhat)].
    The multipliers of a solution come back in the constraint order
    of Eq. 3 as written ({!floor_index}). *)

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

type floor_only
(** The data of a cell's floor-only relaxation (its thermal rows
    dropped) that does not depend on [ftarget]: per-variable floor and
    objective coefficients and the order in which the variables
    saturate their frequency box.  {!solve} forms the relaxation's
    optimum from it in closed form. *)

type built = {
  layout : layout;
  spec : Spec.t;
  initial_temperatures : Vec.t;
      (** Per-node start temperatures (uniform [tstart] for table
          cells; a measured profile for the online controller). *)
  ftarget : float;  (** Hz. *)
  steps : int;  (** Thermal steps in the window ([m] in the paper). *)
  machine : Sim.Machine.t;
  conic : Convex.Conic.t Lazy.t;
      (** The instance in conic form, [h - G x in K], the one form
          {!solve} and {!solve_frontier} read: the box rows, the
          throughput floor, the thermal and gradient rows, then one
          rotated-quadratic block per power law.  Instances made from
          one {!prepared} context share [G] — only the floor's
          constant differs — so a sweep row writes it once. *)
  floor_only : floor_only option;
      (** Shared by every instance of one {!prepared} context; [None]
          for the gradient variant, whose spread term couples the
          objective to the thermal rows, and for a frontier
          instance. *)
}

(** {2 Row layout}

    The constraints of Eq. 3 as written, the order of
    [solution.raw.dual]: per frequency variable [j], its power law and
    four box rows ([fhat >= 0], [fhat <= f_box], [phat >= 0],
    [phat <= p_box]); then the throughput floor (absent from a
    frontier instance); then the thermal rows and, in the gradient
    variant, the gradient rows. *)

val upper_f_box_index : int -> int
(** The constraint [fhat_j <= f_box] of frequency variable [j]. *)

val floor_index : layout -> int
(** The throughput floor, after every power-law and box row. *)

val first_thermal_index : layout -> int
(** The first thermal row of an instance with a floor. *)

val conic_blocks : layout -> int array
(** The variable partition under which the conic normal equations are
    block-tridiagonal: [(n_f, n_p)] plus the two gradient bounds when
    present.  Pass as [`Blocks] to {!Convex.Conic}. *)

type prepared
(** The [(machine, spec, t0)]-dependent part of a model: its conic
    instance with every row but the throughput floor's constant.
    Building it costs one pass of the base trajectory over the window
    (stepped in two vectors, never stored whole, through
    {!Linalg.Mat.mul_vec_into}, whose fixed summation order keeps the
    base's bits), one pass over the machine's shared
    {!Sim.Machine.window_response} (computed on the machine's first
    prepare at that window and stride, and read by every later one)
    with one box-implication test per stride point and node, over the
    power columns alone, and the rows it writes — nearly all of a
    {!build}; each further {!instantiate} at a new [ftarget] is then
    almost free.  The stepping is the largest part, about half of a
    stride-4 prepare on big.LITTLE (DESIGN.md §6s).  The offline sweep
    prepares once per table row and instantiates once per column. *)

val prepare :
  machine:Sim.Machine.t -> spec:Spec.t -> tstart:float -> prepared
(** Raises [Invalid_argument] for an invalid spec, a [tstart] that is
    not finite, or a window shorter than one thermal step. *)

val prepare_with_profile :
  machine:Sim.Machine.t -> spec:Spec.t -> t0:Vec.t -> prepared
(** Like {!prepare}; raises [Invalid_argument] when [t0] has the wrong
    length or a non-finite entry. *)

val instantiate : prepared -> ftarget:float -> built
(** Set the throughput floor's constant for [ftarget] in the prepared
    context.  The result is identical, row for row, to the
    corresponding {!build}.  Raises [Invalid_argument] for [ftarget]
    outside [[0, fmax]], NaN included. *)

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
  settled_by : [ `Closed_form | `Interior_point ];
      (** How {!solve} settled the cell: the floor-only optimum passed
          every thermal row, or the conic method ran. *)
}

type outcome = Feasible of solution | Infeasible

val solve :
  ?conic_stats_into:Convex.Conic.stats ref ->
  ?conic_ws:Convex.Conic.workspace ->
  ?start:Vec.t ->
  built ->
  outcome
(** Solve an Eq. 3/5 instance.

    {b Closed form first.}  Without a gradient term, the cell's
    floor-only relaxation (every thermal row dropped) has a closed-form
    optimum: [fhat_j = min (f_box, lambda c_j / (2 w_j))],
    [phat_j = fhat_j^2], with [c_j] and [w_j] core [j]'s floor and
    objective coefficients and [lambda] the floor's multiplier, found
    by walking the sorted saturation breakpoints.  Every thermal row is
    evaluated there in one pass.  If none is violated the point is
    feasible for the cell, and since the relaxation's objective is
    strictly convex in [fhat] it is the cell's unique optimum: it is
    served with [settled_by = `Closed_form], [raw.iterations = 0],
    [raw.gap = 0] and an exact [raw.dual] ([lambda] on the floor,
    [w_j] on each power law, [lambda c_j - 2 w_j f_box] on the upper
    frequency box of each saturated variable, zero elsewhere).  On the
    benchmark's Niagara grid that settles 97.7 % of the feasible
    cells.

    {b Otherwise, the conic method} ({!Convex.Conic}, the primal-dual
    predictor-corrector on the homogeneous self-dual embedding, with
    the block-tridiagonal factorization from {!conic_blocks}).  No
    feasible point is needed: an infeasible cell ends with a
    primal-infeasibility certificate.  It runs on a {e working set} of
    rows: the box rows, the power-law cones, the throughput floor and
    the gradient bounds always, plus the thermal rows the floor-only
    optimum violates — or, for the gradient variant (and a floor above
    what the boxes allow), the thermal and gradient rows that bind at
    [start] (when given; within 1e-6 tmax of binding), none without
    it.  The first solve starts from the conic's cold central point
    either way.  Points of the wrong dimension are ignored.  After
    each solve every row is evaluated at the optimum in one pass; the
    violated ones join the set and the cell is re-solved warm from
    that optimum, until none is violated.  The working-set problem is
    a relaxation, so its final optimum is the cell's optimum and
    [raw.dual], zero on the rows left out, is a KKT certificate for
    the full instance; an infeasible working set proves the cell
    infeasible.

    A run from the violated rows that ends without a certificate
    ([Unknown], or a dual-infeasibility certificate, which a bounded
    cell cannot have) is run again from the rows [start] picks; a run
    from those that ends without one is retried once, cold, on every
    row.  An optimum of the last solve is served; anything else is
    reported [Infeasible] — the thermally safe verdict, under which a
    table falls back to a lower column.

    [conic_stats_into] accumulates the work counters of every solve
    the call makes, while its certificate-outcome fields count the
    call once, by its final status: [unknown] counts the cells
    reported infeasible without a certificate, and a cell settled in
    closed form counts as [optimal] with no iteration.  [conic_ws] is
    the solver workspace the rounds run in (and the closed-form check
    reads its working set): one made by {!Convex.Conic.make_workspace}
    for any instance of the same prepared row holds the working set
    and grows to the largest one solved, so a sweep row reuses it
    across its cells; without it each call makes its own. *)

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
