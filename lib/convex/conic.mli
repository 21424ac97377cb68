(** Primal-dual predictor-corrector conic solver: the library's one
    interior-point method.

    Solves the conic pair

    {v
      (P)  minimize    c'x                 (D)  maximize  -b'y - h'z
           subject to  b - A x  = 0             subject to G'z + A'y + c = 0
                       h - G x  in K                       z in K*
    v}

    where [K] is a product of the cones of {!Cone} (nonnegative
    orthant and rotated-quadratic / power-epigraph blocks), by a
    Mehrotra-style predictor-corrector method on the homogeneous
    self-dual embedding with Nesterov-Todd scaling.  No strictly
    feasible starting point is required, and every solve that
    terminates on its own ends with either an optimum or an exact
    {e certificate}:

    - {e primal infeasible}: [(y, z)] with [z in K*],
      [A'y + G'z ~ 0] and [b'y + h'z = -1] — a separating hyperplane
      proving no [x] satisfies the constraints;
    - {e dual infeasible} (primal unbounded): [x] with [c'x = -1],
      [A x ~ 0] and [-G x in K] — an improving ray.

    Each iteration costs one scaled normal-equations factorization
    [G' W^-2 G] plus three triangular solves.  The factorization
    backend is selectable: dense Cholesky, or {!Block_tridiag} when
    the caller knows a block partition of the variables under which
    the normal equations are block-tridiagonal (the thermal models'
    (frequency, power, gradient-bound) order; see {!Block_tridiag}).

    Warm starts seed [x] from a given point: the slack is rebuilt as
    [h - G x] pushed to a margin inside the cone, and the dual is
    placed on the central path at a reduced [mu].  That pays when the
    seed is an optimum of a relaxation of the same instance (a
    working-set round re-solved after {!admit} added rows).  Seeded
    from a neighbouring instance's optimum (the next cell of a table
    sweep) it cost more iterations than the cold central point on the
    thermal grids, so [Protemp.Model.solve] starts such solves cold
    and uses the neighbour only to pick the working set. *)

open Linalg

type t
(** An immutable problem instance.  Safe to share across solves and
    domains; all mutable state is allocated per {!solve}. *)

val make :
  ?a:Mat.t -> ?b:Vec.t -> c:Vec.t -> g:Mat.t -> h:Vec.t ->
  cones:Cone.t array -> unit -> t
(** [make ~c ~g ~h ~cones ()] builds an instance.  [g] has one row
    per cone coordinate, in the order listed by [cones]; [a]/[b]
    (default empty) carry the equality rows.  Rotated-quadratic
    blocks are rotated onto the standard second-order cone internally
    once, here.  [Invalid_argument] on any dimension mismatch. *)

type problem = { objective : Quad.t; constraints : Quad.t array }
(** A convex program [minimize objective(x) subject to
    constraints_j(x) <= 0], every function a {!Quad.t} of one
    dimension.  This is the form the thermal models are built in;
    {!of_problem} packs it into cone rows. *)

val of_problem : problem -> t
(** Convert a {!problem} whose objective is affine and whose
    non-affine constraints are rank-one quadratics
    [(a'x)^2 + q'x + r <= 0] — exactly the shape of the thermal
    models (affine thermal/box/floor rows plus per-core power-law
    epigraphs).  Affine rows become orthant rows; each rank-one
    quadratic becomes one [Epi_square] block via the lift
    [(u, v, w) = (-q'x - r, 1/2, a'x)].  Retains the constraint-row
    mapping so {!constraint_duals} can report multipliers in the
    original constraint order.  [Invalid_argument] when the objective
    is not affine or a quadratic constraint is not rank-one. *)

val with_constraint_constant : t -> index:int -> float -> t
(** For an {!of_problem} instance: replace the constant term of the
    affine constraint [index] (in the original constraint order),
    sharing everything but the orthant offset vector, so a table row
    packs [G] once and re-targets the throughput floor per cell.
    [Invalid_argument] if the instance did not come from {!of_problem}
    or the constraint is not affine. *)

val dim : t -> int
val n_rows : t -> int
(** Total cone rows (the dimension of [s] and [z]). *)

val n_constraints : t -> int
(** Constraints of the {!problem} an {!of_problem} instance came from
    (0 for a {!make} instance). *)

type kkt = [ `Dense | `Blocks of int array ]
(** Factorization backend for the scaled normal equations
    [G' W^-2 G]: dense Cholesky, or block-tridiagonal under the given
    variable partition (sizes must sum to {!dim}). *)

type options = {
  feas_tol : float;  (** Residual tolerance (default [1e-7]). *)
  gap_abs_tol : float;  (** Absolute complementarity gap (default [1e-8]). *)
  gap_rel_tol : float;  (** Relative complementarity gap (default [1e-6]). *)
  max_iter : int;  (** Iteration cap (default [100]). *)
  step_frac : float;
      (** Fraction-to-boundary step scaling (default [0.98]). *)
  warm_mu : float;
      (** Initial complementarity for warm starts (default [3e-3];
          cold starts begin at [1]).  Small, because a warm seed is
          expected to be this instance's optimum on fewer rows and so
          already near-optimal.  A neighbouring instance's optimum is
          not: started there at this [mu], the iterate needed more
          iterations than a cold start. *)
  kkt : kkt;  (** Default [`Dense]. *)
}

val default_options : options

type stats = {
  iterations : int;
  predictor_steps : int;
  corrector_steps : int;
  factorizations : int;
      (** One scaled normal-equations factorization per iteration. *)
  jitter_retries : int;
  optimal : int;
  primal_infeasible : int;
  dual_infeasible : int;
  unknown : int;  (** Certificate-outcome counters, one per solve. *)
}

val stats_zero : stats
val stats_add : stats -> stats -> stats

type solution = {
  x : Vec.t;
  y : Vec.t;
  s : Vec.t;  (** Cone slack [h - G x], in the caller's row order. *)
  z : Vec.t;  (** Cone dual, in the caller's row order. *)
  objective_value : float;
  gap : float;  (** Complementarity gap [s'z]. *)
  iterations : int;
}

type status =
  | Optimal of solution
  | Primal_infeasible of { y : Vec.t; z : Vec.t }
      (** Certificate normalized to [b'y + h'z = -1]. *)
  | Dual_infeasible of { x : Vec.t }
      (** Improving ray normalized to [c'x = -1]. *)
  | Unknown of solution
      (** No certificate within the iteration cap; payload is the
          best (tau-normalized) iterate.  It proves nothing, so a
          caller must not serve it: [Protemp.Model.solve] retries
          once on every row and otherwise reports the cell
          infeasible. *)

type workspace
(** Preallocated solver state (iterate, scalings, KKT factors), the
    dominant per-solve allocation when solves take a few
    milliseconds, plus a {e working set}: the subset of the
    instance's constraints a {!solve} on the workspace takes part in
    (see {!restrict}).  A new workspace's working set is every
    constraint. *)

val make_workspace : ?kkt:kkt -> t -> workspace
(** [make_workspace ?kkt t] preallocates a workspace reusable across
    {!solve} calls on [t] or any structurally identical instance (same
    dimensions and cone layout — e.g. the sweep's per-column
    {!with_constraint_constant} re-targets).  Its buffers are sized
    for all of [t]'s rows, so every working set of [t] is solved in
    place.  The workspace fixes the factorization backend ([kkt]
    defaults to [`Dense]); a [solve] that is handed a workspace
    ignores [options.kkt].  A workspace serves one solve at a time:
    share instances across domains, not workspaces. *)

val solve :
  ?options:options -> ?warm:Vec.t -> ?warm_dual:Vec.t ->
  ?stats_into:stats ref -> ?ws:workspace -> t -> status
(** [warm] is a primal seed of dimension {!dim} (ignored otherwise),
    typically the previous sweep column's [x].  [warm_dual] —
    meaningful only alongside [warm], on an {!of_problem} instance,
    with one entry per original constraint (the {!constraint_duals}
    of a neighbouring solve) — additionally rebuilds the cone dual
    from the seed multipliers, so the solver starts from an
    (approximately) complementary pair instead of the central path.
    [stats_into] accumulates work counters across solves.  [ws]
    reuses a preallocated {!workspace} instead of allocating one
    ([Invalid_argument] on shape mismatch), and solves [t] restricted
    to the workspace's working set: the result then has the shape of
    [t], with a zero dual ([z]) and the true slack [h - G x] ([s]) on
    every row outside the set — so an optimum that satisfies those
    rows is an optimum of [t], and a primal-infeasibility certificate
    is one for [t] as it stands. *)

val restrict : workspace -> t -> first:int -> last:int -> unit
(** [restrict ws t ~first ~last] makes the affine constraints
    [first .. last - 1] of the {!of_problem} instance [t] optional:
    the working set of [ws] becomes every other constraint, and an
    optional one enters only through {!admit}.  [first >= last]
    restores the full instance.  [Invalid_argument] if [t] is not an
    {!of_problem} instance of the workspace's shape, the range is out
    of bounds, or it holds a quadratic constraint. *)

val admit : workspace -> t -> Vec.t -> above:float -> int
(** [admit ws t x ~above] evaluates every affine constraint of [t] at
    [x] ([q'x + r], one pass over the packed rows) and adds to the
    working set each optional constraint whose value is not [<= above]
    — a NaN value included.  Returns how many joined.  Allocates
    nothing. *)

val constraint_duals : t -> solution -> Vec.t
(** Multipliers of the original {!problem} constraints (the
    orthant dual for affine rows, the epigraph block's [u] dual for
    rank-one quadratic rows).  [Invalid_argument] unless the instance
    came from {!of_problem}. *)

val pp_status : Format.formatter -> status -> unit
