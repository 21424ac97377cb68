(** Primal-dual predictor-corrector conic solver: the library's one
    interior-point method.

    Solves the conic pair

    {v
      (P)  minimize    c'x                 (D)  maximize  -h'z
           subject to  h - G x  in K            subject to G'z + c = 0
                                                           z in K*
    v}

    that {!of_problem} packs from a {!problem}: [K] is a product of
    nonnegative orthant rows (the affine constraints) and one
    rotated-quadratic cone per rank-one quadratic constraint (the
    power-law epigraphs of the thermal models), which the solver maps
    onto the standard second-order cone.  A Mehrotra-style
    predictor-corrector method runs on the homogeneous self-dual
    embedding with Nesterov-Todd scaling.  No strictly feasible
    starting point is required, and every solve that terminates on
    its own ends with either an optimum or an exact {e certificate}:

    - {e primal infeasible}: [z] with [z in K*], [G'z ~ 0] and
      [h'z = -1] — a separating hyperplane proving no [x] satisfies
      the constraints;
    - {e dual infeasible} (primal unbounded): [x] with [c'x = -1] and
      [-G x in K] — an improving ray.

    Each iteration costs one scaled normal-equations factorization
    [G' W^-2 G] plus three triangular solves, through
    {!Block_tridiag}: under a block partition of the variables for
    which the normal equations are block-tridiagonal (the thermal
    models' (frequency, power, gradient-bound) order) it skips every
    out-of-band entry, and without one it is a single dense block.

    A warm start seeds [x] from a given point: the slack is rebuilt
    as [h - G x] pushed to a margin inside the cone, and the dual is
    placed on the central path at a reduced [mu].  The one caller
    that warm-starts is a working-set round of
    [Protemp.Model.solve]: after {!admit} adds the rows the last
    round's optimum violates, the next round starts from that
    optimum, this instance's optimum on fewer rows.  A warm iterate
    that stalls is restarted cold within the same call. *)

open Linalg

type t
(** An immutable problem instance.  Safe to share across solves and
    domains; all mutable state lives in a {!workspace}. *)

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
    quadratic becomes one rotated-quadratic block
    [{(u, v, w) : 2 u v >= w^2, u, v >= 0}] via the lift
    [(u, v, w) = (-q'x - r, 1/2, a'x)].  Retains the constraint-row
    mapping so {!constraint_duals} can report multipliers in the
    original constraint order.  [Invalid_argument] when the objective
    is not affine or a quadratic constraint is not rank-one. *)

val with_constraint_constant : t -> index:int -> float -> t
(** Replace the constant term of the affine constraint [index] (in
    the original constraint order), sharing everything but the
    orthant offset vector, so a table row packs [G] once and
    re-targets the throughput floor per cell.  [Invalid_argument] if
    [index] is out of range or the constraint is not affine. *)

val dim : t -> int
val n_rows : t -> int
(** Total cone rows (the dimension of [s] and [z]). *)

val n_constraints : t -> int
(** Constraints of the {!problem} the instance came from. *)

val feas_tol : float
(** Residual tolerance of an optimum or a certificate, relative to
    [max(1, |h|_inf)] ([1e-7]; relaxed 100x when the endgame stalls
    and the best iterate is re-checked). *)

val gap_rel_tol : float
(** Relative complementarity gap of an optimum ([1e-6]; relaxed
    likewise). *)

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
  s : Vec.t;  (** Cone slack [h - G x], in the caller's row order. *)
  z : Vec.t;  (** Cone dual, in the caller's row order. *)
  objective_value : float;
  gap : float;  (** Complementarity gap [s'z]. *)
  iterations : int;
}

type status =
  | Optimal of solution
  | Primal_infeasible of { z : Vec.t }
      (** Certificate normalized to [h'z = -1]. *)
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

val make_workspace : ?kkt:[ `Blocks of int array ] -> t -> workspace
(** [make_workspace ?kkt t] preallocates a workspace reusable across
    {!solve} calls on [t] or any structurally identical instance (same
    dimensions and cone layout — e.g. the sweep's per-column
    {!with_constraint_constant} re-targets).  Its row buffers grow on
    demand to the largest working set solved on it, so every working
    set of [t] is solved in place.  [kkt] is the variable partition
    the normal equations are factorized under (sizes must sum to
    {!dim}; [Invalid_argument] otherwise); without it the whole
    matrix is one block.  A workspace serves one solve at a time:
    share instances across domains, not workspaces. *)

val solve :
  ?warm:Vec.t -> ?stats_into:stats ref -> ?ws:workspace -> t -> status
(** [warm] is a primal seed of dimension {!dim} (ignored otherwise):
    the instance's optimum on a smaller working set.
    [stats_into] accumulates work counters across solves.  [ws]
    reuses a preallocated {!workspace} instead of making a one-block
    one ([Invalid_argument] on shape mismatch), and solves [t] restricted
    to the workspace's working set: the result then has the shape of
    [t], with a zero dual ([z]) and the true slack [h - G x] ([s]) on
    every row outside the set — so an optimum that satisfies those
    rows is an optimum of [t], and a primal-infeasibility certificate
    is one for [t] as it stands. *)

val restrict : workspace -> t -> first:int -> last:int -> unit
(** [restrict ws t ~first ~last] makes the affine constraints
    [first .. last - 1] of [t] optional:
    the working set of [ws] becomes every other constraint, and an
    optional one enters only through {!admit}.  [first >= last]
    restores the full instance.  [Invalid_argument] if [t] does not
    have the workspace's shape, the range is out of bounds, or it
    holds a quadratic constraint. *)

val admit : workspace -> t -> Vec.t -> above:float -> int
(** [admit ws t x ~above] evaluates every affine constraint of [t] at
    [x] ([q'x + r], one pass over the packed rows) and adds to the
    working set each optional constraint whose value is not [<= above]
    — a NaN value included.  Returns how many joined.  Allocates
    nothing. *)

val constraint_duals : t -> solution -> Vec.t
(** Multipliers of the original {!problem} constraints (the
    orthant dual for affine rows, the epigraph block's [u] dual for
    rank-one quadratic rows). *)

val pp_status : Format.formatter -> status -> unit
