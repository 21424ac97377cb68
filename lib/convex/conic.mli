(** Primal-dual predictor-corrector conic solver: the library's one
    interior-point method.

    Solves the conic pair

    {v
      (P)  minimize    c'x                 (D)  maximize  -h'z
           subject to  h - G x  in K            subject to G'z + c = 0
                                                           z in K*
    v}

    as {!make} receives it: [K] is a product of nonnegative orthant
    rows and rotated-quadratic cones [{(u, v, w) : 2 u v >= w^2,
    u, v >= 0}] — in the thermal models, the affine box, floor and
    thermal rows and one power-law epigraph per core.  A
    Mehrotra-style predictor-corrector method runs on the homogeneous
    self-dual embedding with Nesterov-Todd scaling.  No strictly
    feasible starting point is required, and every solve that
    terminates on its own ends with either an optimum or an exact
    {e certificate}:

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

    An instance names its rows ({!with_rows}): the orthant rows that
    take part and the {e candidates} among them, which a solve takes
    only once {!admit} finds them violated.  The list is checked once.

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

val make :
  c:Vec.t ->
  n_orthant:int ->
  glo:int array ->
  goff:int array ->
  gdata:float array ->
  h:Vec.t ->
  t
(** [make ~c ~n_orthant ~glo ~goff ~gdata ~h] is the instance
    [minimize c'x subject to h - G x in K] over [x] of dimension
    [Vec.dim c], with [G] given packed: row [i] is zero outside one
    stripe of [goff.(i + 1) - goff.(i)] columns from column [glo.(i)],
    whose coefficients are [gdata.(goff.(i) ..)]:
    [G_(i, glo.(i) + k) = gdata.(goff.(i) + k)].  The first
    [n_orthant] rows are orthant rows [h_i - G_i x >= 0]; the rest
    come in threes, one rotated-quadratic block each, written already
    rotated onto the standard cone [s0 >= |(s1, s2)|] by
    [T (u, v, w) = ((u + v)/sqrt 2, (u - v)/sqrt 2, w)].  A
    {!solution} reports [s] and [z] in [(u, v, w)].  [c], the packed
    arrays and [h] are not copied: the caller must not change them
    afterwards.  Every row takes part; none is a candidate.
    [Invalid_argument] when [h] does not have one entry per row, the
    cone rows do not come in threes, [goff] is not [q + 1]
    nondecreasing offsets from 0 within [gdata] ([q] the length of
    [glo]) or a stripe leaves the columns. *)

val with_constant : t -> row:int -> float -> t
(** [with_constant t ~row h_row] is [t] with orthant row [row]'s
    constant set to [h_row], sharing everything but [h] (its rows
    included), so a table row packs [G] once and re-targets the
    throughput floor per cell.  [Invalid_argument] unless [row] is an
    orthant row. *)

val with_rows :
  t -> Vec.t -> rows:int array -> n:int -> first:int -> last:int -> t
(** [with_rows t h ~rows ~n ~first ~last] is [t] with the constants [h]
    (one per row, in {!make}'s order, not copied), in which the orthant
    rows [rows.(0 .. n - 1)] (not copied) take part, with the
    candidates [rows.(first .. last - 1)], and every cone row.  No call
    reads a row it does not name.  [Invalid_argument] unless [h] has
    one entry per row, [rows] are strictly ascending orthant rows and
    [0 <= first <= last <= n]. *)

val without_candidates : t -> t
(** [t] with no candidate: every row it names is in every working set. *)

val n_part : t -> int
(** How many orthant rows take part ([s] and [z]'s orthant entries). *)

val row : t -> int -> int
(** [row t k] is the orthant row at position [k] of those that take
    part.  [Invalid_argument] unless [0 <= k < n_part t]. *)

val dim : t -> int
val n_rows : t -> int
(** Total cone rows, one constant each, whether they take part or not. *)

val feas_tol : float
(** Residual tolerance of an optimum or a certificate, relative to
    [max(1, |h|_inf)] ([1e-7]; relaxed 100x when the endgame stalls
    and the best iterate is re-checked). *)

val gap_rel_tol : float
(** Relative complementarity gap of an optimum ([1e-6]; relaxed
    likewise). *)

type stats = {
  iterations : int;
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
  s : Vec.t;
      (** Cone slack [h - G x], one entry per row that takes part:
          the orthant rows in order, then the cone rows. *)
  z : Vec.t;  (** Cone dual, in [s]'s order. *)
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
    milliseconds, plus a {e working set}: the rows of one instance's
    row set that a {!solve} on it takes part in ({!restrict}), at
    first every row of the instance it was made for. *)

val make_workspace : ?kkt:[ `Blocks of int array ] -> t -> workspace
(** [make_workspace ?kkt t] preallocates a workspace for [t],
    reusable across {!solve} calls on any instance of [t]'s dimensions
    and cone layout once restricted for it ([t]'s {!with_constant}
    re-targets share its rows).  Its row buffers grow
    on demand to the largest working set solved on it.  [kkt] is the
    variable partition the normal equations are factorized under
    (sizes must sum to {!dim}; [Invalid_argument] otherwise); without
    it the whole matrix is one block.  A workspace serves one solve at
    a time: share instances across domains, not workspaces. *)

val solve :
  ?warm:Vec.t -> ?stats_into:stats ref -> ?ws:workspace -> t -> status
(** [warm] is a primal seed of dimension {!dim} (ignored otherwise):
    the instance's optimum on a smaller working set.
    [stats_into] accumulates work counters across solves.  [ws]
    reuses a preallocated {!workspace} instead of making a one-block
    one, and solves [t] restricted to the workspace's working set: the
    result then has one entry per row that takes part, with a zero
    dual ([z]) and the true slack [h - G x] ([s]) on every candidate
    outside the set — so an optimum that satisfies the candidates is
    an optimum of [t] on the rows that take part, and a
    primal-infeasibility certificate is one for them.
    [Invalid_argument] on shape mismatch, or when [ws] was last
    restricted for other rows than [t]'s. *)

val restrict : workspace -> t -> unit
(** [restrict ws t] resets the working set of [ws] to the rows [t]
    names that are not candidates.  [Invalid_argument] if [t] does not
    have the workspace's shape. *)

val admit : workspace -> t -> Vec.t -> above:float -> int
(** [admit ws t x ~above] evaluates every candidate of [t] outside the
    working set at [x] ([G_i x - h_i], one pass over their packed
    rows) and adds each one whose value is not [<= above] — a NaN
    value included.  Returns how many joined.  Allocates nothing.
    [Invalid_argument] as {!solve}, or if [x] does not have {!dim}
    entries. *)

val holds : t -> Vec.t -> bool
(** Whether every candidate of [t] holds at [x] ([G_i x - h_i <= 0]; a
    NaN value does not), decided row by row as {!admit} at [above = 0]
    decides it: after [restrict ws t], [holds t x] iff
    [admit ws t x ~above:0.0 = 0].  It needs no workspace, stops at the
    first row that fails and allocates nothing.  [Invalid_argument] if
    [x] does not have {!dim} entries; so do the two scans below. *)

val binding : t -> Vec.t -> above:float -> into:int array -> int
(** [binding t x ~above ~into] writes into [into], ascending, the
    positions of the candidates whose value at [x] is not [<= above]
    (a NaN value included), the decision {!admit} makes; it stops
    writing when [into] is full and returns how many it wrote.  With
    [above] below 0 these are the rows that bind at [x] within
    [-above].  Allocates nothing. *)

val most_violated : t -> Vec.t -> int
(** The position of the candidate with the largest value
    [G_i x - h_i > 0] at [x] (the first of equal ones; a NaN value
    counts as violated), or [-1] exactly when {!holds}.  Allocates
    nothing. *)

val pp_status : Format.formatter -> status -> unit
