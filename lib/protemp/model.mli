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
    window and the stride but not on the start temperature: they are
    the machine's {!Sim.Machine.window_response}, computed by a
    recurrence on the core columns alone.  Nor do the thermal and
    gradient rows built from them, scaled by [1/tmax] and cut to the
    stripes the conic instance stores: they are computed once per
    machine, window, stride, variant, [tmax] and gradient switch, kept
    in the machine's cache ({!Sim.Machine.cached}) and shared by every
    row, every domain and every caller.
    Neither does a uniform start's base trajectory, up to one scalar:
    the window holds the power, so the base of [tstart] at step [k] is
    [tstart a_k + c_k], with [a_k = A^k 1] and [c_k] the base from
    zero, both kept with the rows.  So is the conic instance itself,
    with every thermal row: a {!prepare} writes every row's base from
    them with no step (a {!prepare_with_profile} steps it), then the
    rows' constants, and names the rows whose base reaches their
    threshold; it copies no row.
    Every coefficient is bit-identical to the matrix-power
    construction; a uniform start's constants differ from those of
    the stepped base by rounding only, within a bound derived from
    the recurrence (DESIGN.md §6z).
    The gradient term is encoded with two auxiliary variables
    [u >= t_{k,i}/tmax >= l] ranging over all steps and cores, so
    [u - l] bounds the spread across the whole window; this dominates
    the paper's per-instant pairwise spread (Eq. 4) — a conservative
    over-approximation — while needing O(mn) instead of O(mn^2)
    constraints.

    A thermal row takes part in a solve only when some point of the
    power box [0 <= p_i/pmax <= 1.005] could reach [tmax] on it (to a
    relative margin of 1e-6): every other row is implied by the box
    rows, which stay in the problem, so the feasible set is unchanged.
    The test is one compare per row, of its base against its threshold
    [tmax (1 - 1e-6) - sum_j max(q_j, 0) 1.005], kept with the rows.
    At stride 4 on the Niagara model that keeps 144 of 1071 thermal
    rows at 27 C and 504 at 100 C.  {!solve} goes further, because at
    the optimum only a few of them bind, and usually none: it first
    tries the closed-form optimum of the throughput floor alone against
    every row, then the optimum with a few rows binding, found by a
    dual active-set method (served only at a KKT point), and otherwise
    solves on a working set of the rows, grown by constraint
    generation until the optimum satisfies every row.

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

type prepared
(** The [(machine, spec, t0)]-dependent part of a model: a {e start}.
    [G] and [c] are the machine's one instance for the spec, with
    every thermal row, built on the first start at a given window,
    stride, variant, [tmax] and gradient term (from the machine's
    {!Sim.Machine.window_response}, and [a_k] and [c_k] by stepping
    once) and kept in the machine's cache, from which every later
    start, on any domain, reads it.  A start is its own instance of
    them ({!Convex.Conic.with_rows}): the constants (a floor constant
    of 0) and the orthant rows that take part, with the kept thermal
    and gradient rows as candidates (a frontier has none).  One pass
    writes every thermal row's base — [tstart a_k + c_k] for a
    uniform start ({!prepare}, {!build_frontier}), stepped over the
    window on the machine's CSR stepper for a profile
    ({!prepare_with_profile}), which keeps the dense step's bits — and
    one writes every constant with one threshold compare per row.  It
    copies no row and allocates the same words however many rows take
    part; each {!instantiate} is then almost free.  A table
    ({!rows}) prepares only the rows that have a cell their column
    does not settle, and finds those rows with no start (DESIGN.md
    §6t, §6y, §6z, §6za, §6zb, §6zh). *)

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
          throughput floor, every thermal row, the gradient rows and
          bounds, then one rotated-quadratic block per power law.
          Every instance of a machine and spec shares [G] (a
          frontier's floor row never takes part); the instance names
          the rows that do ({!Convex.Conic.row}), which {!solve} and
          {!solve_frontier} solve it on. *)
  context : prepared;
      (** The context the instance was made from: {!solve}'s frontier
          bound reads its start ({!tangent_refutes}). *)
}

val f_box : float
(** The upper end [1.002] of each normalized frequency box
    [0 <= f_j / core_fmax_j <= f_box]: relaxed a fraction of a percent
    above 1 so that a demand of exactly fmax keeps a strict interior
    for the interior-point method.  A served solution clamps each
    frequency back to its core's ceiling, so it may fall short of the
    throughput floor by up to [(f_box - 1) sum_j core_fmax_j]
    ({!Dense_table} states the bound). *)

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

type solution = {
  frequencies : Vec.t;  (** Per-core, Hz (expanded for uniform). *)
  core_powers : Vec.t;  (** Per-core, W. *)
  total_power : float;  (** W. *)
  gradient_spread : float option;
      (** [u - l] in degrees, when the gradient term is on. *)
  raw : Convex.Solve.solution;
  settled_by : [ `Closed_form | `Active_set | `Interior_point ];
      (** How {!solve} settled the cell: the floor-only optimum passed
          every thermal row, the active-set step found a KKT point, or
          the conic method ran. *)
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
    by walking the sorted saturation breakpoints: the cell's column
    ({!columns}).  Every thermal row that takes part is evaluated
    there in one {!Convex.Conic.holds} pass, the check {!rows} makes
    on a table row's start and, row by row, in its closed-row pass.  If
    none is violated the point is feasible for the cell, and since the
    relaxation's objective is strictly convex in [fhat] it is the
    cell's unique optimum: it is served with
    [settled_by = `Closed_form], [raw.iterations = 0], [raw.gap = 0]
    and an exact [raw.dual] ([lambda] on the floor, [w_j] on each
    power law, [lambda c_j - 2 w_j f_box] on the upper frequency box
    of each saturated variable, zero elsewhere), and no workspace is
    made or touched.  On the benchmark's Niagara grid that settles
    97.7 % of the feasible cells.

    {b Frontier bound second.}  A cell whose closed form fails, from a
    uniform start ({!build}, {!prepare}) and without a gradient term,
    is checked against the two {!frontier_tangent}s of the machine's
    ladder that bracket its start (the nearest two outside it).  Each
    is a safe upper bound on the frontier of every start, so when the
    cell's floor exceeds either one by more than its rounding
    allowance ({!tangent_refutes}) the cell is infeasible: it is
    reported [Infeasible] with no conic run.  The ladder is solved on
    first use and cached in the machine.  On the benchmark's Niagara
    grid the bound settles 98 of the 100 first infeasible cells of
    its rows.

    {b Active set third.}  A cell whose closed form fails and which
    the ladder does not refute, from any start of the variable
    variant without a gradient term, is settled by a dual active-set
    method in the manner of Goldfarb and Idnani (DESIGN.md §6zd,
    §6zg).  With the power laws tight, a floor multiplier
    [lambda > 0] and multipliers [mu_k >= 0] on a set [S] of thermal
    rows, the Lagrangian's minimum over the boxes is at
    [fhat_j = min (f_box, lambda c_j / (2 (w_j + sum_{k in S} mu_k q_kj)))]
    ([q_kj] row [k]'s power coefficients), and its value is the dual
    function, concave in [(lambda, mu_S)].  The step maximizes it by
    Newton steps on a dense [(|S| + 1)]-square system over the cores
    below their box, each row of [S] aimed [1e-12 tmax] inside its
    constant, and keeps [lambda > 0] and [mu >= 0] at every iterate: a
    ratio test stops a step where a multiplier reaches 0 (the row
    leaves [S]) or where a core's box dual changes sign (the core
    reaches or leaves [f_box]); where [S] has as many rows as there are
    free cores it steps along the dual function's flat direction to
    the next such breakpoint; once the floor and every row of [S] are
    met the candidate the point violates most joins [S], or, when none
    is violated, the point is accepted.  It starts from the
    multipliers of the candidates that bind at [start] within
    [1e-6 tmax], recovered from stationarity at [start] (exact at the
    row's previous cell), less those not positive, and from the closed
    form ([S] empty) where nothing binds or there is no start.  At most
    80 steps and 48 set changes bound a cell it cannot settle.  The
    point is served only when it is a KKT point: no candidate is
    violated ({!Convex.Conic.most_violated} is [-1], exactly where
    {!Convex.Conic.holds}, the closed form's check, passes),
    [lambda > 0], every [mu >= 0], every power law's dual
    [w_j + sum_k mu_k q_kj > 0] and every variable at its box with a
    box dual [>= 0].  It is then the cell's optimum (to the
    [1e-12 tmax] aim), served with [settled_by = `Active_set],
    [raw.iterations = 0], [raw.gap = 0] and an exact [raw.dual]
    ([lambda] on the floor, each power law's dual, the box duals,
    [mu_k] on each row of [S], zero elsewhere).  It is a function of
    the cell and [start] alone.  On the benchmark's three
    variable-variant grids it settles every feasible cell the closed
    form does not (206 on Niagara's, 6 on big.LITTLE's, 12 on the
    margin-5 grid's).  The uniform variant (one variable, no room for
    a binding row) and the gradient variant skip it.

    {b Otherwise, the conic method} ({!Convex.Conic}, the primal-dual
    predictor-corrector on the homogeneous self-dual embedding, with
    the block-tridiagonal factorization from {!conic_blocks}).  No
    feasible point is needed: an infeasible cell ends with a
    primal-infeasibility certificate.  It runs on a {e working set} of
    the rows that take part (those [built.conic] names: the box rows,
    the floor, the thermal rows the power box does not imply at the
    start and the gradient rows and bounds; an implied row is never
    evaluated): the box rows, the power-law cones, the throughput floor and
    the gradient bounds always, plus the thermal rows the floor-only
    optimum violates — or, for the gradient variant (and a floor above
    what the boxes allow), the thermal and gradient rows that bind at
    [start] (when given; within 1e-6 tmax of binding), none without
    it.  The violated rows join the set through one
    {!Convex.Conic.admit} pass, made only once the closed-form check
    has failed.  The first solve starts from the conic's cold central point
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
    from those that ends without one is checked against the frontier
    of the cell's own start (one conic solve on every row of the
    frontier that takes part, whose tangent bounds the frontier there
    to the solver's tolerance), and refuted like a ladder verdict when
    the floor exceeds it; otherwise it is retried once, cold, on every
    row that takes part.  An optimum of the last solve is served; anything else is
    reported [Infeasible] — the thermally safe verdict, under which a
    table falls back to a lower column.

    [conic_stats_into] accumulates the work counters of every solve
    the call makes, while its certificate-outcome fields count the
    call once, by its final status: [unknown] counts the cells
    reported infeasible without a certificate, a cell settled in
    closed form or by the active set counts as [optimal] with no
    iteration, and a cell a
    ladder tangent refutes as [primal_infeasible] with no iteration
    (the tangent's dual with a unit weight on the floor row is a
    Farkas ray).  The ladder's own solves are the machine's work and
    are counted nowhere.  [conic_ws] is
    the solver workspace the rounds run in, made by
    {!Convex.Conic.make_workspace} for the instance's [conic] under
    {!conic_blocks}: it holds the working set and grows to the largest
    one solved, so cells of one machine and spec may share it; without
    it each call that reaches the conic method makes its own (a cell
    settled in closed form, by the active set or by a ladder tangent
    needs none). *)

(** {2 Table rows}

    The closed form of {!solve} depends on [ftarget] alone, so a table
    computes it once per column and settles its rows from them. *)

type columns
(** A table's columns, one per [ftarget], for a machine and spec: the
    floor-only optimum of every cell of each [ftarget], with the
    frequencies it serves, bit-identical to the point {!solve} forms
    for any cell at it ([None] for a spec with a gradient term, which
    has no closed form, and when the floor exceeds what the frequency
    boxes allow).  When the columns are {!searchable}, the cells the
    closed form settles are a prefix of each row and of each column: a
    row that one column's point violates, the next column's violates
    too, and so does every hotter uniform start.  Every thermal
    coefficient and every [a_k] is [>= 0], the powers rise from column
    to column, and rounded multiplication, addition and division are
    monotone, so a row's computed value at a column's point does not
    fall as the column or the start rises (DESIGN.md §6za, §6zc). *)

val columns : machine:Sim.Machine.t -> spec:Spec.t -> float array -> columns
(** The columns of the given [ftargets], in that order, with the
    machine's rows for [spec] (and the floor-only relaxation's data
    kept with them), built now if this is their first request.
    Verifies the conditions of {!searchable} once.  Raises
    [Invalid_argument] as {!instantiate} does for an [ftarget] outside
    [[0, fmax]], NaN included, and as {!prepare} does for the spec. *)

val searchable : columns -> bool
(** Whether every thermal coefficient of the rows and every [a_k =
    A^k 1] at their stride points is [>= 0], NaN failing (checked once
    per row set, when the machine builds it), and each column's power
    components are at least the previous column's, with [None] only
    after every [Some].  [Rc_model.discretize] keeps the step matrix
    [A] elementwise [>= 0], so only a hand-built
    [Thermal.Rc_model.discrete] fails the first condition. *)

type row = {
  cells : Table.cell array;  (** One per column. *)
  feasible : int;  (** The row's first infeasible column, or its width. *)
  closed_form : int;  (** Cells settled in closed form. *)
  active_set : int;  (** Cells settled by the active-set step. *)
  frontier_verdict : bool;
      (** A ladder tangent refuted the first infeasible column. *)
  conic : Convex.Conic.stats;
      (** {!solve}'s counters of the row's cells, a cell served from
          its column counted as one optimal outcome with no
          iteration. *)
}

val rows : columns -> float array -> int -> row
(** [rows columns tstarts] finds, on the calling domain, the closed
    rows of the ascending uniform starts [tstarts]: the number [r] of
    leading starts at which the last column holds, and so every
    column, where the columns are {!searchable} (0 otherwise).  It
    finds them in one pass over the machine's thermal rows at the last
    column's point, with no start and no allocation: each row is
    checked at start [r - 1], and one that fails there is bisected
    over the cooler starts for the first it fails at, which becomes
    [r].  Each check is {!solve}'s own closed-form check of that row on
    that start, bit for bit (DESIGN.md §6zh).  [rows] then returns the
    function that settles row [i], left to right up to and including
    its first infeasible cell (infeasibility is monotone in [ftarget];
    the rest stay [Infeasible]).  A closed row is served a fresh copy
    of each column's frequencies, with no start.  Any other row
    prepares its start, serves the leading columns that hold there the
    same way, found by bisection where the columns are {!searchable},
    and settles each later cell as {!solve} does, seeded with the
    previous feasible column's point, checking no column the bisection
    has shown to fail; its conic workspace is made when a cell first
    reaches the conic method.  So a fill prepares exactly its open
    rows.  Every cell and counter is what {!solve} gives, and the
    function is pure in [i], so rows may be settled on any domain.
    Raises [Invalid_argument] before any row is read when a start is
    not finite (NaN or infinite) or [tstarts] is not ascending. *)

val solve_frontier : built -> outcome
(** Solve a {!build_frontier} instance: one conic solve on every row
    that takes part.
    The returned solution's [frequencies] sum to the maximal
    supportable total.  A primal-infeasibility certificate — the start
    temperature is already outside the envelope — and a solve that
    ends without a certificate are both [Infeasible]. *)

(** {2 Frontier tangents} *)

val ladder_points : int
(** The ladder's size [K = 16]: uniform starts spaced evenly from the
    machine's ambient temperature to the spec's [tmax]. *)

type tangent
(** A safe upper bound on the frontier of every start, affine in the
    thermal rows' constants: from the cone dual [z] of the frontier
    at one start, with [r = G'z + c],
    [F*(t0) <= h(t0)'z + sum_j max(0, -r_j) box_j], which weak duality
    gives for any [z in K*] because every feasible point lies in the
    boxes (the safe bound of Neumaier and Shcherbina, Math. Prog. 99,
    2004).  [z] is made to lie in [K*] exactly (orthant entries
    clipped, each power law's block projected onto its cone), so the
    bound holds at every start however far [z] is from that start's
    optimum. *)

val tangent : built -> Vec.t -> tangent option
(** [tangent frontier z] is the tangent of a {!build_frontier}
    instance from a cone dual [z] of it, in the layout
    {!Convex.Conic.solution} reports for a solve of [frontier.conic] on
    the rows it names: orthant entries are clipped at 0,
    each power law's block, reported in [(u, v, w)], is rotated into
    the stored coordinates and projected onto its cone there, and the
    thermal entries below [1e-4] of the largest are dropped before the
    residual is charged, so any [z] of the right length, optimal or
    not, gives a safe bound, kept on a few rows.
    [None] when the bound is not finite.  Raises [Invalid_argument]
    for an instance with a floor or a gradient term, or a [z] of
    another length. *)

val frontier_tangent : built -> point:int -> tangent option
(** The tangent at ladder point [point] for [built]'s machine and
    spec: the frontier solved from the uniform start
    [ambient + (tmax - ambient) point / (K - 1)], on the first request
    from any domain, and kept in the machine's cache
    ({!Sim.Machine.cached}) under the machine's thermal rows for the
    spec and [point]; every later request reads it.  [None] when that
    frontier does not end optimal, and for a spec with a gradient
    term.  Raises [Invalid_argument] unless [0 <= point < K]. *)

val tangent_refutes : tangent -> built -> bool
(** Whether the cell's floor [n_cores ftarget / fmax] exceeds the
    tangent's bound at [built]'s start by more than
    [gamma_N m], where [m] is the sum of the absolute values of the
    bound's terms and [gamma_N = N u / (1 - N u)] bounds the rounding
    of its [N] operations ([u] the unit roundoff).  When it does, the
    cell is infeasible.  One pass over the tangent's support; it
    allocates nothing. *)
