open Linalg

type layout = {
  dim : int;
  n_cores : int;
  f_offset : int;
  n_f : int;
  p_offset : int;
  n_p : int;
  bounds_offset : int option;
}

(* The floor-only relaxation of a cell: minimize [sum_j w_j phat_j]
   subject to the power laws [fhat_j^2 <= phat_j], the boxes and the
   throughput floor [sum_j c_j fhat_j >= F], with no thermal row.  Its
   optimum is [fhat_j = min (f_box, lambda c_j / (2 w_j))],
   [phat_j = fhat_j^2], where the floor's multiplier [lambda] meets the
   floor exactly; core [j] saturates once [lambda] passes its
   breakpoint [2 w_j f_box / c_j].  Everything but [F] depends on the
   machine and the spec alone, so a {!prepared} computes it once:
   [order] lists the variables by ascending breakpoint, and [rest.(k)]
   is [sum c^2 / (2 w)] over [order.(k ..)] (0 at [k = n]), so a cell
   walks the breakpoints without re-summing. *)
type floor_only = {
  c : float array;  (* floor coefficient per frequency variable *)
  w : float array;  (* objective coefficient per power variable *)
  breakpoint : float array;
  order : int array;
  rest : float array;
  capacity : float;  (* [sum_j c_j f_box], the largest floor the boxes allow *)
}

type built = {
  layout : layout;
  spec : Spec.t;
  initial_temperatures : Vec.t;
  ftarget : float;
  steps : int;
  machine : Sim.Machine.t;
  conic : Convex.Conic.t Lazy.t;
  floor_only : floor_only option;
}

(* The normal-equations matrix G' W^-2 G of the conic form couples
   variables only through shared constraint rows; in the models'
   (frequency, power, gradient-bound) variable order that coupling is
   block-tridiagonal, which is what the conic solver's `Blocks
   factorization exploits. *)
let conic_blocks layout =
  match layout.bounds_offset with
  | Some _ -> [| layout.n_f; layout.n_p; 2 |]
  | None -> [| layout.n_f; layout.n_p |]

let make_layout (spec : Spec.t) ~n_cores =
  let n_f = match spec.Spec.variant with Spec.Uniform -> 1 | Spec.Variable -> n_cores in
  let n_p = n_f in
  let base = 2 * n_f in
  let with_grad = spec.Spec.gradient <> None in
  {
    dim = (if with_grad then base + 2 else base);
    n_cores;
    f_offset = 0;
    n_f;
    p_offset = n_f;
    n_p;
    bounds_offset = (if with_grad then Some base else None);
  }

(* Row layout.  Eq. 3 as written — the order of [raw.dual] — has, per
   frequency variable [j], its power law at [5 j] and its four box rows
   ([fhat >= 0], [fhat <= f_box], [phat >= 0], [phat <= p_box]) after
   it; then the throughput floor at [5 n_f] (a frontier instance has
   none); then the thermal and gradient rows.  The conic instance
   keeps that order for its orthant rows and moves each power law to a
   cone block after them, so a box row of variable [j] is orthant row
   [i - j - 1] of constraint [i], and every row from the floor on is
   [n_f] rows earlier than its constraint. *)
let per_variable = 5
let power_law_index j = per_variable * j
let upper_f_box_index j = power_law_index j + 2
let floor_index layout = per_variable * layout.n_f
let first_thermal_index layout = floor_index layout + 1

(* The orthant row of constraint [i], which is not a power law. *)
let orthant_row layout i =
  if i >= floor_index layout then i - layout.n_f
  else i - (i / per_variable) - 1

(* An instance's orthant rows (every row but the power laws' cone
   blocks, three rows each), and Eq. 3's constraints. *)
let n_orthant layout t = Convex.Conic.n_rows t - (3 * layout.n_f)
let constraint_count layout t = n_orthant layout t + layout.n_f

(* The cone dual [z] of an instance in constraint order: the orthant
   dual of an affine row, the [u] dual of a power law's block. *)
let raw_dual layout t (z : Vec.t) =
  let mo = n_orthant layout t in
  Vec.init (constraint_count layout t) (fun i ->
      if i < floor_index layout && i mod per_variable = 0 then
        z.(mo + (3 * (i / per_variable)))
      else z.(orthant_row layout i))

(* Affine coefficient of normalized core power j on the temperature of
   node [node] at step [k] is  S_k[node, core_j] * b[core_j] * pmax,
   where S_k = sum_{l<k} A^l.  The core columns of S_k at the stride
   points depend only on the machine and the window, so they come
   from the machine's shared {!Sim.Machine.window_response}; a row's
   prepare only scales them.  [row_coefficients] writes the
   coefficients of the normalized core powers on one node at one
   stride point into [q], whose [sums] entries start at [off]; the
   entries of [q] it does not write keep their value. *)
let row_coefficients ~(variant : Spec.variant) ~sums ~off ~b ~pmax
    ~core_nodes ~p_offset q =
  match variant with
  | Spec.Variable ->
      for j = 0 to Array.length core_nodes - 1 do
        q.(p_offset + j) <- sums.(off + j) *. b.(core_nodes.(j)) *. pmax.(j)
      done
  | Spec.Uniform ->
      let acc = ref 0.0 in
      for j = 0 to Array.length core_nodes - 1 do
        acc := !acc +. (sums.(off + j) *. b.(core_nodes.(j)))
      done;
      q.(p_offset) <- !acc *. pmax.(0)

(* Upper ends of the normalized boxes [0 <= fhat <= f_box] and
   [0 <= phat <= p_box].  They are relaxed a fraction of a percent so
   that a demand of exactly fmax keeps a strict interior for the
   interior-point method; extraction clamps back to fmax, which only
   lowers power, so the thermal guarantee (computed at the relaxed
   powers) still holds.  The thermal-row filter below reads [p_box]
   too. *)
let f_box = 1.002
let p_box = 1.005

(* A thermal row [base + q.phat <= tmax] whose largest value over the
   power box, [base + sum_j max(q_j, 0) * p_box], stays below
   [tmax * (1 - implied_margin)] holds at every point the box rows
   admit, so it is implied and never emitted.  The relative margin
   keeps every row within rounding (or within the solver's tolerance
   on the box rows) of binding. *)
let implied_margin = 1e-6

let floor_only_of layout ~total_f_coeffs ~objective_coeffs =
  let n = layout.n_f in
  let c = Array.init n (fun j -> -.total_f_coeffs.(layout.f_offset + j)) in
  let w = Array.init n (fun j -> objective_coeffs.(layout.p_offset + j)) in
  let breakpoint = Array.init n (fun j -> 2.0 *. w.(j) *. f_box /. c.(j)) in
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> Float.compare breakpoint.(a) breakpoint.(b))
    order;
  let rest = Array.make (n + 1) 0.0 in
  for k = n - 1 downto 0 do
    let j = order.(k) in
    rest.(k) <- rest.(k + 1) +. (c.(j) *. c.(j) /. (2.0 *. w.(j)))
  done;
  let capacity = ref 0.0 in
  Array.iter (fun cj -> capacity := !capacity +. (cj *. f_box)) c;
  { c; w; breakpoint; order; rest; capacity = !capacity }

(* [q] is nonzero only on the power columns [p_offset, p_offset + n_p)
   (the scratch row {!row_coefficients} fills), so the walk starts and
   ends there: the zeros it skips were never added, and the add chain
   is the full row's. *)
let box_implies_row ~tmax ~base ~p_offset ~n_p q =
  let worst = ref base in
  for i = p_offset to p_offset + n_p - 1 do
    let c = q.(i) in
    if c > 0.0 then worst := !worst +. (c *. p_box)
  done;
  !worst < tmax *. (1.0 -. implied_margin)

(* The stripe of a dense row that the conic instance stores: the
   entries from its first to its last nonzero one, and the column it
   starts at. *)
let stripe full =
  let n = Array.length full in
  let lo = ref 0 in
  (* Structural-zero detection at build time wants exact equality. *)
  while !lo < n && full.(!lo) = 0.0 do (* lint: float-equality structural zero *)
    incr lo
  done;
  if !lo = n then (0, [||])
  else begin
    let hi = ref (n - 1) in
    while full.(!hi) = 0.0 do (* lint: float-equality structural zero *)
      decr hi
    done;
    (!lo, Array.sub full !lo (!hi - !lo + 1))
  end

(* Everything in the models of Eqs. 3-5 except the throughput floor's
   constant depends only on [(machine, spec, t0)] — the base
   trajectory and every thermal, power-law, box and gradient row are
   shared by all [ftarget] columns of a table row (the core-column sums
   S_k depend on the machine and window alone, and are shared by every
   row).  [prepared] is that shared context, written once into conic
   rows with a floor constant of 0; {!instantiate} then re-targets the
   floor row per [ftarget] without re-packing G.  The instance is never
   mutated by the solver, so cells — and domains — may share it
   freely. *)
type prepared = {
  p_layout : layout;
  p_spec : Spec.t;
  p_machine : Sim.Machine.t;
  p_t0 : Vec.t;
  p_steps : int;
  p_floor_only : floor_only option;
  p_conic : Convex.Conic.t;
}

(* The Eq. 3 instance from [t0], written straight into conic rows
   [h - G x in K] in the row layout above: the box rows, the floor
   (left out of a [frontier] instance, which maximizes the total
   frequency instead of minimizing power), the thermal and gradient
   rows, then one rotated-quadratic block per power law.  Each
   constant is [-r] of the row's [q'x + r <= 0] form. *)
let prepare_internal ~machine ~(spec : Spec.t) ~t0 ~frontier =
  Spec.validate spec;
  (* Per-core normalization: variable j is stated in units of its own
     core's ceiling, [fhat_j = f_j / core_fmax.(j)] and
     [phat_j = p_j / core_pmax.(j)], so the box and power-law rows
     keep O(1) coefficients on any platform.  The quadratic surrogate
     [fhat^2 <= phat] over-states the true power [fhat^e] on [0, 1]
     only when [e >= 2]; a smaller exponent would silently void the
     thermal guarantee, so it is rejected here. *)
  Array.iter
    (fun e ->
      if e < 2.0 then
        invalid_arg
          "Model: power exponent below 2 (the quadratic surrogate would \
           under-estimate power)")
    machine.Sim.Machine.core_exponent;
  (match spec.Spec.variant with
  | Spec.Uniform
    when not (Sim.Platform.single_class machine.Sim.Machine.platform) ->
      invalid_arg "Model: the uniform variant needs a single-class platform"
  | Spec.Uniform | Spec.Variable -> ());
  let pmax = machine.Sim.Machine.core_pmax in
  let core_fmax = machine.Sim.Machine.core_fmax in
  let fref = machine.Sim.Machine.fmax in
  let thermal = machine.Sim.Machine.thermal in
  let dt = thermal.Thermal.Rc_model.dt in
  let steps = int_of_float (Float.round (spec.Spec.dfs_period /. dt)) in
  if steps < 1 then invalid_arg "Model.build: window below one thermal step";
  let n_nodes = machine.Sim.Machine.n_nodes in
  let n_cores = machine.Sim.Machine.n_cores in
  let core_nodes = machine.Sim.Machine.core_nodes in
  let layout = make_layout spec ~n_cores in
  let dim = layout.dim in
  let g = ref [] and h = ref [] and n_orthant = ref 0 in
  let emit row hi =
    g := row :: !g;
    h := hi :: !h
  in
  let orthant row hi =
    emit row hi;
    incr n_orthant
  in
  (* Box rows. *)
  for j = 0 to layout.n_f - 1 do
    let f = layout.f_offset + j and p = layout.p_offset + j in
    orthant (f, [| -1.0 |]) 0.0;
    orthant (f, [| 1.0 |]) f_box;
    orthant (p, [| -1.0 |]) 0.0;
    orthant (p, [| 1.0 |]) p_box
  done;
  (* Throughput direction: sum over cores of f, in units of the chip
     reference frequency — coefficient [core_fmax.(j) / fref] per
     normalized variable, which is exactly -1.0 on a single-class
     platform ([x /. x = 1.0] for finite positive x).  In the uniform
     variant the single f counts n_cores times.  The floor row
     [total_f_coeffs . fhat + F <= 0] gets its constant per [ftarget]
     in {!instantiate}. *)
  let total_f_coeffs =
    let q = Vec.zeros dim in
    (match spec.Spec.variant with
    | Spec.Variable ->
        for j = 0 to layout.n_f - 1 do
          q.(layout.f_offset + j) <- -.(core_fmax.(j) /. fref)
        done
    | Spec.Uniform -> q.(layout.f_offset) <- -.float_of_int n_cores);
    q
  in
  if not frontier then orthant (stripe total_f_coeffs) 0.0;
  if Vec.dim t0 <> n_nodes then
    invalid_arg "Model.build: initial temperature profile length mismatch";
  if not (Array.for_all Float.is_finite t0) then
    invalid_arg "Model.build: non-finite start temperature";
  (* Thermal rows.  The base trajectory — the window with zero core
     power (fixed non-core power only) from [t0] — is stepped in two
     ping-pong vectors, with [Transient.simulate]'s arithmetic, and
     read only at the stride points: the full (steps + 1) x n_nodes
     trajectory is never stored.  At each stride point one scratch [q]
     is refilled per node from the machine's window response; only
     the rows emitted are allocated, as stripes cut from the scratch
     [full], and the gradient variant keeps a copy of [q] for the core
     nodes. *)
  let response =
    Sim.Machine.window_response machine ~steps
      ~stride:spec.Spec.constraint_stride
  in
  let ks = response.Sim.Machine.ks and sums = response.Sim.Machine.sums in
  let tmax = spec.Spec.tmax in
  let b = thermal.Thermal.Rc_model.injection in
  let fixed_power = machine.Sim.Machine.fixed_power in
  let grad_rows = ref [] in
  (* The nodes whose rows the gradient variant keeps: the core nodes,
     and none without a gradient term. *)
  let grad_node = Array.make n_nodes false in
  if layout.bounds_offset <> None then
    Array.iter (fun cn -> grad_node.(cn) <- true) core_nodes;
  let q = Vec.zeros dim and full = Vec.zeros dim in
  (* [full := a q], in [Vec.scale]'s [a *. q_i] order. *)
  let scaled a q =
    for i = 0 to dim - 1 do
      full.(i) <- a *. q.(i)
    done
  in
  let t = ref (Vec.copy t0) and next = ref (Vec.zeros n_nodes) in
  let r = ref 0 in
  for k = 1 to steps do
    Thermal.Rc_model.step_temperature_into thermal !t fixed_power ~dst:!next;
    let prev = !t in
    t := !next;
    next := prev;
    (* The last stride point is [steps], so [r] runs past the end of
       [ks] only as the loop ends. *)
    if ks.(!r) = k then begin
      for node = 0 to n_nodes - 1 do
        row_coefficients ~variant:spec.Spec.variant ~sums
          ~off:(((!r * n_nodes) + node) * n_cores)
          ~b ~pmax ~core_nodes ~p_offset:layout.p_offset q;
        let base = !t.(node) in
        (* base + q.p <= tmax, stated in units of tmax so every
           constraint family has O(1) coefficients (the interior-point
           normal equations are ill-conditioned otherwise).  Rows the
           power box already implies are left out. *)
        if
          not
            (box_implies_row ~tmax ~base ~p_offset:layout.p_offset
               ~n_p:layout.n_p q)
        then begin
          scaled (1.0 /. tmax) q;
          orthant (stripe full) (-.((base -. tmax) /. tmax))
        end;
        (* Gradient bookkeeping (core nodes only). *)
        if grad_node.(node) then grad_rows := (Vec.copy q, base) :: !grad_rows
      done;
      incr r
    end
  done;
  (* Gradient variant: t_{k,i}/tmax in [l, u] for all core rows, plus
     bounds keeping the spread term bounded, and the optional hard cap. *)
  (match (layout.bounds_offset, spec.Spec.gradient) with
  | Some off, Some gr ->
      let u = off and l = off + 1 in
      List.iter
        (fun (q, base) ->
          (* q.p/tmax + base/tmax - u <= 0 *)
          scaled (1.0 /. tmax) q;
          full.(u) <- -1.0;
          orthant (stripe full) (-.(base /. tmax));
          (* l - q.p/tmax - base/tmax <= 0 *)
          scaled (-1.0 /. tmax) q;
          full.(l) <- 1.0;
          orthant (stripe full) (base /. tmax))
        !grad_rows;
      (* 0 <= l, u <= 2, l <= u *)
      orthant (l, [| -1.0 |]) (-0.0);
      orthant (u, [| 1.0 |]) 2.0;
      orthant (u, [| -1.0; 1.0 |]) (-0.0);
      (match gr.Spec.cap with
      | Some cap -> orthant (u, [| 1.0; -1.0 |]) (cap /. tmax)
      | None -> ())
  | None, None -> ()
  | Some _, None | None, Some _ -> assert false);
  (* Power laws [fhat^2 <= phat]: the rotated-quadratic block
     [(u, v, w) = (phat, 1/2, fhat)], written rotated by T. *)
  let inv_sqrt2 = 1.0 /. sqrt 2.0 in
  for j = 0 to layout.n_f - 1 do
    let p = layout.p_offset + j in
    emit (p, [| -.inv_sqrt2 |]) (inv_sqrt2 *. 0.5);
    emit (p, [| -.inv_sqrt2 |]) (inv_sqrt2 *. -0.5);
    emit (layout.f_offset + j, [| -1.0 |]) 0.0
  done;
  (* Objective of the power problem: total power in units of the
     largest per-core pmax — coefficient [pmax.(j) / pref] per
     normalized power, exactly 1.0 on a single-class platform — plus
     the weighted spread (Eq. 3/5). *)
  let pref = Array.fold_left Float.max 0.0 pmax in
  let objective_coeffs = Vec.zeros dim in
  for j = 0 to layout.n_p - 1 do
    objective_coeffs.(layout.p_offset + j) <-
      (match spec.Spec.variant with
      | Spec.Variable -> pmax.(j) /. pref
      | Spec.Uniform -> float_of_int n_cores)
  done;
  (match (layout.bounds_offset, spec.Spec.gradient) with
  | Some off, Some gr ->
      objective_coeffs.(off) <- gr.Spec.weight;
      objective_coeffs.(off + 1) <- -.gr.Spec.weight
  | None, _ | _, None -> ());
  (* The gradient variant's objective couples the thermal rows through
     its spread term, so it has no floor-only closed form. *)
  let floor_only =
    match spec.Spec.gradient with
    | None when not frontier ->
        Some (floor_only_of layout ~total_f_coeffs ~objective_coeffs)
    | None | Some _ -> None
  in
  {
    p_layout = layout;
    p_spec = spec;
    p_machine = machine;
    p_t0 = Vec.copy t0;
    p_steps = steps;
    p_floor_only = floor_only;
    p_conic =
      Convex.Conic.make
        ~c:(if frontier then total_f_coeffs else objective_coeffs)
        ~n_orthant:!n_orthant
        ~g:(Array.of_list (List.rev !g))
        ~h:(Array.of_list (List.rev !h));
  }

let uniform_t0 machine tstart =
  Vec.create machine.Sim.Machine.n_nodes tstart

let prepare ~machine ~spec ~tstart =
  prepare_internal ~machine ~spec ~t0:(uniform_t0 machine tstart)
    ~frontier:false

let prepare_with_profile ~machine ~spec ~t0 =
  prepare_internal ~machine ~spec ~t0 ~frontier:false

(* The throughput floor [sum_j c_j fhat_j >= F] has the constant
   [F = n_cores ftarget / fmax]. *)
let floor_constant ~layout ~machine ftarget =
  float_of_int layout.n_cores *. (ftarget /. machine.Sim.Machine.fmax)

let built_of p ~ftarget conic =
  {
    layout = p.p_layout;
    spec = p.p_spec;
    initial_temperatures = p.p_t0;
    ftarget;
    steps = p.p_steps;
    machine = p.p_machine;
    conic;
    floor_only = p.p_floor_only;
  }

let instantiate p ~ftarget =
  let fmax = p.p_machine.Sim.Machine.fmax in
  (* Written so that a NaN target fails too. *)
  if not (ftarget >= 0.0 && ftarget <= fmax) then
    invalid_arg "Model.build: ftarget outside [0, fmax]";
  let floor_const =
    floor_constant ~layout:p.p_layout ~machine:p.p_machine ftarget
  in
  built_of p ~ftarget
    (lazy
      (Convex.Conic.with_constant p.p_conic
         ~row:(orthant_row p.p_layout (floor_index p.p_layout))
         (-.floor_const)))

(* The frontier problem: maximize the total frequency under the same
   envelope, with no floor. *)
let frontier ~machine ~spec ~t0 =
  let p = prepare_internal ~machine ~spec ~t0 ~frontier:true in
  built_of p ~ftarget:0.0 (Lazy.from_val p.p_conic)

let build ~machine ~spec ~tstart ~ftarget =
  instantiate (prepare ~machine ~spec ~tstart) ~ftarget

let build_frontier ~machine ~spec ~tstart =
  frontier ~machine ~spec ~t0:(uniform_t0 machine tstart)

let build_with_profile ~machine ~spec ~t0 ~ftarget =
  instantiate (prepare_with_profile ~machine ~spec ~t0) ~ftarget

let build_frontier_with_profile ~machine ~spec ~t0 = frontier ~machine ~spec ~t0

type solution = {
  frequencies : Vec.t;
  core_powers : Vec.t;
  total_power : float;
  gradient_spread : float option;
  raw : Convex.Solve.solution;
  settled_by : [ `Closed_form | `Interior_point ];
}

type outcome = Feasible of solution | Infeasible

let expand built per_var =
  (* Uniform solutions carry one value for all cores. *)
  match built.spec.Spec.variant with
  | Spec.Variable -> Vec.copy per_var
  | Spec.Uniform -> Vec.create built.layout.n_cores per_var.(0)

let solution_of_x built ~settled_by (raw : Convex.Solve.solution) =
  let layout = built.layout in
  let x = raw.Convex.Solve.x in
  let core_fmax = built.machine.Sim.Machine.core_fmax in
  let core_pmax = built.machine.Sim.Machine.core_pmax in
  let clamp1 v = Vec.map (fun a -> Float.min 1.0 (Float.max 0.0 a)) v in
  let fhat = expand built (clamp1 (Vec.slice x layout.f_offset layout.n_f)) in
  let phat = expand built (clamp1 (Vec.slice x layout.p_offset layout.n_p)) in
  (* Per-core denormalization, multiply order as [Vec.scale]'s
     [a *. x_i] so a single-class platform is bit-identical.  The
     reported powers are the certified (model) powers: for an
     exponent above 2 the true power is lower, so they remain a safe
     over-estimate. *)
  let frequencies =
    Vec.init layout.n_cores (fun j -> core_fmax.(j) *. fhat.(j))
  in
  let core_powers =
    Vec.init layout.n_cores (fun j -> core_pmax.(j) *. phat.(j))
  in
  let gradient_spread =
    Option.map
      (fun off -> (x.(off) -. x.(off + 1)) *. built.spec.Spec.tmax)
      layout.bounds_offset
  in
  {
    frequencies;
    core_powers;
    total_power = Vec.sum core_powers;
    gradient_spread;
    raw;
    settled_by;
  }

(* [s] has the full instance's shape, so the dual is zero on every row
   a working set left out. *)
let raw_of_conic built t (s : Convex.Conic.solution) =
  {
    Convex.Solve.x = s.Convex.Conic.x;
    objective_value = s.Convex.Conic.objective_value;
    dual = raw_dual built.layout t s.Convex.Conic.z;
    gap = s.Convex.Conic.gap;
    iterations = s.Convex.Conic.iterations;
  }

(* An optimum is served; every other status is reported infeasible.  A
   primal-infeasibility certificate proves it.  A dual-infeasibility
   certificate cannot occur for a well-posed instance (the objective is
   bounded on the box), and [Unknown] proves nothing either way, so
   both take the thermally safe verdict: the controller then falls
   back to a lower column. *)
let outcome_of built t (status : Convex.Conic.status) =
  match status with
  | Convex.Conic.Optimal s ->
      Feasible
        (solution_of_x built ~settled_by:`Interior_point
           (raw_of_conic built t s))
  | Convex.Conic.Primal_infeasible _ | Convex.Conic.Dual_infeasible _
  | Convex.Conic.Unknown _ ->
      Infeasible

let conic_workspace built t =
  Convex.Conic.make_workspace ~kkt:(`Blocks (conic_blocks built.layout)) t

let solve_frontier built =
  let t = Lazy.force built.conic in
  outcome_of built t (Convex.Conic.solve ~ws:(conic_workspace built t) t)

(* The orthant rows a conic solve may leave out of its working set:
   the thermal and gradient rows after the floor.  The gradient
   variant's last three rows (0 <= l, u <= 2, l <= u), four with the
   cap, always stay in: without them the spread term of the objective
   is unbounded below. *)
let optional_rows built t =
  let tail =
    match built.spec.Spec.gradient with
    | None -> 0
    | Some { Spec.cap = None; _ } -> 3
    | Some { Spec.cap = Some _; _ } -> 4
  in
  ( orthant_row built.layout (first_thermal_index built.layout),
    n_orthant built.layout t - tail )

(* An optional row within this much of binding at the seed, in units
   of tmax (1e-4 C at tmax = 100 C), starts in the working set: the
   rows that bind at the neighbour's optimum, up to the solver's
   tolerance.  At 1e-2 the set also took rows that bind only at the
   neighbour, and Niagara's grid ended two more cells Unknown
   (DESIGN.md 6p). *)
let seed_slack = 1e-6

(* Constraint generation over the optional rows: solve on the working
   set, evaluate every row at the optimum, admit the violated ones and
   re-solve warm from that optimum until none is.  The working-set
   problem is a relaxation of the cell, so an optimum that satisfies
   every row is the cell's optimum (its dual, zero off the set, is a
   KKT certificate for the full problem), and an infeasible working
   set proves the cell infeasible.  Round 1 starts from the cold
   central point even with a seed: the seed only picks the working
   set.  Started at a neighbour's optimum, the iterate took more
   iterations than the central point, not fewer (DESIGN.md 6p); a
   later round's seed is this cell's own optimum on a smaller set, and
   it stays warm.

   The first working set is the thermal rows the floor-only optimum
   violates when the cell has that closed form, else the rows that
   bind at [start].  A run that stalls ([Unknown], or a
   dual-infeasibility certificate a bounded cell cannot have) from the
   violated rows is run again from the rows [start] picks: on a cell
   just past the frontier the floor-only optimum violates hundreds of
   rows, and the embedding started cold on all of them can stall where
   the same rows, admitted round by round, end in a certificate
   (DESIGN.md 6r).  A run that stalls from the rows [start] picks is
   retried once, cold, on every row; the last status is the call's.
   Work counters add up over every solve; the outcome counters count
   the call once, by its final status. *)
let count_outcome (status : Convex.Conic.status) (s : Convex.Conic.stats) =
  let s =
    {
      s with
      optimal = 0;
      primal_infeasible = 0;
      dual_infeasible = 0;
      unknown = 0;
    }
  in
  match status with
  | Convex.Conic.Optimal _ -> { s with optimal = 1 }
  | Convex.Conic.Primal_infeasible _ -> { s with primal_infeasible = 1 }
  | Convex.Conic.Dual_infeasible _ -> { s with dual_infeasible = 1 }
  | Convex.Conic.Unknown _ -> { s with unknown = 1 }

(* The optimum of the floor-only relaxation, as [raw] with its exact
   dual, or [None] when the floor exceeds what the boxes allow (the
   conic method then certifies the cell infeasible).  The breakpoint
   walk saturates variables in ascending breakpoint order while the
   multiplier that meets the floor on the rest passes their
   breakpoint; that multiplier only grows along the walk, so every
   saturated variable's box dual [lambda c_j - 2 w_j f_box] is
   positive.  If every variable saturates the floor equals the
   capacity, and [lambda] is the last breakpoint.

   The dual has the full instance's shape: [w_j] on each power law,
   the box dual on each saturated variable's upper frequency box,
   [lambda] on the floor, zero everywhere else. *)
let floor_only_raw built t =
  match built.floor_only with
  | None -> None
  | Some fo ->
      let layout = built.layout in
      let floor = floor_constant ~layout ~machine:built.machine built.ftarget in
      if not (floor <= fo.capacity) then None
      else begin
        let n = layout.n_f in
        let rec walk k sat =
          if k = n then (k, fo.breakpoint.(fo.order.(n - 1)))
          else
            let lambda = (floor -. sat) /. fo.rest.(k) in
            let j = fo.order.(k) in
            if lambda <= fo.breakpoint.(j) then (k, lambda)
            else walk (k + 1) (sat +. (fo.c.(j) *. f_box))
        in
        let saturated, lambda = walk 0 0.0 in
        let x = Vec.zeros layout.dim in
        let dual = Vec.zeros (constraint_count layout t) in
        let objective = ref 0.0 in
        Array.iteri
          (fun k j ->
            let fhat =
              if k < saturated then begin
                dual.(upper_f_box_index j) <-
                  (lambda *. fo.c.(j)) -. (2.0 *. fo.w.(j) *. f_box);
                f_box
              end
              else Float.min f_box (lambda *. fo.c.(j) /. (2.0 *. fo.w.(j)))
            in
            x.(layout.f_offset + j) <- fhat;
            x.(layout.p_offset + j) <- fhat *. fhat;
            dual.(power_law_index j) <- fo.w.(j))
          fo.order;
        for j = 0 to layout.n_p - 1 do
          objective := !objective +. (fo.w.(j) *. x.(layout.p_offset + j))
        done;
        dual.(floor_index layout) <- lambda;
        Some
          {
            Convex.Solve.x;
            objective_value = !objective;
            dual;
            gap = 0.0;
            iterations = 0;
          }
      end

(* A cell the floor-only optimum settles counts as one optimal solve
   with no interior-point work. *)
let closed_form_stats = { Convex.Conic.stats_zero with optimal = 1 }

(* The floor-only relaxation settles a cell when its optimum satisfies
   every thermal row: it is then feasible for the cell, and as the
   relaxation's objective is strictly convex in [fhat], it is the
   cell's unique optimum.  One {!Convex.Conic.admit} pass makes the
   check and leaves exactly the violated rows in the working set,
   which the conic rounds then start from. *)
let solve ?conic_stats_into ?conic_ws ?start built =
  let t = Lazy.force built.conic in
  let ws =
    match conic_ws with Some ws -> ws | None -> conic_workspace built t
  in
  let first, last = optional_rows built t in
  let record stats =
    match conic_stats_into with
    | Some acc -> acc := Convex.Conic.stats_add !acc stats
    | None -> ()
  in
  let stats = ref Convex.Conic.stats_zero in
  let rec round warm =
    match Convex.Conic.solve ?warm ~stats_into:stats ~ws t with
    | Convex.Conic.Optimal s
      when Convex.Conic.admit ws t s.Convex.Conic.x ~above:0.0 > 0 ->
        round (Some s.Convex.Conic.x)
    | status -> status
  in
  let from_start () =
    Convex.Conic.restrict ws t ~first ~last;
    (match start with
    | Some x when Vec.dim x = built.layout.dim ->
        ignore (Convex.Conic.admit ws t x ~above:(-.seed_slack))
    | Some _ | None -> ());
    round None
  in
  let stalled = function
    | Convex.Conic.Optimal _ | Convex.Conic.Primal_infeasible _ -> false
    | Convex.Conic.Dual_infeasible _ | Convex.Conic.Unknown _ -> true
  in
  Convex.Conic.restrict ws t ~first ~last;
  match floor_only_raw built t with
  | Some raw when Convex.Conic.admit ws t raw.Convex.Solve.x ~above:0.0 = 0 ->
      record closed_form_stats;
      Feasible (solution_of_x built ~settled_by:`Closed_form raw)
  | closed_form ->
      let status =
        match closed_form with
        | Some _ ->
            let status = round None in
            if stalled status then from_start () else status
        | None -> from_start ()
      in
      let status =
        if stalled status then begin
          Convex.Conic.restrict ws t ~first:0 ~last:0;
          Convex.Conic.solve ~stats_into:stats ~ws t
        end
        else status
      in
      record (count_outcome status !stats);
      outcome_of built t status

let predicted_peak built frequencies =
  let machine = built.machine in
  if Vec.dim frequencies <> machine.Sim.Machine.n_cores then
    invalid_arg "Model.predicted_peak: need one frequency per core";
  let power =
    Sim.Machine.power_vector machine ~frequencies
      ~busy:(Array.make machine.Sim.Machine.n_cores true)
  in
  Thermal.Transient.peak_const machine.Sim.Machine.thermal
    ~t0:built.initial_temperatures ~steps:built.steps power
