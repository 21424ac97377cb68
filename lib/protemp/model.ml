open Linalg
open Convex

type layout = {
  dim : int;
  n_cores : int;
  f_offset : int;
  n_f : int;
  p_offset : int;
  n_p : int;
  bounds_offset : int option;
}

type built = {
  problem : Convex.Barrier.problem;
  layout : layout;
  spec : Spec.t;
  initial_temperatures : Vec.t;
  ftarget : float;
  steps : int;
  machine : Sim.Machine.t;
  frontier_problem : Convex.Barrier.problem Lazy.t;
  compiled : Convex.Compiled.t Lazy.t;
  frontier_compiled : Convex.Compiled.t Lazy.t;
  conic : Convex.Conic.t Lazy.t;
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

(* Affine coefficient of normalized core power j on the temperature of
   node [node] at step [k] is  S_k[node, core_j] * b[core_j] * pmax,
   where S_k = sum_{l<k} A^l.  We accumulate S_k step by step and emit
   constraints at the stride points. *)

(* Upper ends of the normalized boxes [0 <= fhat <= f_box] and
   [0 <= phat <= p_box].  They are relaxed a fraction of a percent so
   that a demand of exactly fmax keeps a strict interior for the
   barrier; extraction clamps back to fmax, which only lowers power,
   so the thermal guarantee (computed at the relaxed powers) still
   holds.  The thermal-row filter below reads [p_box] too. *)
let f_box = 1.002
let p_box = 1.005

(* A thermal row [base + q.phat <= tmax] whose largest value over the
   power box, [base + sum_j max(q_j, 0) * p_box], stays below
   [tmax * (1 - implied_margin)] holds at every point the box rows
   admit, so it is implied and never emitted.  The relative margin
   keeps every row within rounding (or within the solver's tolerance
   on the box rows) of binding. *)
let implied_margin = 1e-6

let box_implies_row ~tmax ~base q =
  let worst = ref base in
  Array.iter (fun c -> if c > 0.0 then worst := !worst +. (c *. p_box)) q;
  !worst < tmax *. (1.0 -. implied_margin)

let stride_steps ~steps ~stride =
  let rec go k acc =
    if k > steps then acc else go (k + stride) (k :: acc)
  in
  let ks = go stride [] in
  (* Always constrain the end of the window. *)
  if List.mem steps ks then ks else steps :: ks

(* Everything in the models of Eqs. 3-5 except the throughput floor
   (and the choice of objective) depends only on [(machine, spec, t0)]
   — the matrix-power products S_k, the base trajectory and every
   thermal, power-law, box and gradient row are shared by all
   [ftarget] columns of a table row.  [prepared] is that shared
   context, computed once; {!instantiate} then builds one [ftarget]
   instance by splicing in the single floor constraint.

   - [pre_floor]: power-law and box rows (the constraints the original
     single-shot construction emits before the floor);
   - [post_floor]: thermal and gradient rows (emitted after it).

   Keeping the original emission order means an instantiated problem
   is identical, constraint for constraint, to what a from-scratch
   build produces.  The shared [Quad.t] rows are never mutated by the
   solver, so cells — and domains — may share them freely. *)
type prepared = {
  pre_floor : Quad.t array;
  post_floor : Quad.t array;
  total_f_coeffs : Vec.t;
  power_objective : Quad.t;
  p_layout : layout;
  p_spec : Spec.t;
  p_machine : Sim.Machine.t;
  p_t0 : Vec.t;
  p_steps : int;
  p_frontier : Convex.Barrier.problem Lazy.t;
  (* Compiled (packed-Jacobian) forms, shared by every cell of the
     row.  [p_compiled] is the power problem with a floor constant of
     0; {!instantiate} re-offsets it per [ftarget] without repacking
     the Jacobian. *)
  p_compiled : Convex.Compiled.t Lazy.t;
  p_frontier_compiled : Convex.Compiled.t Lazy.t;
  (* Conic form with a floor constant of 0; {!instantiate} re-offsets
     the floor row per [ftarget] without re-packing G. *)
  p_conic : Convex.Conic.t Lazy.t;
}

let prepare_internal ~machine ~(spec : Spec.t) ~t0 =
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
  let pre = ref [] in
  let add_pre c = pre := c :: !pre in
  (* Power law and box constraints. *)
  for j = 0 to layout.n_f - 1 do
    let f_var = Quad.linear_coord dim (layout.f_offset + j) 1.0 in
    let p_var = Quad.linear_coord dim (layout.p_offset + j) 1.0 in
    (* f^2 - p <= 0 *)
    add_pre
      (Quad.add
         (Quad.square_of_affine (Quad.linear_part f_var) 0.0)
         (Quad.scale (-1.0) p_var));
    add_pre (Quad.scale (-1.0) f_var);
    add_pre (Quad.add_constant f_var (-.f_box));
    add_pre (Quad.scale (-1.0) p_var);
    add_pre (Quad.add_constant p_var (-.p_box))
  done;
  (* Throughput direction: sum over cores of f, in units of the chip
     reference frequency — coefficient [core_fmax.(j) / fref] per
     normalized variable, which is exactly -1.0 on a single-class
     platform ([x /. x = 1.0] for finite positive x).  In the uniform
     variant the single f counts n_cores times.  The floor constraint
     itself is per-[ftarget] and built in {!instantiate}. *)
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
  (* Base trajectory: the window with zero core power (fixed non-core
     power only), from the start temperature profile. *)
  if Vec.dim t0 <> n_nodes then
    invalid_arg "Model.build: initial temperature profile length mismatch";
  let base_traj =
    let traj =
      Thermal.Transient.simulate thermal ~t0 ~steps ~power:(fun _ ->
          machine.Sim.Machine.fixed_power)
    in
    traj.Thermal.Transient.temperatures
  in
  (* Thermal constraints: accumulate S_k and A^k. *)
  let post = ref [] in
  let add c = post := c :: !post in
  let ks = stride_steps ~steps ~stride:spec.Spec.constraint_stride in
  let ks = List.sort_uniq compare ks in
  let tmax = spec.Spec.tmax in
  let b = thermal.Thermal.Rc_model.injection in
  let grad_rows = ref [] in
  let s_k = ref (Mat.zeros n_nodes n_nodes) in
  let a_pow = ref (Mat.identity n_nodes) in
  let next_ks = ref ks in
  for k = 1 to steps do
    (* S_k = S_{k-1} + A^{k-1} *)
    Mat.add_into ~dst:!s_k !a_pow;
    a_pow := Mat.matmul thermal.Thermal.Rc_model.step !a_pow;
    match !next_ks with
    | k' :: rest when k' = k ->
        next_ks := rest;
        for node = 0 to n_nodes - 1 do
          (* Coefficients of normalized core powers on this node. *)
          let q = Vec.zeros dim in
          (match spec.Spec.variant with
          | Spec.Variable ->
              Array.iteri
                (fun j cn ->
                  q.(layout.p_offset + j) <-
                    Mat.get !s_k node cn *. b.(cn) *. pmax.(j))
                core_nodes
          | Spec.Uniform ->
              let acc = ref 0.0 in
              Array.iter
                (fun cn -> acc := !acc +. (Mat.get !s_k node cn *. b.(cn)))
                core_nodes;
              q.(layout.p_offset) <- !acc *. pmax.(0));
          let base = Mat.get base_traj k node in
          (* base + q.p <= tmax, stated in units of tmax so every
             constraint family has O(1) coefficients (the barrier's
             Newton systems are ill-conditioned otherwise).  Rows the
             power box already implies are left out. *)
          if not (box_implies_row ~tmax ~base q) then
            add
              (Quad.affine
                 (Vec.scale (1.0 /. tmax) q)
                 ((base -. tmax) /. tmax));
          (* Gradient bookkeeping (core nodes only). *)
          if
            layout.bounds_offset <> None
            && Array.exists (fun cn -> cn = node) core_nodes
          then grad_rows := (q, base) :: !grad_rows
        done
    | _ :: _ | [] -> ()
  done;
  (* Gradient variant: t_{k,i}/tmax in [l, u] for all core rows, plus
     bounds keeping phase I bounded and the optional hard cap. *)
  (match (layout.bounds_offset, spec.Spec.gradient) with
  | Some off, Some g ->
      let u = off and l = off + 1 in
      List.iter
        (fun (q, base) ->
          (* q.p/tmax + base/tmax - u <= 0 *)
          let qu = Vec.scale (1.0 /. tmax) q in
          qu.(u) <- -1.0;
          add (Quad.affine qu (base /. tmax));
          (* l - q.p/tmax - base/tmax <= 0 *)
          let ql = Vec.scale (-1.0 /. tmax) q in
          ql.(l) <- 1.0;
          add (Quad.affine ql (-.base /. tmax)))
        !grad_rows;
      (* 0 <= l, u <= 2, l <= u *)
      add (Quad.linear_coord dim l (-1.0));
      add (Quad.add_constant (Quad.linear_coord dim u 1.0) (-2.0));
      let l_le_u = Vec.zeros dim in
      l_le_u.(l) <- 1.0;
      l_le_u.(u) <- -1.0;
      add (Quad.affine l_le_u 0.0);
      (match g.Spec.cap with
      | Some cap ->
          let spread = Vec.zeros dim in
          spread.(u) <- 1.0;
          spread.(l) <- -1.0;
          add (Quad.affine spread (-.cap /. tmax))
      | None -> ())
  | None, None -> ()
  | Some _, None | None, Some _ -> assert false);
  (* Objective of the power problem: total power in units of the
     largest per-core pmax — coefficient [pmax.(j) / pref] per
     normalized power, exactly 1.0 on a single-class platform — plus
     the weighted spread (Eq. 3/5). *)
  let pref = Array.fold_left Float.max 0.0 pmax in
  let power_objective =
    let q = Vec.zeros dim in
    for j = 0 to layout.n_p - 1 do
      q.(layout.p_offset + j) <-
        (match spec.Spec.variant with
        | Spec.Variable -> pmax.(j) /. pref
        | Spec.Uniform -> float_of_int n_cores)
    done;
    (match (layout.bounds_offset, spec.Spec.gradient) with
    | Some off, Some g ->
        q.(off) <- g.Spec.weight;
        q.(off + 1) <- -.g.Spec.weight
    | None, _ | _, None -> ());
    Quad.affine q 0.0
  in
  let pre_floor = Array.of_list (List.rev !pre) in
  let post_floor = Array.of_list (List.rev !post) in
  {
    pre_floor;
    post_floor;
    total_f_coeffs;
    power_objective;
    p_layout = layout;
    p_spec = spec;
    p_machine = machine;
    p_t0 = Vec.copy t0;
    p_steps = steps;
    (* The frontier problem — maximize the total frequency under the
       same envelope, no floor — is shared by every cell of the row
       and forced at most once. *)
    p_frontier =
      lazy
        {
          Convex.Barrier.objective = Quad.affine total_f_coeffs 0.0;
          constraints = Array.append pre_floor post_floor;
        };
    p_compiled =
      lazy
        (Convex.Compiled.make ~objective:power_objective
           ~constraints:
             (Array.concat
                [ pre_floor; [| Quad.affine total_f_coeffs 0.0 |]; post_floor ]));
    p_frontier_compiled =
      lazy
        (Convex.Compiled.make
           ~objective:(Quad.affine total_f_coeffs 0.0)
           ~constraints:(Array.append pre_floor post_floor));
    p_conic =
      lazy
        (Convex.Conic.of_barrier
           {
             Convex.Barrier.objective = power_objective;
             constraints =
               Array.concat
                 [ pre_floor; [| Quad.affine total_f_coeffs 0.0 |]; post_floor ];
           });
  }

let uniform_t0 machine tstart =
  Vec.create machine.Sim.Machine.n_nodes tstart

let prepare ~machine ~spec ~tstart =
  prepare_internal ~machine ~spec ~t0:(uniform_t0 machine tstart)

let prepare_with_profile ~machine ~spec ~t0 =
  prepare_internal ~machine ~spec ~t0

let instantiate p ~ftarget =
  let fmax = p.p_machine.Sim.Machine.fmax in
  if ftarget < 0.0 || ftarget > fmax then
    invalid_arg "Model.build: ftarget outside [0, fmax]";
  let floor_const = float_of_int p.p_layout.n_cores *. (ftarget /. fmax) in
  let floor = Quad.affine p.total_f_coeffs floor_const in
  {
    problem =
      {
        Convex.Barrier.objective = p.power_objective;
        constraints =
          Array.concat [ p.pre_floor; [| floor |]; p.post_floor ];
      };
    layout = p.p_layout;
    spec = p.p_spec;
    initial_temperatures = p.p_t0;
    ftarget;
    steps = p.p_steps;
    machine = p.p_machine;
    frontier_problem = p.p_frontier;
    compiled =
      lazy
        (Convex.Compiled.with_constant
           (Lazy.force p.p_compiled)
           ~index:(Array.length p.pre_floor) floor_const);
    frontier_compiled = p.p_frontier_compiled;
    conic =
      lazy
        (Convex.Conic.with_constraint_constant
           (Lazy.force p.p_conic)
           ~index:(Array.length p.pre_floor) floor_const);
  }

let frontier_of_prepared p =
  {
    problem = Lazy.force p.p_frontier;
    layout = p.p_layout;
    spec = p.p_spec;
    initial_temperatures = p.p_t0;
    ftarget = 0.0;
    steps = p.p_steps;
    machine = p.p_machine;
    frontier_problem = p.p_frontier;
    compiled = p.p_frontier_compiled;
    frontier_compiled = p.p_frontier_compiled;
    conic = lazy (Convex.Conic.of_barrier (Lazy.force p.p_frontier));
  }

let build ~machine ~spec ~tstart ~ftarget =
  instantiate (prepare ~machine ~spec ~tstart) ~ftarget

let build_frontier ~machine ~spec ~tstart =
  frontier_of_prepared (prepare ~machine ~spec ~tstart)

let build_with_profile ~machine ~spec ~t0 ~ftarget =
  instantiate (prepare_with_profile ~machine ~spec ~t0) ~ftarget

let build_frontier_with_profile ~machine ~spec ~t0 =
  frontier_of_prepared (prepare_with_profile ~machine ~spec ~t0)

let with_gradient_bounds layout x =
  (match layout.bounds_offset with
  | Some off ->
      x.(off) <- 1.5;
      x.(off + 1) <- 0.01
  | None -> ());
  x

let start_hint built =
  let layout = built.layout in
  let machine = built.machine in
  let core_fmax = machine.Sim.Machine.core_fmax in
  let x = Vec.zeros layout.dim in
  for j = 0 to layout.n_f - 1 do
    (* Per-core normalization: the same demand sits higher on a
       little core's [0, 1] scale (and may overflow its box, in which
       case the frontier fallback takes over).  On a single-class
       platform [core_fmax.(j) = fmax], reproducing the old shared
       hint bit for bit. *)
    let fm =
      match built.spec.Spec.variant with
      | Spec.Variable -> core_fmax.(j)
      | Spec.Uniform -> machine.Sim.Machine.fmax
    in
    let fhat = Float.min 1.0015 (built.ftarget /. fm +. 0.001) in
    x.(layout.f_offset + j) <- fhat;
    x.(layout.p_offset + j) <- Float.min 1.0045 ((fhat *. fhat) +. 0.001)
  done;
  with_gradient_bounds layout x

let trivial_start built =
  let layout = built.layout in
  let x = Vec.zeros layout.dim in
  for j = 0 to layout.n_f - 1 do
    x.(layout.f_offset + j) <- 1e-3;
    x.(layout.p_offset + j) <- 1e-3
  done;
  with_gradient_bounds layout x

type solution = {
  frequencies : Vec.t;
  core_powers : Vec.t;
  total_power : float;
  gradient_spread : float option;
  raw : Convex.Solve.solution;
}

type outcome = Feasible of solution | Infeasible

let expand built per_var =
  (* Uniform solutions carry one value for all cores. *)
  match built.spec.Spec.variant with
  | Spec.Variable -> Vec.copy per_var
  | Spec.Uniform -> Vec.create built.layout.n_cores per_var.(0)

let solution_of_x built (raw : Convex.Solve.solution) =
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
  }

(* Total frequency in units of the chip reference [fref], matching
   [total_f_coeffs]: weight [core_fmax.(j) /. fref] per normalized
   variable.  On a single-class platform the weight is exactly 1.0 and
   [1.0 *. x] is bitwise [x], so the accumulated sum is unchanged. *)
let total_fhat built x =
  let layout = built.layout in
  match built.spec.Spec.variant with
  | Spec.Variable ->
      let core_fmax = built.machine.Sim.Machine.core_fmax in
      let fref = built.machine.Sim.Machine.fmax in
      let acc = ref 0.0 in
      for j = 0 to layout.n_f - 1 do
        acc := !acc +. (core_fmax.(j) /. fref *. x.(layout.f_offset + j))
      done;
      !acc
  | Spec.Uniform ->
      float_of_int layout.n_cores *. x.(layout.f_offset)

let add_stats stats_into s =
  match stats_into with
  | Some acc -> acc := Convex.Barrier.stats_add !acc s
  | None -> ()

(* Solve [built.problem] directly (no phase I) with the selected
   backend; the compiled form is forced on first use and shared by
   every solve of the same instance. *)
let barrier_solve ?options ?stop_early ~backend built x0 =
  match backend with
  | `Compiled ->
      Convex.Barrier.solve_compiled ?options ?stop_early
        (Lazy.force built.compiled) x0
  | `Reference ->
      Convex.Barrier.solve ?options ~backend:`Reference ?stop_early
        built.problem x0

let solve_frontier ?options ?(backend = `Compiled) ?stats_into built =
  let start = trivial_start built in
  if not (Convex.Barrier.is_strictly_feasible built.problem start) then
    (* Even (near-)zero frequencies overheat: the start temperature is
       already out of the envelope. *)
    Infeasible
  else
    let r = barrier_solve ?options ~backend built start in
    add_stats stats_into r.Convex.Barrier.stats;
    let raw =
      {
        Convex.Solve.x = r.Convex.Barrier.x;
        objective_value = r.Convex.Barrier.objective_value;
        dual = r.Convex.Barrier.dual;
        gap = r.Convex.Barrier.gap;
        kkt =
          lazy
            (Convex.Kkt.residuals built.problem r.Convex.Barrier.x
               r.Convex.Barrier.dual);
        outer_iterations = r.Convex.Barrier.outer_iterations;
        newton_iterations = r.Convex.Barrier.newton_iterations;
        stats = r.Convex.Barrier.stats;
      }
    in
    Feasible (solution_of_x built raw)

(* Structural phase I: instead of the generic auxiliary problem (whose
   centering is fragile on thousands of near-parallel rows), maximize
   the total frequency under the same envelope, stopping as soon as
   the throughput floor is strictly cleared.  A frontier iterate that
   clears the floor is strictly feasible for the power problem.

   [start] warm-starts the climb: barrier iterates are strictly
   interior, so the previous column's optimum — which already sits at
   its own (lower) floor — is strictly feasible for the floor-free
   frontier problem, and the climb only has to cover the gap between
   consecutive floors instead of starting from zero frequency.  The
   warm point is first pulled a quarter of the way toward the
   well-centered trivial start: a neighbouring optimum hugs its
   binding wall, and centering the log barrier from a near-boundary
   point costs many damped Newton steps — more than the shortcut
   saves.  A convex combination of strictly feasible points is
   strictly feasible, so the blend keeps the warm information while
   restoring interior margin. *)
let frontier_barrier_solve ?options ?stop_early ~backend built x0 =
  match backend with
  | `Compiled ->
      Convex.Barrier.solve_compiled ?options ?stop_early
        (Lazy.force built.frontier_compiled) x0
  | `Reference ->
      Convex.Barrier.solve ?options ~backend:`Reference ?stop_early
        (Lazy.force built.frontier_problem) x0

let feasible_start_via_frontier ?options ?(backend = `Compiled) ?stats_into
    ?start built =
  let needed =
    float_of_int built.layout.n_cores *. built.ftarget
    /. built.machine.Sim.Machine.fmax
  in
  let problem = Lazy.force built.frontier_problem in
  let feasible x = Convex.Barrier.is_strictly_feasible problem x in
  let from_trivial () =
    let triv = trivial_start built in
    if feasible triv then Some triv else None
  in
  let x0 =
    match start with
    | Some x when Vec.dim x = built.layout.dim ->
        let triv = trivial_start built in
        let blend = Vec.add (Vec.scale 0.75 x) (Vec.scale 0.25 triv) in
        if feasible blend then Some blend
        else if feasible x then Some x
        else from_trivial ()
    | Some _ | None -> from_trivial ()
  in
  match x0 with
  | None -> None
  | Some x0 ->
      let stop_early x = total_fhat built x > needed +. 1e-7 in
      let r = frontier_barrier_solve ?options ~stop_early ~backend built x0 in
      add_stats stats_into r.Convex.Barrier.stats;
      if total_fhat built r.Convex.Barrier.x > needed then
        Some r.Convex.Barrier.x
      else None

let solve_barrier ?options ?(backend = `Compiled) ?stats_into ?start built =
  let strictly_ok x =
    Vec.dim x = built.layout.dim
    && Convex.Barrier.is_strictly_feasible built.problem x
  in
  let chosen =
    match start with
    | Some s when strictly_ok s -> Some s
    | Some _ | None ->
        let hint = start_hint built in
        if strictly_ok hint then Some hint
        else feasible_start_via_frontier ?options ~backend ?stats_into ?start
            built
  in
  match chosen with
  | None -> Infeasible
  | Some s -> (
      let compiled =
        match backend with
        | `Compiled -> Some (Lazy.force built.compiled)
        | `Reference -> None
      in
      match
        Convex.Solve.solve ?options ~backend ?compiled ?stats_into ~start:s
          built.problem
      with
      | Convex.Solve.Optimal raw -> Feasible (solution_of_x built raw)
      | Convex.Solve.Infeasible _ -> Infeasible)

(* Conic path: no start hint, no frontier climb — the homogeneous
   embedding starts cold (or from a primal-only warm seed) and an
   infeasible cell terminates with a primal-infeasibility certificate
   instead of a failed climb.  A dual-infeasibility certificate cannot
   occur for a well-posed cell (the objective is bounded below on the
   box), and [Unknown] means the iterate stalled before any
   certificate: both fall back to the reference barrier path rather
   than guessing. *)
let raw_of_conic built t (s : Convex.Conic.solution) =
  let dual = Convex.Conic.constraint_duals t s in
  {
    Convex.Solve.x = s.Convex.Conic.x;
    objective_value = s.Convex.Conic.objective_value;
    dual;
    gap = s.Convex.Conic.gap;
    kkt = lazy (Convex.Kkt.residuals built.problem s.Convex.Conic.x dual);
    outer_iterations = s.Convex.Conic.iterations;
    newton_iterations = s.Convex.Conic.iterations;
    stats = Convex.Barrier.stats_zero;
  }

let solve_conic ?conic_options ?conic_stats_into ?conic_ws ?start ?start_dual
    built =
  let t = Lazy.force built.conic in
  let options =
    match conic_options with
    | Some o -> o
    | None ->
        {
          Convex.Conic.default_options with
          Convex.Conic.kkt = `Blocks (conic_blocks built.layout);
        }
  in
  let warm =
    match start with
    | Some x when Vec.dim x = built.layout.dim -> Some x
    | Some _ | None -> None
  in
  let warm_dual = match warm with Some _ -> start_dual | None -> None in
  match
    Convex.Conic.solve ~options ?warm ?warm_dual
      ?stats_into:conic_stats_into ?ws:conic_ws t
  with
  | Convex.Conic.Optimal s ->
      `Done (Feasible (solution_of_x built (raw_of_conic built t s)))
  | Convex.Conic.Primal_infeasible _ -> `Done Infeasible
  | Convex.Conic.Dual_infeasible _ | Convex.Conic.Unknown _ -> `Fallback

let solve ?(solver = `Conic) ?options ?conic_options ?backend ?stats_into
    ?conic_stats_into ?conic_ws ?start ?start_dual built =
  match solver with
  | `Barrier -> solve_barrier ?options ?backend ?stats_into ?start built
  | `Conic -> (
      match
        solve_conic ?conic_options ?conic_stats_into ?conic_ws ?start
          ?start_dual built
      with
      | `Done outcome -> outcome
      | `Fallback ->
          solve_barrier ?options ?backend ?stats_into ?start built)

let predicted_peak built frequencies =
  let machine = built.machine in
  if Vec.dim frequencies <> machine.Sim.Machine.n_cores then
    invalid_arg "Model.predicted_peak: need one frequency per core";
  let power =
    Sim.Machine.power_vector machine ~frequencies
      ~busy:(Array.make machine.Sim.Machine.n_cores true)
  in
  let thermal = machine.Sim.Machine.thermal in
  let t0 = built.initial_temperatures in
  let traj =
    Thermal.Transient.simulate thermal ~t0 ~steps:built.steps ~power:(fun _ ->
        power)
  in
  Thermal.Transient.peak traj
