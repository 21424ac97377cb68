(* The Eq. 3 builder before the thermal-row filter, the core-column
   recurrence and the direct conic rows, kept as the oracle for their
   tests (the same role [Policy_reference] plays for the placement
   scans): it states every constraint as a [Quad.t], forms the full
   matrix powers A^k with [Mat.matmul] and emits one thermal row for
   every node at every constrained step, whether or not the power box
   already implies it.  The layout, machine and window are taken from
   a {!Protemp.Model.built}, and the constraint order is the model's
   (see [Protemp.Model.floor_index]): power-law and box rows, the
   throughput floor, then the thermal and gradient rows.  A row's
   constant comes from a base trajectory stepped from the start
   profile, or, as the model writes it for a uniform start, affine in
   the start ([base]).  [Conic_reference.of_problem] packs what it
   builds into the rows the model writes itself. *)

open Linalg

let f_box = 1.002
let p_box = 1.005

(* The model's row filter, restated: with [~filter:true] the reference
   leaves out the same implied rows, so its thermal rows can be
   compared with the model's one for one.  A row with coefficients [q]
   is implied when its base lies below its threshold
   [tmax (1 - implied_margin) - sum_j max(q_j, 0) p_box], the positive
   terms summed in column order. *)
let implied_margin = 1e-6

let threshold ~tmax q =
  let lift = ref 0.0 in
  Array.iter (fun c -> if c > 0.0 then lift := !lift +. (c *. p_box)) q;
  (tmax *. (1.0 -. implied_margin)) -. !lift

let stride_steps ~steps ~stride =
  let rec go k acc = if k > steps then acc else go (k + stride) (k :: acc) in
  let ks = go stride [] in
  if List.mem steps ks then ks else steps :: ks

(* The two ways the model writes a base trajectory (the window with
   zero core power, the machine's fixed power elsewhere), one row per
   step [0 .. steps]:
   - [`Stepped]: stepped from the start profile ([Transient.simulate]),
     as a profile start's prepare does;
   - [`Affine]: [tstart a_k + c_k] for a uniform start [tstart], as
     every other prepare does, with [a_k] the recurrence with no drive
     and no power from ones and [c_k] the base stepped from zeros. *)
type base = [ `Stepped | `Affine ]

(* [(a, c)]: the trajectories [a_k] and [c_k] of [built]'s machine. *)
let affine_parts (built : Protemp.Model.built) =
  let machine = built.Protemp.Model.machine in
  let thermal = machine.Sim.Machine.thermal in
  let n = machine.Sim.Machine.n_nodes and steps = built.Protemp.Model.steps in
  let traj d ~t0 ~power =
    (Thermal.Transient.simulate d ~t0 ~steps ~power:(fun _ -> power))
      .Thermal.Transient.temperatures
  in
  ( traj
      { thermal with Thermal.Rc_model.drive = Vec.zeros n }
      ~t0:(Vec.create n 1.0) ~power:(Vec.zeros n),
    traj thermal ~t0:(Vec.zeros n) ~power:machine.Sim.Machine.fixed_power )

(* The uniform start of [built]; [Invalid_argument] for a profile whose
   entries differ. *)
let uniform_start (built : Protemp.Model.built) =
  let t0 = built.Protemp.Model.initial_temperatures in
  if not (Array.for_all (fun t -> Float.equal t t0.(0)) t0) then
    invalid_arg "Model_reference: an affine base needs a uniform start";
  t0.(0)

let base_trajectory ~(base : base) (built : Protemp.Model.built) =
  let machine = built.Protemp.Model.machine in
  match base with
  | `Stepped ->
      (Thermal.Transient.simulate machine.Sim.Machine.thermal
         ~t0:built.Protemp.Model.initial_temperatures
         ~steps:built.Protemp.Model.steps
         ~power:(fun _ -> machine.Sim.Machine.fixed_power))
        .Thermal.Transient.temperatures
  | `Affine ->
      let tstart = uniform_start built in
      let a, c = affine_parts built in
      Mat.init (Mat.rows a) (Mat.cols a) (fun k i ->
          (tstart *. Mat.get a k i) +. Mat.get c k i)

(* [gamma_n = n u / (1 - n u)], [u] the unit roundoff (Higham,
   Accuracy and Stability of Numerical Algorithms, 2nd ed., Sec. 3.1). *)
let gamma n =
  let nu = float_of_int n *. (epsilon_float /. 2.0) in
  nu /. (1.0 -. nu)

(* A bound on [|affine - stepped|] at every node, per step [k], for a
   uniform start [tstart]; in exact arithmetic the two are equal, as
   the step is linear.  One computed step of node [i] is an inner
   product of [m_i + 2] terms (its [m_i] nonzeros of [A] with [t], the
   injected power and the drive), so with [m] the largest [m_i + 2]
   it errs by at most [gamma_m (A |t| + |v|)_i], [v] the injection of
   the fixed power plus the drive.  [A] is nonnegative with
   [rho = |A|_inf] (1 up to the rounding of its entries), so the
   errors of [k] steps add up to at most
   [k g_k gamma_m (rho T + beta)], [g_k = max(1, rho)^k], [T] the
   largest [|t_l|_inf] of the steps taken and [beta = |v|_inf].  This
   bounds the stepped base ([T_s], [beta]), [a_k] ([T_a], no [v]) and
   [c_k] ([T_c], [beta]); forming [tstart a_k + c_k] adds
   [gamma_2 (|tstart| |a_k| + |c_k|)].  So

     |affine_k - stepped_k|
       <= k g_k gamma_m (rho T_s + beta + |tstart| rho T_a + rho T_c + beta)
          + gamma_2 (|tstart| T_a + T_c),

   of order [2 k gamma_m (|tstart| + max |c| + beta)].  Returns the
   bound per step, [0 .. steps]. *)
let base_bounds (built : Protemp.Model.built) =
  let machine = built.Protemp.Model.machine in
  let thermal = machine.Sim.Machine.thermal in
  let step = thermal.Thermal.Rc_model.step in
  let n = machine.Sim.Machine.n_nodes and steps = built.Protemp.Model.steps in
  let tstart = uniform_start built in
  let m = ref 0 and rho = ref 0.0 in
  for i = 0 to n - 1 do
    let nnz = ref 0 and sum = ref 0.0 in
    for j = 0 to n - 1 do
      let a = Mat.get step i j in
      if a < 0.0 then
        invalid_arg "Model_reference.base_bounds: A has a negative entry";
      if a <> 0.0 then incr nnz;
      sum := !sum +. a
    done;
    m := max !m (!nnz + 2);
    rho := Float.max !rho !sum
  done;
  let beta = ref 0.0 in
  for i = 0 to n - 1 do
    beta :=
      Float.max !beta
        (Float.abs
           (thermal.Thermal.Rc_model.injection.(i)
           *. machine.Sim.Machine.fixed_power.(i))
        +. Float.abs thermal.Thermal.Rc_model.drive.(i))
  done;
  let a, c = affine_parts built and s = base_trajectory ~base:`Stepped built in
  let norm traj k =
    let r = ref 0.0 in
    for i = 0 to n - 1 do
      r := Float.max !r (Float.abs (Mat.get traj k i))
    done;
    !r
  in
  let gm = gamma !m and g2 = gamma 2 in
  let t_s = ref 0.0 and t_a = ref 0.0 and t_c = ref 0.0 in
  Array.init (steps + 1) (fun k ->
      (* [T] over the steps taken so far, and the values at [k]. *)
      let at_k = g2 *. ((Float.abs tstart *. norm a k) +. norm c k) in
      let kf = float_of_int k in
      let growth = Float.pow (Float.max 1.0 !rho) kf in
      let bound =
        (kf *. growth *. gm
        *. ((!rho *. !t_s) +. !beta
           +. (Float.abs tstart *. !rho *. !t_a)
           +. (!rho *. !t_c) +. !beta))
        +. at_k
      in
      t_s := Float.max !t_s (norm s k);
      t_a := Float.max !t_a (norm a k);
      t_c := Float.max !t_c (norm c k);
      bound)

(* One thermal row as the filter saw it. *)
type thermal_row = {
  k : int;
  base : float;
  threshold : float;
  kept : bool;
}

(* Power-law and box rows (before the floor), and the thermal and
   gradient rows (after it), of [built]'s instance from the base
   trajectory [base]; [filter] drops the thermal rows the power box
   implies.  [report] receives every thermal row, kept or not, in row
   order. *)
let rows ?(report = ref []) ~filter ~base (built : Protemp.Model.built) =
  let machine = built.Protemp.Model.machine in
  let spec = built.Protemp.Model.spec in
  let layout = built.Protemp.Model.layout in
  let dim = layout.Protemp.Model.dim in
  let p_offset = layout.Protemp.Model.p_offset in
  let pmax = machine.Sim.Machine.core_pmax in
  let thermal = machine.Sim.Machine.thermal in
  let n_nodes = machine.Sim.Machine.n_nodes in
  let core_nodes = machine.Sim.Machine.core_nodes in
  let steps = built.Protemp.Model.steps in
  let pre = ref [] and post = ref [] in
  for j = 0 to layout.Protemp.Model.n_f - 1 do
    let f_var = Quad.linear_coord dim (layout.Protemp.Model.f_offset + j) 1.0 in
    let p_var = Quad.linear_coord dim (p_offset + j) 1.0 in
    pre :=
      Quad.add_constant p_var (-.p_box)
      :: Quad.scale (-1.0) p_var
      :: Quad.add_constant f_var (-.f_box)
      :: Quad.scale (-1.0) f_var
      :: Quad.add
           (Quad.square_of_affine (Quad.linear_part f_var) 0.0)
           (Quad.scale (-1.0) p_var)
      :: !pre
  done;
  let base_traj = base_trajectory ~base built in
  let ks =
    List.sort_uniq compare
      (stride_steps ~steps ~stride:spec.Protemp.Spec.constraint_stride)
  in
  let tmax = spec.Protemp.Spec.tmax in
  let b = thermal.Thermal.Rc_model.injection in
  let grad_rows = ref [] in
  let s_k = ref (Mat.zeros n_nodes n_nodes) in
  let a_pow = ref (Mat.identity n_nodes) in
  let next_ks = ref ks in
  for k = 1 to steps do
    Mat.add_into ~dst:!s_k !a_pow;
    a_pow := Mat.matmul thermal.Thermal.Rc_model.step !a_pow;
    match !next_ks with
    | k' :: rest when k' = k ->
        next_ks := rest;
        for node = 0 to n_nodes - 1 do
          let q = Vec.zeros dim in
          (match spec.Protemp.Spec.variant with
          | Protemp.Spec.Variable ->
              Array.iteri
                (fun j cn ->
                  q.(p_offset + j) <- Mat.get !s_k node cn *. b.(cn) *. pmax.(j))
                core_nodes
          | Protemp.Spec.Uniform ->
              let acc = ref 0.0 in
              Array.iter
                (fun cn -> acc := !acc +. (Mat.get !s_k node cn *. b.(cn)))
                core_nodes;
              q.(p_offset) <- !acc *. pmax.(0));
          let base = Mat.get base_traj k node in
          let threshold = threshold ~tmax q in
          let kept = not (filter && base < threshold) in
          report := { k; base; threshold; kept } :: !report;
          if kept then
            post :=
              Quad.affine (Vec.scale (1.0 /. tmax) q) ((base -. tmax) /. tmax)
              :: !post;
          if
            layout.Protemp.Model.bounds_offset <> None
            && Array.exists (fun cn -> cn = node) core_nodes
          then grad_rows := (q, base) :: !grad_rows
        done
    | _ :: _ | [] -> ()
  done;
  (match (layout.Protemp.Model.bounds_offset, spec.Protemp.Spec.gradient) with
  | Some off, Some g ->
      let u = off and l = off + 1 in
      List.iter
        (fun (q, base) ->
          let qu = Vec.scale (1.0 /. tmax) q in
          qu.(u) <- -1.0;
          post := Quad.affine qu (base /. tmax) :: !post;
          let ql = Vec.scale (-1.0 /. tmax) q in
          ql.(l) <- 1.0;
          post := Quad.affine ql (-.base /. tmax) :: !post)
        !grad_rows;
      post := Quad.linear_coord dim l (-1.0) :: !post;
      post := Quad.add_constant (Quad.linear_coord dim u 1.0) (-2.0) :: !post;
      let l_le_u = Vec.zeros dim in
      l_le_u.(l) <- 1.0;
      l_le_u.(u) <- -1.0;
      post := Quad.affine l_le_u 0.0 :: !post;
      (match g.Protemp.Spec.cap with
      | Some cap ->
          let spread = Vec.zeros dim in
          spread.(u) <- 1.0;
          spread.(l) <- -1.0;
          post := Quad.affine spread (-.cap /. tmax) :: !post
      | None -> ())
  | None, None -> ()
  | Some _, None | None, Some _ -> assert false);
  report := List.rev !report;
  (Array.of_list (List.rev !pre), Array.of_list (List.rev !post))

(* The throughput direction (the sum of the frequencies in units of
   the chip's fmax, negated) and the power objective of [built]. *)
let total_f_coeffs (built : Protemp.Model.built) =
  let layout = built.Protemp.Model.layout in
  let machine = built.Protemp.Model.machine in
  let q = Vec.zeros layout.Protemp.Model.dim in
  (match built.Protemp.Model.spec.Protemp.Spec.variant with
  | Protemp.Spec.Variable ->
      for j = 0 to layout.Protemp.Model.n_f - 1 do
        q.(layout.Protemp.Model.f_offset + j) <-
          -.(machine.Sim.Machine.core_fmax.(j) /. machine.Sim.Machine.fmax)
      done
  | Protemp.Spec.Uniform ->
      q.(layout.Protemp.Model.f_offset) <-
        -.float_of_int layout.Protemp.Model.n_cores);
  q

let power_objective (built : Protemp.Model.built) =
  let layout = built.Protemp.Model.layout in
  let spec = built.Protemp.Model.spec in
  let pmax = built.Protemp.Model.machine.Sim.Machine.core_pmax in
  let pref = Array.fold_left Float.max 0.0 pmax in
  let q = Vec.zeros layout.Protemp.Model.dim in
  for j = 0 to layout.Protemp.Model.n_p - 1 do
    q.(layout.Protemp.Model.p_offset + j) <-
      (match spec.Protemp.Spec.variant with
      | Protemp.Spec.Variable -> pmax.(j) /. pref
      | Protemp.Spec.Uniform -> float_of_int layout.Protemp.Model.n_cores)
  done;
  (match (layout.Protemp.Model.bounds_offset, spec.Protemp.Spec.gradient) with
  | Some off, Some g ->
      q.(off) <- g.Protemp.Spec.weight;
      q.(off + 1) <- -.g.Protemp.Spec.weight
  | None, _ | _, None -> ());
  Quad.affine q 0.0

(* The cell [built] ([Protemp.Model.build] or [instantiate]) stated
   from scratch: by default unfiltered, every thermal row restored;
   with [~filter:true], row for row the model's own instance when
   [base] is the model's ([`Affine] for a uniform start, [`Stepped]
   for a profile). *)
let problem ?report ?(filter = false) ?(base = `Stepped)
    (built : Protemp.Model.built) =
  let pre, post = rows ?report ~filter ~base built in
  let floor =
    Quad.affine (total_f_coeffs built)
      (float_of_int built.Protemp.Model.layout.Protemp.Model.n_cores
      *. (built.Protemp.Model.ftarget
         /. built.Protemp.Model.machine.Sim.Machine.fmax))
  in
  {
    Quad.objective = power_objective built;
    constraints = Array.concat [ pre; [| floor |]; post ];
  }

(* The frontier instance [built] ([Protemp.Model.build_frontier]):
   maximize the total frequency under the same rows, with no floor. *)
let frontier ?report ?(filter = false) ?(base = `Stepped)
    (built : Protemp.Model.built) =
  let pre, post = rows ?report ~filter ~base built in
  {
    Quad.objective = Quad.affine (total_f_coeffs built) 0.0;
    constraints = Array.append pre post;
  }

let build ?filter ~machine ~spec ~tstart ~ftarget () =
  problem ?filter (Protemp.Model.build ~machine ~spec ~tstart ~ftarget)
