(* The Eq. 3 builder before the thermal-row filter, the core-column
   recurrence and the direct conic rows, kept as the oracle for their
   tests (the same role [Policy_reference] plays for the placement
   scans): it states every constraint as a [Quad.t], forms the full
   matrix powers A^k with [Mat.matmul] and emits one thermal row for
   every node at every constrained step, whether or not the power box
   already implies it.  The layout, machine and window are taken from
   a {!Protemp.Model.built}, and the constraint order is the model's
   (see [Protemp.Model.floor_index]): power-law and box rows, the
   throughput floor, then the thermal and gradient rows.
   [Conic_reference.of_problem] packs what it builds into the rows the
   model writes itself. *)

open Linalg

let f_box = 1.002
let p_box = 1.005

(* The model's row filter, restated: with [~filter:true] the reference
   leaves out the same implied rows, so its thermal rows can be
   compared with the model's one for one. *)
let implied_margin = 1e-6

let box_implies_row ~tmax ~base q =
  let worst = ref base in
  Array.iter (fun c -> if c > 0.0 then worst := !worst +. (c *. p_box)) q;
  !worst < tmax *. (1.0 -. implied_margin)

let stride_steps ~steps ~stride =
  let rec go k acc = if k > steps then acc else go (k + stride) (k :: acc) in
  let ks = go stride [] in
  if List.mem steps ks then ks else steps :: ks

(* Power-law and box rows (before the floor), and the thermal and
   gradient rows (after it), of [built]'s instance; [filter] drops the
   thermal rows the power box implies. *)
let rows ~filter (built : Protemp.Model.built) =
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
  let base_traj =
    (Thermal.Transient.simulate thermal ~t0:built.Protemp.Model.initial_temperatures
       ~steps ~power:(fun _ -> machine.Sim.Machine.fixed_power))
      .Thermal.Transient.temperatures
  in
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
          if not (filter && box_implies_row ~tmax ~base q) then
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
   with [~filter:true], row for row the model's own instance. *)
let problem ?(filter = false) (built : Protemp.Model.built) =
  let pre, post = rows ~filter built in
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
let frontier ?(filter = false) (built : Protemp.Model.built) =
  let pre, post = rows ~filter built in
  {
    Quad.objective = Quad.affine (total_f_coeffs built) 0.0;
    constraints = Array.append pre post;
  }

let build ?filter ~machine ~spec ~tstart ~ftarget () =
  problem ?filter (Protemp.Model.build ~machine ~spec ~tstart ~ftarget)
