(* The Eq. 3 builder before the thermal-row filter, kept as the oracle
   for the filter's tests (the same role [Policy_reference] plays for
   the placement scans): it emits one thermal row for every node at
   every constrained step, whether or not the power box already
   implies it.  Everything else — layout, machine, window — is taken
   from {!Protemp.Model.build}, and the constraint order is the
   model's: power-law and box rows, the throughput floor, then the
   thermal and gradient rows. *)

open Linalg
open Convex

let f_box = 1.002
let p_box = 1.005

let stride_steps ~steps ~stride =
  let rec go k acc = if k > steps then acc else go (k + stride) (k :: acc) in
  let ks = go stride [] in
  if List.mem steps ks then ks else steps :: ks

(* Power-law and box rows (before the floor), and the thermal and
   gradient rows (after it), of [built]'s instance. *)
let rows (built : Protemp.Model.built) =
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

(* The unfiltered instance: [Model.build]'s, with every thermal row
   restored.  The floor row is the filtered build's own (it sits right
   after the power-law and box rows in both); the frontier fields,
   which only the barrier fallback reads, stay the filtered build's. *)
let build ~machine ~spec ~tstart ~ftarget =
  let built = Protemp.Model.build ~machine ~spec ~tstart ~ftarget in
  let pre, post = rows built in
  let floor = built.Protemp.Model.problem.Barrier.constraints.(Array.length pre) in
  let problem =
    {
      Barrier.objective = built.Protemp.Model.problem.Barrier.objective;
      constraints = Array.concat [ pre; [| floor |]; post ];
    }
  in
  {
    built with
    Protemp.Model.problem;
    compiled =
      lazy
        (Compiled.make ~objective:problem.Barrier.objective
           ~constraints:problem.Barrier.constraints);
    conic = lazy (Conic.of_barrier problem);
  }
