open Linalg

type params = {
  die_thickness : float;
  conductivity : float;
  volumetric_heat_capacity : float;
  vertical_conductance_per_area : float;
  ambient : float;
}

let default_params =
  {
    die_thickness = 0.5e-3;
    conductivity = 100.0;
    volumetric_heat_capacity = 1.75e6;
    vertical_conductance_per_area = 3.0e3;
    ambient = 27.0;
  }

type t = {
  fp : Floorplan.t;
  prm : params;
  lateral : Mat.t;  (* symmetric conductances, W/K *)
  g_amb : Vec.t;  (* vertical conductance to ambient per node *)
  cap : Vec.t;  (* heat capacity per node, J/K *)
}

let build ?(params = default_params) fp =
  let n = Floorplan.size fp in
  if n = 0 then invalid_arg "Rc_model.build: empty floorplan";
  let lateral = Mat.zeros n n in
  for i = 0 to n - 1 do
    let bi = Floorplan.block_of fp i in
    List.iter
      (fun (j, shared_len) ->
        let bj = Floorplan.block_of fp j in
        let dist = Floorplan.center_distance bi bj in
        (* Conduction through the die cross-section between the two
           block centers. *)
        let g =
          params.conductivity *. params.die_thickness *. shared_len /. dist
        in
        Mat.set lateral i j g)
      (Floorplan.neighbours fp i)
  done;
  (* Defensive symmetrization: shared_edge is symmetric so this is a
     no-op up to rounding. *)
  let lateral = Mat.symmetrize lateral in
  let g_amb =
    Vec.init n (fun i ->
        params.vertical_conductance_per_area
        *. Floorplan.area (Floorplan.block_of fp i))
  in
  let cap =
    Vec.init n (fun i ->
        params.volumetric_heat_capacity *. params.die_thickness
        *. Floorplan.area (Floorplan.block_of fp i))
  in
  { fp; prm = params; lateral; g_amb; cap }

let size m = Floorplan.size m.fp
let params m = m.prm
let conductance m i j = Mat.get m.lateral i j
let ambient_conductance m i = m.g_amb.(i)
let capacitance m i = m.cap.(i)

(* Conductance (Laplacian + ambient) matrix: G T = P + g_amb * T_amb at
   steady state. *)
let conductance_matrix m =
  let n = size m in
  Mat.init n n (fun i j ->
      if i = j then
        m.g_amb.(i) +. Vec.sum (Mat.row m.lateral i)
      else -.Mat.get m.lateral i j)

let steady_state m p =
  let n = size m in
  if Vec.dim p <> n then invalid_arg "Rc_model.steady_state: bad power vector";
  let g = conductance_matrix m in
  let rhs = Vec.init n (fun i -> p.(i) +. (m.g_amb.(i) *. m.prm.ambient)) in
  Lu.solve g rhs

type discrete = {
  step : Mat.t;
  injection : Vec.t;
  drive : Vec.t;
  dt : float;
  ambient : float;
}

let total_conductance m i = m.g_amb.(i) +. Vec.sum (Mat.row m.lateral i)

let max_monotone_dt m =
  let n = size m in
  let best = ref infinity in
  for i = 0 to n - 1 do
    best := Float.min !best (m.cap.(i) /. total_conductance m i)
  done;
  !best

let discretize m ~dt =
  (* Written so that NaN fails both guards too. *)
  if not (Float.is_finite dt && dt > 0.0) then
    invalid_arg "Rc_model.discretize: dt must be finite and positive";
  let limit = max_monotone_dt m in
  if not (dt <= limit) then
    invalid_arg
      (Printf.sprintf
         "Rc_model.discretize: dt=%g exceeds the monotone limit %g" dt limit);
  let n = size m in
  let step =
    Mat.init n n (fun i j ->
        let aij = dt *. Mat.get m.lateral i j /. m.cap.(i) in
        if i = j then 1.0 -. (dt *. total_conductance m i /. m.cap.(i))
        else aij)
  in
  let injection = Vec.init n (fun i -> dt /. m.cap.(i)) in
  let drive =
    Vec.init n (fun i -> dt *. m.g_amb.(i) /. m.cap.(i) *. m.prm.ambient)
  in
  { step; injection; drive; dt; ambient = m.prm.ambient }

let step_temperature d t p =
  let n = Mat.rows d.step in
  if Vec.dim t <> n || Vec.dim p <> n then
    invalid_arg "Rc_model.step_temperature: dimension mismatch";
  let dst = Mat.mul_vec d.step t in
  for i = 0 to n - 1 do
    dst.(i) <- dst.(i) +. (d.injection.(i) *. p.(i)) +. d.drive.(i)
  done;
  dst

type stepper = {
  n : int;
  row_start : int array;
  cols : int array;
  vals : float array;
  s_injection : float array;
  s_drive : float array;
  injp : float array;
      (* cached injection.(i) *. p.(i) for the last loaded power *)
}

let compile_stepper d =
  let n = Mat.rows d.step in
  let nnz = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      (* Bit-exact: the sparsity pattern must drop only true zeros. *)
      if not (Float.equal (Mat.get d.step i j) 0.0) then incr nnz
    done
  done;
  let row_start = Array.make (n + 1) 0 in
  let cols = Array.make (Stdlib.max 1 !nnz) 0 in
  let vals = Array.make (Stdlib.max 1 !nnz) 0.0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    row_start.(i) <- !k;
    (* Ascending column order within each row: the accumulation visits
       the surviving terms in the same order as the dense matvec, and
       the skipped products are exact zeros added to a nonnegative
       accumulator, so the result is bit-for-bit identical to
       [step_temperature]. *)
    for j = 0 to n - 1 do
      let a = Mat.get d.step i j in
      (* Bit-exact: the sparsity pattern must drop only true zeros. *)
      if not (Float.equal a 0.0) then begin
        cols.(!k) <- j;
        vals.(!k) <- a;
        incr k
      end
    done
  done;
  row_start.(n) <- !k;
  {
    n;
    row_start;
    cols;
    vals;
    s_injection = Vec.copy d.injection;
    s_drive = Vec.copy d.drive;
    injp = Array.make n 0.0;
  }

let stepper_load_power s p =
  if Vec.dim p <> s.n then
    invalid_arg "Rc_model.stepper_load_power: dimension mismatch";
  for i = 0 to s.n - 1 do
    Array.unsafe_set s.injp i
      (Array.unsafe_get s.s_injection i *. Array.unsafe_get p i)
  done

let stepper_reload_power_at s p idx =
  if Vec.dim p <> s.n then
    invalid_arg "Rc_model.stepper_reload_power_at: dimension mismatch";
  for k = 0 to Array.length idx - 1 do
    let i = Array.unsafe_get idx k in
    s.injp.(i) <- s.s_injection.(i) *. p.(i)
  done

let stepper_step_loaded_into s t ~dst =
  if Vec.dim t <> s.n || Vec.dim dst <> s.n then
    invalid_arg "Rc_model.stepper_step_loaded_into: dimension mismatch";
  let row_start = s.row_start
  and cols = s.cols
  and vals = s.vals
  and injp = s.injp
  and drive = s.s_drive in
  for i = 0 to s.n - 1 do
    let acc = ref 0.0 in
    for k = Array.unsafe_get row_start i to Array.unsafe_get row_start (i + 1) - 1 do
      acc :=
        !acc
        +. Array.unsafe_get vals k
           *. Array.unsafe_get t (Array.unsafe_get cols k)
    done;
    (* Same association as [step_temperature]:
       (acc + injection*p) + drive, with the product precomputed by
       {!stepper_load_power} — bit-identical. *)
    Array.unsafe_set dst i
      (!acc +. Array.unsafe_get injp i +. Array.unsafe_get drive i)
  done

let stepper_step_into s t p ~dst =
  if Vec.dim t <> s.n || Vec.dim p <> s.n || Vec.dim dst <> s.n then
    invalid_arg "Rc_model.stepper_step_into: dimension mismatch";
  let row_start = s.row_start
  and cols = s.cols
  and vals = s.vals
  and injection = s.s_injection
  and drive = s.s_drive in
  for i = 0 to s.n - 1 do
    let acc = ref 0.0 in
    for k = Array.unsafe_get row_start i to Array.unsafe_get row_start (i + 1) - 1 do
      acc :=
        !acc
        +. Array.unsafe_get vals k
           *. Array.unsafe_get t (Array.unsafe_get cols k)
    done;
    Array.unsafe_set dst i
      (!acc +. (Array.unsafe_get injection i *. Array.unsafe_get p i)
      +. Array.unsafe_get drive i)
  done

let discrete_steady_state d p =
  let n = Mat.rows d.step in
  if Vec.dim p <> n then
    invalid_arg "Rc_model.discrete_steady_state: bad power vector";
  (* (I - A) t = b.p + c *)
  let i_minus_a = Mat.sub (Mat.identity n) d.step in
  let rhs = Vec.init n (fun i -> (d.injection.(i) *. p.(i)) +. d.drive.(i)) in
  Lu.solve i_minus_a rhs
