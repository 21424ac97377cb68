open Linalg
open Thermal

type params = {
  die_thickness : float;
  die_conductivity : float;
  die_heat_capacity : float;
  spreader_thickness : float;
  spreader_conductivity : float;
  spreader_heat_capacity : float;
  interface_conductance_per_area : float;
  sink_thickness : float;
  sink_conductivity : float;
  sink_heat_capacity : float;
  convection_per_area : float;
  ambient : float;
}

let default_params =
  {
    die_thickness = 0.5e-3;
    die_conductivity = 100.0;
    die_heat_capacity = 1.75e6;
    spreader_thickness = 1.0e-3;
    spreader_conductivity = 400.0;
    spreader_heat_capacity = 3.55e6;
    interface_conductance_per_area = 3.0e4;
    sink_thickness = 6.9e-3;
    sink_conductivity = 240.0;
    sink_heat_capacity = 2.42e6;
    convection_per_area = 4.0e3;
    ambient = 27.0;
  }

type t = {
  fp : Floorplan.t;
  prm : params;
  n : int;  (* blocks *)
  g : Mat.t;  (* 3n x 3n conductance matrix (Laplacian + ambient) *)
  g_amb : Vec.t;  (* ambient conductance per node (sink layer only) *)
  cap : Vec.t;  (* heat capacity per node *)
}

let die_node _ i = i
let spreader_node m i = m.n + i
let sink_node m i = (2 * m.n) + i

(* Vertical conductance per unit area between two stacked layers:
   half-thickness resistance of each layer in series (plus the
   interface material between die and spreader). *)
let layer_half_resistance_per_area thickness conductivity =
  0.5 *. thickness /. conductivity

let die_spreader_g_per_area p =
  1.0
  /. (layer_half_resistance_per_area p.die_thickness p.die_conductivity
     +. (1.0 /. p.interface_conductance_per_area)
     +. layer_half_resistance_per_area p.spreader_thickness
          p.spreader_conductivity)

let spreader_sink_g_per_area p =
  1.0
  /. (layer_half_resistance_per_area p.spreader_thickness
        p.spreader_conductivity
     +. layer_half_resistance_per_area p.sink_thickness p.sink_conductivity)

let sink_ambient_g_per_area p =
  1.0
  /. (layer_half_resistance_per_area p.sink_thickness p.sink_conductivity
     +. (1.0 /. p.convection_per_area))

let effective_vertical_conductance_per_area p =
  1.0
  /. ((1.0 /. die_spreader_g_per_area p)
     +. (1.0 /. spreader_sink_g_per_area p)
     +. (1.0 /. sink_ambient_g_per_area p))

let build ?(params = default_params) fp =
  let n = Floorplan.size fp in
  if n = 0 then invalid_arg "Hotspot3l.build: empty floorplan";
  let total = 3 * n in
  let lateral = Mat.zeros total total in
  (* Lateral conduction in the die and spreader layers (the sink is
     treated as laterally well-mixed fins: we give it the spreader's
     adjacency with the sink conductivity). *)
  let add_lateral layer_offset conductivity thickness =
    for i = 0 to n - 1 do
      let bi = Floorplan.block_of fp i in
      List.iter
        (fun (j, shared_len) ->
          let bj = Floorplan.block_of fp j in
          let dist = Floorplan.center_distance bi bj in
          let g = conductivity *. thickness *. shared_len /. dist in
          Mat.set lateral (layer_offset + i) (layer_offset + j) g)
        (Floorplan.neighbours fp i)
    done
  in
  add_lateral 0 params.die_conductivity params.die_thickness;
  add_lateral n params.spreader_conductivity params.spreader_thickness;
  add_lateral (2 * n) params.sink_conductivity params.sink_thickness;
  (* Vertical conduction. *)
  for i = 0 to n - 1 do
    let a = Floorplan.area (Floorplan.block_of fp i) in
    let g_ds = die_spreader_g_per_area params *. a in
    let g_ss = spreader_sink_g_per_area params *. a in
    Mat.set lateral i (n + i) g_ds;
    Mat.set lateral (n + i) i g_ds;
    Mat.set lateral (n + i) ((2 * n) + i) g_ss;
    Mat.set lateral ((2 * n) + i) (n + i) g_ss
  done;
  let g_amb =
    Vec.init total (fun k ->
        if k >= 2 * n then
          sink_ambient_g_per_area params
          *. Floorplan.area (Floorplan.block_of fp (k - (2 * n)))
        else 0.0)
  in
  let cap =
    Vec.init total (fun k ->
        let block = Floorplan.block_of fp (k mod n) in
        let a = Floorplan.area block in
        if k < n then params.die_heat_capacity *. params.die_thickness *. a
        else if k < 2 * n then
          params.spreader_heat_capacity *. params.spreader_thickness *. a
        else params.sink_heat_capacity *. params.sink_thickness *. a)
  in
  let g =
    Mat.init total total (fun i j ->
        if i = j then g_amb.(i) +. Vec.sum (Mat.row lateral i)
        else -.Mat.get lateral i j)
  in
  { fp; prm = params; n; g; g_amb; cap }

let size m = 3 * m.n

let steady_state m p =
  if Vec.dim p <> m.n then invalid_arg "Hotspot3l.steady_state: bad power";
  let total = 3 * m.n in
  let rhs =
    Vec.init total (fun k ->
        let inject = if k < m.n then p.(k) else 0.0 in
        inject +. (m.g_amb.(k) *. m.prm.ambient))
  in
  Lu.solve m.g rhs

let die_steady_state m p = Vec.slice (steady_state m p) 0 m.n

let max_monotone_dt m =
  let total = 3 * m.n in
  let best = ref infinity in
  for i = 0 to total - 1 do
    best := Float.min !best (m.cap.(i) /. Mat.get m.g i i)
  done;
  !best

let step m ~dt state p =
  let total = 3 * m.n in
  if Vec.dim state <> total then invalid_arg "Hotspot3l.step: bad state";
  if Vec.dim p <> m.n then invalid_arg "Hotspot3l.step: bad power";
  if dt > max_monotone_dt m then
    invalid_arg "Hotspot3l.step: dt exceeds the monotone limit";
  (* dT/dt = C^{-1} (-G T + inject + g_amb Ta) *)
  let flow = Mat.mul_vec m.g state in
  Vec.init total (fun k ->
      let inject = if k < m.n then p.(k) else 0.0 in
      state.(k)
      +. dt
         *. (-.flow.(k) +. inject +. (m.g_amb.(k) *. m.prm.ambient))
         /. m.cap.(k))

(* Single isolated block: vertical chain die-spreader-sink-ambient is
   a 3-node tridiagonal system. *)
let vertical_chain_check p ~area ~power =
  let g_ds = die_spreader_g_per_area p *. area in
  let g_ss = spreader_sink_g_per_area p *. area in
  let g_sa = sink_ambient_g_per_area p *. area in
  let diag = [| g_ds; g_ds +. g_ss; g_ss +. g_sa |] in
  let lower = [| -.g_ds; -.g_ss |] in
  let upper = [| -.g_ds; -.g_ss |] in
  let rhs = [| power; 0.0; g_sa *. p.ambient |] in
  let x = Tridiag.solve ~lower ~diag ~upper ~rhs in
  x.(0)
