open Linalg

type trajectory = { times : Vec.t; temperatures : Mat.t }

let simulate (d : Rc_model.discrete) ~t0 ~steps ~power =
  let n = Mat.rows d.Rc_model.step in
  if Vec.dim t0 <> n then invalid_arg "Transient.simulate: bad t0";
  if steps < 0 then invalid_arg "Transient.simulate: negative steps";
  let temperatures = Mat.zeros (steps + 1) n in
  (* Ping-pong between two buffers: the step loop allocates nothing. *)
  let stepper = Rc_model.compile_stepper d in
  let t = ref (Vec.copy t0) in
  let next = ref (Vec.zeros n) in
  for i = 0 to n - 1 do
    Mat.set temperatures 0 i t0.(i)
  done;
  for k = 1 to steps do
    Rc_model.stepper_step_into stepper !t (power (k - 1)) ~dst:!next;
    let tmp = !t in
    t := !next;
    next := tmp;
    for i = 0 to n - 1 do
      Mat.set temperatures k i !t.(i)
    done
  done;
  let times =
    Vec.init (steps + 1) (fun k -> float_of_int k *. d.Rc_model.dt)
  in
  { times; temperatures }

let simulate_const d ~t0 ~steps p = simulate d ~t0 ~steps ~power:(fun _ -> p)

let peak traj =
  let best = ref neg_infinity in
  for k = 0 to Mat.rows traj.temperatures - 1 do
    for i = 0 to Mat.cols traj.temperatures - 1 do
      best := Float.max !best (Mat.get traj.temperatures k i)
    done
  done;
  !best

let peak_const (d : Rc_model.discrete) ~t0 ~steps p =
  let n = Mat.rows d.Rc_model.step in
  if Vec.dim t0 <> n then invalid_arg "Transient.peak_const: bad t0";
  if steps < 0 then invalid_arg "Transient.peak_const: negative steps";
  (* {!simulate}'s steps in the same two buffers, and {!peak}'s running
     max in the same order (row [t0] first, then each step's nodes in
     index order), with no trajectory kept.  The power is constant, so
     its injection products are loaded once. *)
  let stepper = Rc_model.compile_stepper d in
  Rc_model.stepper_load_power stepper p;
  let best = ref neg_infinity in
  for i = 0 to n - 1 do
    best := Float.max !best t0.(i)
  done;
  let t = ref (Vec.copy t0) in
  let next = ref (Vec.zeros n) in
  for _ = 1 to steps do
    Rc_model.stepper_step_loaded_into stepper !t ~dst:!next;
    let tmp = !t in
    t := !next;
    next := tmp;
    let cur = !t in
    for i = 0 to n - 1 do
      best := Float.max !best cur.(i)
    done
  done;
  !best

let node_series traj i = Mat.col traj.temperatures i

(* --- exact integration ------------------------------------------- *)

(* Continuous dynamics: C dT/dt = -G_total T + L T_off + p + g_amb Ta,
   i.e. dT/dt = Ac T + u(p) with
   Ac = C^{-1} (lateral - diag(total conductance)) and
   u = C^{-1} (p + g_amb * Ta).
   Exact step: T(h) = e^{h Ac} T + h phi1(h Ac) u. *)
type propagator = {
  e : Mat.t;
  response : Mat.t;  (* h * phi1(h Ac) * C^{-1}: maps (p + g_amb Ta) *)
  drive : Vec.t;  (* response applied to the ambient forcing *)
  dt : float;
}

let exact_propagator model ~dt =
  if dt <= 0.0 then invalid_arg "Transient.exact_propagator: bad dt";
  let n = Rc_model.size model in
  let ac =
    Mat.init n n (fun i j ->
        let ci = Rc_model.capacitance model i in
        if i = j then begin
          let total = ref (Rc_model.ambient_conductance model i) in
          for k = 0 to n - 1 do
            if k <> i then total := !total +. Rc_model.conductance model i k
          done;
          -. !total /. ci
        end
        else Rc_model.conductance model i j /. ci)
  in
  let h_ac = Mat.scale dt ac in
  let e = Expm.expm h_ac in
  let phi = Expm.phi1 h_ac in
  (* response = dt * phi1(h Ac) * C^{-1} *)
  let response =
    Mat.init n n (fun i j ->
        dt *. Mat.get phi i j /. Rc_model.capacitance model j)
  in
  let ambient_forcing =
    Vec.init n (fun i ->
        Rc_model.ambient_conductance model i
        *. (Rc_model.params model).Rc_model.ambient)
  in
  { e; response; drive = Mat.mul_vec response ambient_forcing; dt }

let exact_step_into prop t p ~scratch ~dst =
  Mat.mul_vec_into prop.e t ~dst;
  Mat.mul_vec_into prop.response p ~dst:scratch;
  for i = 0 to Vec.dim dst - 1 do
    dst.(i) <- dst.(i) +. scratch.(i) +. prop.drive.(i)
  done

let exact_step prop t p =
  let n = Vec.dim prop.drive in
  let dst = Vec.zeros n in
  exact_step_into prop t p ~scratch:(Vec.zeros n) ~dst;
  dst

let exact_simulate prop ~t0 ~steps ~power =
  let n = Vec.dim t0 in
  if steps < 0 then invalid_arg "Transient.exact_simulate: negative steps";
  let temperatures = Mat.zeros (steps + 1) n in
  (* Same ping-pong scheme as {!simulate}: three fixed buffers,
     nothing allocated per step. *)
  let t = ref (Vec.copy t0) in
  let next = ref (Vec.zeros n) in
  let scratch = Vec.zeros n in
  for i = 0 to n - 1 do
    Mat.set temperatures 0 i t0.(i)
  done;
  for k = 1 to steps do
    exact_step_into prop !t (power (k - 1)) ~scratch ~dst:!next;
    let tmp = !t in
    t := !next;
    next := tmp;
    for i = 0 to n - 1 do
      Mat.set temperatures k i !t.(i)
    done
  done;
  let times = Vec.init (steps + 1) (fun k -> float_of_int k *. prop.dt) in
  { times; temperatures }
