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
