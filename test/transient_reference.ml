(* The exact solution of the continuous RC network through the matrix
   exponential ({!Expm}): the ground truth the paper's explicit-Euler
   recurrence (Eq. 1, {!Thermal.Transient.simulate}) is checked
   against.  It reads only {!Thermal.Rc_model}'s exported accessors. *)

open Linalg
open Thermal

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
  if dt <= 0.0 then
    invalid_arg "Transient_reference.exact_propagator: bad dt";
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
  if steps < 0 then
    invalid_arg "Transient_reference.exact_simulate: negative steps";
  let temperatures = Mat.zeros (steps + 1) n in
  (* Same ping-pong scheme as {!Thermal.Transient.simulate}: three
     fixed buffers, nothing allocated per step. *)
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
  { Transient.times; temperatures }
