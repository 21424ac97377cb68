open Linalg

type window_response = {
  steps : int;
  stride : int;
  ks : int array;
  sums : float array;
}

type slot = ..
type cache = slot list Atomic.t

type t = {
  thermal : Thermal.Rc_model.discrete;
  n_nodes : int;
  n_cores : int;
  core_nodes : int array;
  fixed_power : Vec.t;
  platform : Platform.t;
  fmax : float;
  core_fmax : float array;
  core_pmax : float array;
  core_exponent : float array;
  core_idle : float array;
  cache : cache;
}

let make_platform ~thermal ~core_nodes ~fixed_power ~platform () =
  let n_nodes = Mat.rows thermal.Thermal.Rc_model.step in
  if Vec.dim fixed_power <> n_nodes then
    invalid_arg "Machine.make: fixed_power length mismatch";
  if Array.length core_nodes = 0 then
    invalid_arg "Machine.make: no core nodes";
  Array.iter
    (fun i ->
      if i < 0 || i >= n_nodes then
        invalid_arg "Machine.make: core node out of range")
    core_nodes;
  if Platform.n_cores platform <> Array.length core_nodes then
    invalid_arg "Machine.make: platform assigns a different core count";
  {
    thermal;
    n_nodes;
    n_cores = Array.length core_nodes;
    core_nodes;
    fixed_power = Vec.copy fixed_power;
    platform;
    fmax = Platform.max_fmax platform;
    core_fmax = Platform.core_fmax platform;
    core_pmax = Platform.core_pmax platform;
    core_exponent = Platform.core_exponent platform;
    core_idle = Platform.core_idle_activity platform;
    cache = Atomic.make [];
  }

let make ?(idle_activity = 0.3) ~thermal ~core_nodes ~fixed_power ~fmax
    ~core_pmax () =
  (* Written so that NaN fails every guard too. *)
  if not (Float.is_finite fmax && fmax > 0.0) then
    invalid_arg "Machine.make: fmax must be finite and positive";
  if not (Float.is_finite core_pmax && core_pmax > 0.0) then
    invalid_arg "Machine.make: core_pmax must be finite and positive";
  if not (idle_activity >= 0.0 && idle_activity <= 1.0) then
    invalid_arg "Machine.make: idle_activity outside [0,1]";
  if Array.length core_nodes = 0 then
    invalid_arg "Machine.make: no core nodes";
  make_platform ~thermal ~core_nodes ~fixed_power
    ~platform:
      (Platform.homogeneous ~idle_activity
         ~n_cores:(Array.length core_nodes)
         ~fmax ~pmax:core_pmax ())
    ()

let niagara () =
  let fp = Thermal.Niagara.floorplan () in
  let model = Thermal.Niagara.model () in
  let thermal = Thermal.Rc_model.discretize model ~dt:Thermal.Niagara.dt in
  make ~thermal
    ~core_nodes:(Thermal.Niagara.core_nodes fp)
    ~fixed_power:(Thermal.Niagara.fixed_power fp)
    ~fmax:Thermal.Niagara.fmax ~core_pmax:Thermal.Niagara.core_pmax ()

let biglittle () =
  let fp = Thermal.Biglittle.floorplan () in
  let model = Thermal.Biglittle.model () in
  let thermal = Thermal.Rc_model.discretize model ~dt:Thermal.Biglittle.dt in
  let classes =
    Array.map
      (fun (c : Thermal.Biglittle.core_class) ->
        {
          Platform.class_name = c.Thermal.Biglittle.class_name;
          fmax = c.Thermal.Biglittle.fmax;
          pmax = c.Thermal.Biglittle.pmax;
          exponent = c.Thermal.Biglittle.exponent;
          idle_activity = c.Thermal.Biglittle.idle_activity;
        })
      (Thermal.Biglittle.classes ())
  in
  let platform =
    Platform.make ~classes ~assignment:(Thermal.Biglittle.class_assignment ())
  in
  make_platform ~thermal
    ~core_nodes:(Thermal.Biglittle.core_nodes fp)
    ~fixed_power:(Thermal.Biglittle.fixed_power fp)
    ~platform ()

let core_power m ~core ~frequency ~busy =
  if core < 0 || core >= m.n_cores then
    invalid_arg "Machine.core_power: core out of range";
  let f = Float.max 0.0 frequency in
  let r = f /. m.core_fmax.(core) in
  let e = m.core_exponent.(core) in
  (* Bit-exact: the quadratic case must associate exactly as the
     homogeneous [pmax *. (f /. fmax) *. (f /. fmax)] did. *)
  let dynamic =
    if Float.equal e 2.0 then m.core_pmax.(core) *. r *. r
    else m.core_pmax.(core) *. (r ** e)
  in
  if busy then dynamic else m.core_idle.(core) *. dynamic

let power_vector m ~frequencies ~busy =
  if Vec.dim frequencies <> m.n_cores then
    invalid_arg "Machine.power_vector: frequency vector length mismatch";
  if Array.length busy <> m.n_cores then
    invalid_arg "Machine.power_vector: busy array length mismatch";
  let p = Vec.copy m.fixed_power in
  Array.iteri
    (fun c node ->
      p.(node) <- core_power m ~core:c ~frequency:frequencies.(c) ~busy:busy.(c))
    m.core_nodes;
  p

let refresh_core_power m ~frequencies ~busy ~dst =
  if Vec.dim frequencies <> m.n_cores then
    invalid_arg "Machine.refresh_core_power: frequency vector length mismatch";
  if Array.length busy <> m.n_cores then
    invalid_arg "Machine.refresh_core_power: busy array length mismatch";
  if Vec.dim dst <> m.n_nodes then
    invalid_arg "Machine.refresh_core_power: destination length mismatch";
  let core_fmax = m.core_fmax and core_pmax = m.core_pmax in
  let core_exponent = m.core_exponent and core_idle = m.core_idle in
  let core_nodes = m.core_nodes in
  for c = 0 to m.n_cores - 1 do
    (* Inlined [core_power]: same arithmetic, but no boxed calls in
       the step loop.  On a single-class quadratic platform every
       per-core read equals the old scalar field, and
       [pmax *. r *. r] left-associates exactly as
       [pmax *. (f /. fmax) *. (f /. fmax)] did, so the produced
       powers are bit-identical to the homogeneous path. *)
    let f = Array.unsafe_get frequencies c in
    let f = if f < 0.0 then 0.0 else f in
    let r = f /. Array.unsafe_get core_fmax c in
    let e = Array.unsafe_get core_exponent c in
    let dynamic =
      if Float.equal e 2.0 then Array.unsafe_get core_pmax c *. r *. r
      else Array.unsafe_get core_pmax c *. (r ** e)
    in
    Array.unsafe_set dst
      (Array.unsafe_get core_nodes c)
      (if Array.unsafe_get busy c then dynamic
       else Array.unsafe_get core_idle c *. dynamic)
  done

let power_vector_into m ~frequencies ~busy ~dst =
  if Vec.dim dst <> m.n_nodes then
    invalid_arg "Machine.power_vector_into: destination length mismatch";
  Array.blit m.fixed_power 0 dst 0 m.n_nodes;
  refresh_core_power m ~frequencies ~busy ~dst

let core_temperatures m t =
  if Vec.dim t <> m.n_nodes then
    invalid_arg "Machine.core_temperatures: temperature length mismatch";
  Array.map (fun node -> t.(node)) m.core_nodes

let core_temperatures_into m t ~dst =
  if Vec.dim t <> m.n_nodes then
    invalid_arg "Machine.core_temperatures_into: temperature length mismatch";
  if Vec.dim dst <> m.n_cores then
    invalid_arg "Machine.core_temperatures_into: destination length mismatch";
  let core_nodes = m.core_nodes in
  for c = 0 to m.n_cores - 1 do
    Array.unsafe_set dst c (Array.unsafe_get t (Array.unsafe_get core_nodes c))
  done

let window_steps m ~period =
  int_of_float (Float.round (period /. m.thermal.Thermal.Rc_model.dt))

(* The window response: the coefficient of core [j]'s power on node
   [i] at step [k] of a window is [S_k[i, core_j] b_j] with
   [S_k = sum_{l<k} A^l].  Only the core columns of [S_k] are ever
   read, so we carry those alone — [X_k], the core columns of [A^k],
   with [X_0] the unit columns at [core_nodes] — accumulate [S_k] step
   by step and keep a snapshot at each stride point. *)

(* One step of that recurrence: [s += x], then [y = A x], with [x],
   [y] and [s] holding [nc] columns row-major ([n] rows of [nc]) and
   [a] the row-major [n x n] step matrix.  Each entry of [y] sums its
   products over the inner index in ascending order from 0.0, skipping
   exact zeros of [a] — [Mat.matmul]'s order — so [s] and [y] are
   bit-identical to the core columns of [S_k] and [A^k] computed with
   full matrix products. *)
let step_core_columns ~a ~n ~nc ~x ~y ~s =
  for idx = 0 to (n * nc) - 1 do
    s.(idx) <- s.(idx) +. x.(idx)
  done;
  for i = 0 to n - 1 do
    let row = i * nc in
    for j = 0 to nc - 1 do
      y.(row + j) <- 0.0
    done;
    for k = 0 to n - 1 do
      let aik = a.((i * n) + k) in
      (* lint: float-equality exact-zero skip, Mat.matmul's order *)
      if aik <> 0.0 then begin
        let src = k * nc in
        for j = 0 to nc - 1 do
          y.(row + j) <- y.(row + j) +. (aik *. x.(src + j))
        done
      end
    done
  done

(* Every [stride]-th step of the window, ascending, and always its
   last step. *)
let stride_points ~steps ~stride =
  let on_grid = steps / stride in
  let n = if on_grid * stride = steps then on_grid else on_grid + 1 in
  Array.init n (fun i -> if i < on_grid then (i + 1) * stride else steps)

let compute_response m ~steps ~stride =
  let n = m.n_nodes and nc = m.n_cores in
  let width = n * nc in
  let ks = stride_points ~steps ~stride in
  let sums = Array.make (Array.length ks * width) 0.0 in
  let a = Mat.data m.thermal.Thermal.Rc_model.step in
  let s = Array.make width 0.0 in
  let x = ref (Array.make width 0.0) in
  let y = ref (Array.make width 0.0) in
  Array.iteri (fun j cn -> !x.((cn * nc) + j) <- 1.0) m.core_nodes;
  let next = ref 0 in
  for k = 1 to steps do
    (* S_k = S_{k-1} + A^{k-1}, then A^k = A A^{k-1}. *)
    step_core_columns ~a ~n ~nc ~x:!x ~y:!y ~s;
    let prev = !x in
    x := !y;
    y := prev;
    if ks.(!next) = k then begin
      Array.blit s 0 sums (!next * width) width;
      (* The last stride point is [steps], so [next] runs past the
         end only as the loop ends. *)
      incr next
    end
  done;
  { steps; stride; ks; sums }

(* Computed without a lock and published with [compare_and_set]: a
   domain that loses the race finds the winner's slot in the list and
   drops its own, which is identical bit for bit, so what a caller
   reads never depends on which domain computed it. *)
let cached m ~find ~compute =
  match List.find_map find (Atomic.get m.cache) with
  | Some v -> v
  | None ->
      let fresh = compute () in
      let value =
        match find fresh with
        | Some v -> v
        | None -> invalid_arg "Machine.cached: the new slot does not match"
      in
      let rec publish () =
        let seen = Atomic.get m.cache in
        match List.find_map find seen with
        | Some v -> v
        | None ->
            if Atomic.compare_and_set m.cache seen (fresh :: seen) then value
            else publish ()
      in
      publish ()

let cached_slots m = List.length (Atomic.get m.cache)

let window_response m ~steps ~stride =
  if steps < 1 then invalid_arg "Machine.window_response: steps below 1";
  if stride < 1 then invalid_arg "Machine.window_response: stride below 1";
  compute_response m ~steps ~stride
