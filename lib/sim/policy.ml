open Linalg

type observation = {
  time : float;
  core_temperatures : Vec.t;
  max_core_temperature : float;
  required_frequency : float;
  core_fmax : Vec.t;
  utilizations : Vec.t;
  queue_length : int;
  queued_work : float;
}

type controller = { controller_name : string; decide : observation -> Vec.t }

type assignment = {
  assignment_name : string;
  choose :
    idle:bool array ->
    core_classes:int array ->
    core_temperatures:Vec.t ->
    int option;
}

(* [coldest] is listed in lint.manifest.  Every comparison in the mask
   scans below reads a [Vec.t] cell, so it compiles to a float compare
   on unboxed values; left polymorphic, [<] would become
   [caml_lessthan] over a boxed copy of every temperature it reads.
   Each scan walks the mask in ascending index order and keeps the
   first strict minimum, so
   ties and NaNs resolve exactly as the old fold over an ascending
   index list did. *)

let coldest ~(idle : bool array) ~(core_temperatures : Vec.t) =
  let best = ref (-1) in
  for k = 0 to Array.length idle - 1 do
    if
      Array.unsafe_get idle k
      && (!best < 0 || core_temperatures.(k) < core_temperatures.(!best))
    then best := k
  done;
  if !best < 0 then invalid_arg "Policy: no idle core";
  !best

let first_idle =
  {
    assignment_name = "first-idle";
    choose =
      (fun ~idle ~core_classes:_ ~core_temperatures:_ ->
        let k = ref 0 in
        let n = Array.length idle in
        while !k < n && not (Array.unsafe_get idle !k) do
          incr k
        done;
        if !k = n then invalid_arg "Policy.first_idle: no idle core";
        Some !k);
  }

let coolest_first =
  {
    assignment_name = "coolest-first";
    choose =
      (fun ~idle ~core_classes:_ ~core_temperatures ->
        Some (coldest ~idle ~core_temperatures));
  }

let cool_headroom ~threshold =
  {
    assignment_name = Printf.sprintf "cool-headroom@%.0fC" threshold;
    choose =
      (fun ~idle ~core_classes:_ ~core_temperatures ->
        let c = coldest ~idle ~core_temperatures in
        if core_temperatures.(c) < threshold then Some c else None);
  }

let clamp ~fmax f = Float.min fmax (Float.max 0.0 f)

let fixed_frequency ~fmax f =
  let f = clamp ~fmax f in
  {
    controller_name = Printf.sprintf "fixed-%.0fMHz" (f /. 1e6);
    decide = (fun obs -> Vec.create (Vec.dim obs.core_temperatures) f);
  }

let workload_following ~fmax =
  {
    controller_name = "no-tc";
    decide =
      (fun obs ->
        (* Per-core ceiling: on a homogeneous platform
           [Float.min fmax core_fmax.(c)] is [fmax] exactly, so this
           reproduces the old uniform clamp bit for bit. *)
        let core_fmax = obs.core_fmax in
        Vec.init
          (Vec.dim obs.core_temperatures)
          (fun c ->
            clamp ~fmax:(Float.min fmax core_fmax.(c)) obs.required_frequency));
  }

let integral_feedback ?(gain = 2e7) ?(setpoint = 100.0) () =
  if gain <= 0.0 then invalid_arg "Policy.integral_feedback: non-positive gain";
  (* The adjustable-gain integral law of Rao et al.: per core,
     accumulate [gain * (setpoint - T_c)] into a frequency state
     clamped to [[0, core_fmax]], and never run faster than the
     workload actually asks for.  Pure feedback — no table, no model
     — so it is cheap and platform-agnostic, but it can only react
     after the error appears (the contrast with Pro-Temp's
     feed-forward certification).  State is sized lazily from the
     first observation so one value works on any machine; each
     campaign cell builds a fresh instance. *)
  let state = ref [||] in
  {
    controller_name = Printf.sprintf "integral@%.0fC" setpoint;
    decide =
      (fun obs ->
        let n = Vec.dim obs.core_temperatures in
        if Vec.dim !state <> n then state := Vec.copy obs.core_fmax;
        let s = !state in
        Vec.init n (fun c ->
            let cap = obs.core_fmax.(c) in
            let next =
              s.(c) +. (gain *. (setpoint -. obs.core_temperatures.(c)))
            in
            let next = Float.min cap (Float.max 0.0 next) in
            s.(c) <- next;
            Float.min next (clamp ~fmax:cap obs.required_frequency)));
  }
