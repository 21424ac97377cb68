type cls = {
  class_name : string;
  fmax : float;
  pmax : float;
  exponent : float;
  idle_activity : float;
}

type t = { classes : cls array; assignment : int array }

(* Every guard is written so that NaN fails it too. *)
let positive x = Float.is_finite x && x > 0.0

let validate_cls c =
  if c.class_name = "" then invalid_arg "Platform: empty class name";
  if not (positive c.fmax) then
    invalid_arg "Platform: fmax must be finite and positive";
  if not (positive c.pmax) then
    invalid_arg "Platform: pmax must be finite and positive";
  if not (Float.is_finite c.exponent && c.exponent >= 1.0) then
    invalid_arg "Platform: power exponent must be finite and at least 1";
  if not (c.idle_activity >= 0.0 && c.idle_activity <= 1.0) then
    invalid_arg "Platform: idle_activity outside [0,1]"

let make ~classes ~assignment =
  if Array.length classes = 0 then invalid_arg "Platform.make: no classes";
  Array.iter validate_cls classes;
  if Array.length assignment = 0 then invalid_arg "Platform.make: no cores";
  Array.iter
    (fun k ->
      if k < 0 || k >= Array.length classes then
        invalid_arg "Platform.make: class index out of range")
    assignment;
  { classes = Array.copy classes; assignment = Array.copy assignment }

let homogeneous ?(idle_activity = 0.3) ~n_cores ~fmax ~pmax () =
  if n_cores < 1 then
    invalid_arg "Platform.homogeneous: need at least one core";
  make
    ~classes:
      [| { class_name = "core"; fmax; pmax; exponent = 2.0; idle_activity } |]
    ~assignment:(Array.make n_cores 0)

let n_cores t = Array.length t.assignment
let n_classes t = Array.length t.classes
let single_class t = Array.length t.classes = 1

let core_fmax t = Array.map (fun k -> t.classes.(k).fmax) t.assignment
let core_pmax t = Array.map (fun k -> t.classes.(k).pmax) t.assignment
let core_exponent t = Array.map (fun k -> t.classes.(k).exponent) t.assignment

let core_idle_activity t =
  Array.map (fun k -> t.classes.(k).idle_activity) t.assignment

let max_fmax t =
  Array.fold_left (fun acc k -> Float.max acc t.classes.(k).fmax) 0.0
    t.assignment
