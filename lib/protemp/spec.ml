type variant = Variable | Uniform

type gradient = { weight : float; cap : float option }

type t = {
  tmax : float;
  dfs_period : float;
  constraint_stride : int;
  variant : variant;
  gradient : gradient option;
}

let default =
  {
    tmax = 100.0;
    dfs_period = 0.1;
    constraint_stride = 1;
    variant = Variable;
    gradient = None;
  }

let with_gradient ?cap ?(weight = 1.0) spec =
  { spec with gradient = Some { weight; cap } }

(* Every check is phrased so that it fails on NaN: a comparison with
   NaN is false, so [not (x > 0.0)] rejects it where [x <= 0.0] would
   let it through to an all-infeasible model. *)
let positive x = Float.is_finite x && x > 0.0

let validate spec =
  if not (positive spec.tmax) then
    invalid_arg "Spec: tmax must be finite and positive";
  if not (positive spec.dfs_period) then
    invalid_arg "Spec: dfs_period must be finite and positive";
  if spec.constraint_stride < 1 then
    invalid_arg "Spec: constraint_stride must be at least 1";
  match spec.gradient with
  | None -> ()
  | Some g ->
      if not (Float.is_finite g.weight && g.weight >= 0.0) then
        invalid_arg "Spec: gradient weight must be finite and non-negative";
      (match g.cap with
      | Some c when not (positive c) ->
          invalid_arg "Spec: gradient cap must be finite and positive"
      | Some _ | None -> ())

(* Every caller's guard band: a sensor error of up to [margin] degrees
   cannot push a cell certified against [tmax - margin] past [tmax].
   Phrased so that a NaN margin fails; [tmax -. 0.0] is [tmax]. *)
let guard_band ~margin spec =
  if not (Float.is_finite margin && margin >= 0.0 && margin < spec.tmax) then
    invalid_arg
      "Spec.guard_band: margin must be finite, non-negative and below tmax";
  { spec with tmax = spec.tmax -. margin }
