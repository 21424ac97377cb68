(* System identification of the paper's Eq. 1 coefficients from a
   temperature/power trace, by per-node least squares (QR): the route
   one would take against real sensor logs.  The product calibrates
   once, by {!Thermal.Calibrate.tune_vertical_conductance}; the tests
   use this fit to check that a simulated trace determines the
   discretized model it came from. *)

open Linalg

type fitted = {
  step : Mat.t;
  injection : Vec.t;
  drive : Vec.t;
  max_residual : float;
}

let fit_discrete ~temperatures ~powers =
  let samples = Mat.rows powers in
  let n = Mat.cols temperatures in
  if Mat.cols powers <> n then
    invalid_arg
      "Calibrate_reference.fit_discrete: power/temperature width mismatch";
  if Mat.rows temperatures <> samples + 1 then
    invalid_arg
      "Calibrate_reference.fit_discrete: need one more temperature row";
  if samples < n + 2 then
    invalid_arg
      "Calibrate_reference.fit_discrete: not enough samples";
  let step = Mat.zeros n n in
  let injection = Vec.zeros n in
  let drive = Vec.zeros n in
  let max_residual = ref 0.0 in
  (* One regression per node: unknowns are the node's row of A, its
     b_i, and its c_i. *)
  for i = 0 to n - 1 do
    let design =
      Mat.init samples (n + 2) (fun k j ->
          if j < n then Mat.get temperatures k j
          else if j = n then Mat.get powers k i
          else 1.0)
    in
    let target = Vec.init samples (fun k -> Mat.get temperatures (k + 1) i) in
    let coeffs = Qr.solve_least_squares design target in
    for j = 0 to n - 1 do
      Mat.set step i j coeffs.(j)
    done;
    injection.(i) <- coeffs.(n);
    drive.(i) <- coeffs.(n + 1);
    let residual = Qr.residual_norm design coeffs target in
    max_residual := Float.max !max_residual residual
  done;
  { step; injection; drive; max_residual = !max_residual }
