open Linalg

let peak_steady params floorplan power =
  let model = Rc_model.build ~params floorplan in
  Vec.max (Rc_model.steady_state model power)

let tune_vertical_conductance ~params ~floorplan ~power target_peak =
  let with_g g = { params with Rc_model.vertical_conductance_per_area = g } in
  let peak g = peak_steady (with_g g) floorplan power in
  (* Peak temperature decreases monotonically in the conductance; the
     bisection runs on [1e2, 1e6] W/(K m^2) and stops within 0.01
     degrees of the target. *)
  let lo = 1e2 and hi = 1e6 in
  if peak lo < target_peak then
    invalid_arg "Calibrate.tune_vertical_conductance: target too hot";
  if peak hi > target_peak then
    invalid_arg "Calibrate.tune_vertical_conductance: target too cold";
  let rec go lo hi =
    let mid = sqrt (lo *. hi) in
    let t = peak mid in
    if Float.abs (t -. target_peak) <= 1e-2 then with_g mid
    else if t > target_peak then go mid hi
    else go lo mid
  in
  go lo hi
