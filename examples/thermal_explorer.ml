(* The thermal substrate on its own: the calibrated Niagara model's
   steady state with every core at full power, block by block,
   hottest first.

   Run with:  dune exec examples/thermal_explorer.exe *)

open Linalg

let () =
  print_endline "--- Niagara steady state at full load ---";
  let fp = Thermal.Niagara.floorplan () in
  let model = Thermal.Niagara.model () in
  let p_full =
    Thermal.Niagara.power_vector fp
      ~core_power:(Vec.create Thermal.Niagara.n_cores Thermal.Niagara.core_pmax)
  in
  let steady = Thermal.Rc_model.steady_state model p_full in
  let named =
    Array.mapi
      (fun i t -> ((Thermal.Floorplan.block_of fp i).Thermal.Floorplan.name, t))
      steady
  in
  Array.sort (fun (_, a) (_, b) -> Float.compare b a) named;
  Array.iter (fun (n, t) -> Printf.printf "  %-6s %6.1f C\n" n t) named
