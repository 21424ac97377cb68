(* The Eq. 4-5 extension: adding the spatial-gradient term to the
   objective.  Solves the same design point with and without the
   gradient term and compares the per-core frequency assignments and
   the resulting on-chip temperature spread, then shows the run-time
   effect the paper's Sec. 5.4 reports (the gradient-aware table plus
   coolest-first assignment reduces the spatial spread further).

   Run with:  dune exec examples/gradient_study.exe *)

open Linalg

let spread machine tstart frequencies steps =
  (* Core temperature spread at the end of one window. *)
  let thermal = machine.Sim.Machine.thermal in
  let power =
    Sim.Machine.power_vector machine ~frequencies ~busy:(Array.make 8 true)
  in
  let traj =
    Thermal.Transient.simulate thermal
      ~t0:(Vec.create machine.Sim.Machine.n_nodes tstart)
      ~steps ~power:(fun _ -> power)
  in
  let finals =
    Sim.Machine.core_temperatures machine
      (Mat.row traj.Thermal.Transient.temperatures steps)
  in
  Vec.max finals -. Vec.min finals

let () =
  let machine = Sim.Machine.niagara () in
  let plain = { Protemp.Spec.default with Protemp.Spec.constraint_stride = 2 } in
  let with_gradient = Protemp.Spec.with_gradient ~weight:4.0 plain in
  let tstart = 60.0 and ftarget = 700e6 in

  let solve name spec =
    let built = Protemp.Model.build ~machine ~spec ~tstart ~ftarget in
    match Protemp.Model.solve built with
    | Protemp.Model.Infeasible -> failwith (name ^ ": unexpected infeasible")
    | Protemp.Model.Feasible s ->
        Printf.printf "%-16s  freqs(MHz): %s\n" name
          (String.concat " "
             (Array.to_list
                (Array.map
                   (fun f -> Printf.sprintf "%4.0f" (f /. 1e6))
                   s.Protemp.Model.frequencies)));
        Printf.printf "%-16s  power %.2f W, end-of-window core spread %.2f C\n"
          "" s.Protemp.Model.total_power
          (spread machine tstart s.Protemp.Model.frequencies
             built.Protemp.Model.steps);
        s
  in
  Printf.printf "Design point: tstart = %.0f C, ftarget = %.0f MHz\n\n" tstart
    (ftarget /. 1e6);
  let s_plain = solve "power-only" plain in
  let s_grad = solve "power+gradient" with_gradient in
  (match s_grad.Protemp.Model.gradient_spread with
  | Some g ->
      Printf.printf
        "\nThe gradient variant certifies a worst-instant spread of %.2f C\n" g
  | None -> ());
  ignore s_plain;

  (* Run-time comparison (Sec. 5.4): gradient-aware tables, first-idle
     vs coolest-first assignment. *)
  print_endline "\n=== Run-time spatial gradients (Sec. 5.4) ===";
  let table spec =
    Protemp.Dense_table.to_table
      (Protemp.Dense_table.create ~machine ~spec
         ~tstarts:[| 40.0; 70.0; 100.0 |]
         ~ftargets:[| 3e8; 5e8; 7e8; 9e8 |]
         ())
  in
  let t_plain = table plain in
  let t_grad = table with_gradient in
  let trace =
    Workload.Trace.generate ~seed:55L ~n_tasks:12000
      Workload.Mix.compute_intensive
  in
  let run name tbl assign =
    let r =
      Sim.Engine.run machine (Protemp.Controller.create ~table:tbl) assign trace
    in
    let s = r.Sim.Engine.stats in
    Printf.printf "%-42s mean spread %.2f C (peak %.2f C), violations %d\n%!"
      name (Sim.Stats.mean_gradient s) (Sim.Stats.peak_gradient s)
      (Sim.Stats.violation_steps s)
  in
  run "power-only table + first-idle" t_plain Sim.Policy.first_idle;
  run "power+gradient table + first-idle" t_grad Sim.Policy.first_idle;
  run "power+gradient table + coolest-first" t_grad Sim.Policy.coolest_first
