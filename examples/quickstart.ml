(* Quickstart: build the Niagara platform, solve one Pro-Temp design
   point (Eq. 3 of the paper), and inspect the result.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* The calibrated 8-core Niagara machine: floorplan, RC thermal
     network discretized at 0.4 ms, 1 GHz / 4 W cores. *)
  let machine = Sim.Machine.niagara () in
  Printf.printf "Machine: %d thermal nodes, %d cores, fmax = %.0f MHz\n\n"
    machine.Sim.Machine.n_nodes machine.Sim.Machine.n_cores
    (machine.Sim.Machine.fmax /. 1e6);

  (* One design point: the chip currently peaks at 85 degrees and the
     workload needs an average of 600 MHz over the next 100 ms
     window.  Which per-core frequencies minimize power while
     guaranteeing nobody exceeds 100 degrees at any instant? *)
  let spec = Protemp.Spec.default in
  let built =
    Protemp.Model.build ~machine ~spec ~tstart:85.0 ~ftarget:600e6
  in
  (match Protemp.Model.solve built with
  | Protemp.Model.Infeasible ->
      print_endline "No frequency assignment can honour the constraints."
  | Protemp.Model.Feasible s ->
      print_endline "Optimal frequency assignment (MHz):";
      Array.iteri
        (fun i f -> Printf.printf "  P%d: %6.1f\n" (i + 1) (f /. 1e6))
        s.Protemp.Model.frequencies;
      Printf.printf "Total core power: %.2f W\n" s.Protemp.Model.total_power;
      Printf.printf "Certified duality gap: %.2e\n"
        s.Protemp.Model.raw.Convex.Solve.gap;
      (* Double-check the guarantee against the thermal simulator. *)
      let peak =
        Protemp.Guarantee.window_peak ~machine
          ~dfs_period:spec.Protemp.Spec.dfs_period ~tstart:85.0
          ~frequencies:s.Protemp.Model.frequencies
      in
      Printf.printf "Simulated window peak: %.2f C (cap %.0f C)\n" peak
        spec.Protemp.Spec.tmax);

  (* The same machinery answers "how fast can we possibly go from this
     temperature?" — the feasibility frontier. *)
  print_newline ();
  List.iter
    (fun tstart ->
      match
        Protemp.Model.solve_frontier
          (Protemp.Model.build_frontier ~machine ~spec ~tstart)
      with
      | Protemp.Model.Feasible s ->
          Printf.printf
            "From %5.1f C the platform sustains an average of %.0f MHz\n"
            tstart
            (Linalg.Vec.mean s.Protemp.Model.frequencies /. 1e6)
      | Protemp.Model.Infeasible ->
          Printf.printf "From %5.1f C no operation is possible at all\n"
            tstart)
    [ 40.0; 85.0; 99.0 ]
