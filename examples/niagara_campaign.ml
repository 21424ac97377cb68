(* The full Pro-Temp flow on the Niagara platform, end to end:

   Phase 1 (design time): sweep starting temperatures x frequency
   targets, solving the Eq. 3 convex model for each, into the lookup
   table of the paper's Fig. 4 — then audit every entry against the
   thermal simulator.

   Phase 2 (run time): fan the paper's evaluation grid — No-TC vs
   Basic-DFS vs Pro-Temp, crossed with the simple and the
   temperature-aware assignment policies, over the mixed-benchmark
   trace — across domains with Sim.Campaign, and report the
   statistics the paper reports for every cell.

   Run with:  dune exec examples/niagara_campaign.exe
   (Phase 1 solves ~60 convex programs; expect a couple of minutes.
   Set PROTEMP_DOMAINS to spread both phases over more domains.) *)

let () =
  let machine = Sim.Machine.niagara () in
  let spec =
    (* Thermal cap enforced every other step: half the solve cost; the
       audit below confirms the guarantee still holds at full
       resolution. *)
    { Protemp.Spec.default with Protemp.Spec.constraint_stride = 2 }
  in

  print_endline "=== Phase 1: design-time table generation ===";
  Printf.printf "(rows solved on %d domain(s); set PROTEMP_DOMAINS to change)\n%!"
    (Parallel.Pool.default_domains ());
  let t0 = Unix.gettimeofday () in
  let dense =
    Protemp.Dense_table.create ~machine ~spec
      ~tstarts:[| 27.0; 40.0; 55.0; 70.0; 85.0; 100.0 |]
      ~ftargets:(Array.init 9 (fun i -> float_of_int (i + 1) *. 1e8))
      ()
  in
  let s = Protemp.Dense_table.fill dense in
  Printf.printf
    "  %d cells: %d solved (%d warm-seeded), %d pruned, %d feasible\n"
    s.Protemp.Dense_table.cells s.Protemp.Dense_table.solves
    s.Protemp.Dense_table.warm_hits s.Protemp.Dense_table.pruned
    s.Protemp.Dense_table.feasible;
  let table = Protemp.Dense_table.to_table dense in
  Printf.printf "Table built in %.1f s:\n%!" (Unix.gettimeofday () -. t0);
  Format.printf "%a@.@." Protemp.Table.pp table;

  let audit = Protemp.Guarantee.audit_table ~machine ~spec table in
  Printf.printf
    "Audit: %d feasible cells re-simulated; tightest margin below the cap: \
     %.3f C\n\n%!"
    audit.Protemp.Guarantee.cells_checked
    audit.Protemp.Guarantee.worst_margin;

  print_endline "=== Phase 2: run-time campaign ===";
  let fmax = machine.Sim.Machine.fmax in
  let campaign =
    {
      Sim.Campaign.controllers =
        [
          ("no-tc", fun () -> Protemp.No_tc.create ~fmax);
          ("basic-dfs", fun () -> Protemp.Basic_dfs.create ~fmax ());
          ("pro-temp", fun () -> Protemp.Controller.create ~table);
        ];
      assignments = [ Sim.Policy.first_idle; Sim.Policy.coolest_first ];
      scenarios =
        [
          Sim.Campaign.scenario ~seed:2008L ~n_tasks:20000 ~name:"mix"
            Workload.Mix.paper_mix;
        ];
      faults = [];
      config = Sim.Engine.default_config;
    }
  in
  Printf.printf "(%d cells on %d domain(s))\n%!"
    (Sim.Campaign.cells campaign)
    (Parallel.Pool.default_domains ());
  let t0 = Unix.gettimeofday () in
  let cells =
    Sim.Campaign.run
      ~on_cell:(fun c ->
        Printf.printf "  %-10s x %-14s done in %.1f s\n%!"
          c.Sim.Campaign.controller_name c.Sim.Campaign.assignment_name
          c.Sim.Campaign.result.Sim.Engine.wall_clock)
      ~machine campaign
  in
  Printf.printf "Campaign finished in %.1f s\n\n%!"
    (Unix.gettimeofday () -. t0);
  Format.printf "%a@." Sim.Campaign.pp_summary cells;
  Array.iter
    (fun c ->
      if c.Sim.Campaign.controller_name = "pro-temp" then
        Printf.printf
          "pro-temp/%s: %d violating thermal steps (the guarantee: always 0)\n"
          c.Sim.Campaign.assignment_name
          (Sim.Stats.violation_steps c.Sim.Campaign.result.Sim.Engine.stats))
    cells
