(* The experiment harness: regenerates every figure of the paper's
   evaluation (Figs. 1-2 and 6-11 — the paper has no numbered tables)
   plus the in-text Sec. 5.1 timing claim, and the ablations listed in
   DESIGN.md Sec. 7.  Each experiment prints the same rows/series the
   paper plots, and each claim prints a PASS or FAIL line; the process
   exits 1 if any claim fails, so `dune runtest` (which runs the fast
   mode) gates the reproduction.

   Run with:  dune exec bench/main.exe          (full size)
              PROTEMP_BENCH_FAST=1 dune exec bench/main.exe   (smaller
              traces and grids, a few seconds; shapes unchanged) *)

open Linalg

let fast = Sys.getenv_opt "PROTEMP_BENCH_FAST" <> None

let section title =
  Printf.printf "\n=================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "=================================================================\n%!"

let claims = ref 0
let failed = ref 0

let claim name ok =
  incr claims;
  if not ok then incr failed;
  Printf.printf "  [%s] %s\n%!" (if ok then "PASS" else "FAIL") name

(* ------------------------------------------------------------------ *)
(* Shared context, built once. *)

let machine = Sim.Machine.niagara ()
let fmax = machine.Sim.Machine.fmax

(* Thermal cap enforced every other step in the sweep spec: half the
   build cost; the audit below re-checks every entry at full
   resolution. *)
let spec = { Protemp.Spec.default with Protemp.Spec.constraint_stride = 2 }

let n_tasks_big = if fast then 12_000 else 60_000
let trace_mix =
  Workload.Trace.generate ~seed:2008L ~n_tasks:n_tasks_big
    Workload.Mix.paper_mix

let trace_compute =
  Workload.Trace.generate ~seed:2009L ~n_tasks:n_tasks_big
    Workload.Mix.compute_intensive

let table_tstarts =
  if fast then [| 27.0; 55.0; 85.0; 100.0 |]
  else [| 27.0; 40.0; 55.0; 70.0; 85.0; 100.0 |]

let table_ftargets =
  if fast then [| 2e8; 4e8; 6e8; 8e8; 1e9 |]
  else Array.init 10 (fun i -> float_of_int (i + 1) *. 1e8)

let table_build_seconds = ref 0.0

(* Phase 1: one Eq. 3 solve per grid cell. *)
let build_table ~spec ~tstarts ~ftargets =
  Protemp.Dense_table.to_table
    (Protemp.Dense_table.create ~machine ~spec ~tstarts ~ftargets ())

let table =
  lazy
    (let t0 = Unix.gettimeofday () in
     let t =
       build_table ~spec ~tstarts:table_tstarts ~ftargets:table_ftargets
     in
     table_build_seconds := Unix.gettimeofday () -. t0;
     t)

let gradient_spec = Protemp.Spec.with_gradient ~weight:4.0 spec

let gradient_table =
  lazy
    (build_table ~spec:gradient_spec ~tstarts:[| 40.0; 70.0; 100.0 |]
       ~ftargets:[| 3e8; 5e8; 7e8; 9e8 |])

let no_tc () = Protemp.No_tc.create ~fmax
let basic_dfs () = Protemp.Basic_dfs.create ~fmax ()
let pro_temp () = Protemp.Controller.create ~table:(Lazy.force table)

let run_sim ?(assignment = Sim.Policy.first_idle) controller trace =
  Sim.Engine.run machine controller assignment trace

(* Cache of simulation runs shared between figures. *)
let runs : (string, Sim.Engine.result) Hashtbl.t = Hashtbl.create 16

let sim key ?assignment controller trace =
  match Hashtbl.find_opt runs key with
  | Some r -> r
  | None ->
      let r = run_sim ?assignment (controller ()) trace in
      Hashtbl.add runs key r;
      r

(* Per-epoch temperature series for the time-series figures, gathered
   by a recorder probe (runs are cheap enough to redo per figure). *)
let recorded : (string, Sim.Probe.sample array) Hashtbl.t = Hashtbl.create 4

let sim_series key ?(assignment = Sim.Policy.first_idle) controller trace =
  match Hashtbl.find_opt recorded key with
  | Some s -> s
  | None ->
      let probe, series = Sim.Probe.recorder () in
      let _ : Sim.Engine.result =
        Sim.Engine.run ~probes:[ probe ] machine (controller ()) assignment
          trace
      in
      let s = series () in
      Hashtbl.add recorded key s;
      s

(* ------------------------------------------------------------------ *)
(* Figs. 1 and 2: temperature snapshot of processor P1 over time. *)

let hottest_series series =
  Array.map
    (fun (s : Sim.Probe.sample) ->
      (s.Sim.Probe.at, s.Sim.Probe.core_temperatures.(0)))
    series

let print_series name series =
  Printf.printf "%s (time in 100s of ms, temperature of P1 in C):\n" name;
  let n = Array.length series in
  let stride = Stdlib.max 1 (n / 40) in
  let k = ref 0 in
  while !k < Stdlib.min n (40 * stride) do
    let t, temp = series.(!k) in
    let bar = String.make (Stdlib.max 0 (int_of_float ((temp -. 27.0) /. 2.5))) '#' in
    Printf.printf "  %5.0f  %6.1f  %s\n" (t /. 0.1) temp bar;
    k := !k + stride
  done;
  Printf.printf "%!"

let fig1 () =
  section "Fig. 1 — thermal snapshot under traditional (Basic-) DFS";
  let r = sim "basic/compute" basic_dfs trace_compute in
  print_series "Basic-DFS" (hottest_series (sim_series "basic/compute" basic_dfs trace_compute));
  let peak = Sim.Stats.peak_temperature r.Sim.Engine.stats in
  Printf.printf "  peak %.1f C; violations of the 100 C limit: %d steps\n" peak
    (Sim.Stats.violation_steps r.Sim.Engine.stats);
  claim "Basic-DFS exceeds the maximum temperature (paper: repeatedly)"
    (peak > 100.0)

let fig2 () =
  section "Fig. 2 — thermal snapshot under Pro-Temp";
  let r = sim "protemp/compute" pro_temp trace_compute in
  print_series "Pro-Temp" (hottest_series (sim_series "protemp/compute" pro_temp trace_compute));
  let peak = Sim.Stats.peak_temperature r.Sim.Engine.stats in
  Printf.printf "  peak %.1f C; violations: %d steps\n" peak
    (Sim.Stats.violation_steps r.Sim.Engine.stats);
  claim "Pro-Temp never exceeds the maximum temperature"
    (Sim.Stats.violation_steps r.Sim.Engine.stats = 0 && peak <= 100.0)

(* ------------------------------------------------------------------ *)
(* Fig. 6: per-band residency for the three schemes. *)

let band_row r =
  List.map (fun (_, f) -> 100.0 *. f)
    (Sim.Stats.band_residency r.Sim.Engine.stats)

let print_bands title rows =
  Printf.printf "%s\n" title;
  Printf.printf "  %-12s %8s %8s %8s %8s\n" "scheme" "<80" "80-90" "90-100"
    ">100";
  List.iter
    (fun (name, row) ->
      match row with
      | [ a; b; c; d ] ->
          Printf.printf "  %-12s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n" name a b c d
      | _ -> assert false)
    rows;
  Printf.printf "%!"

let fig6 () =
  section "Fig. 6a — % time per temperature band (mixed benchmarks)";
  let rows =
    [
      ("No-TC", band_row (sim "notc/mix" no_tc trace_mix));
      ("Basic-DFS", band_row (sim "basic/mix" basic_dfs trace_mix));
      ("Pro-Temp", band_row (sim "protemp/mix" pro_temp trace_mix));
    ]
  in
  print_bands "(averaged across the 8 cores)" rows;
  section "Fig. 6b — % time per band (most computation-intensive benchmark)";
  let above _name r = List.nth (band_row r) 3 in
  let r_notc = sim "notc/compute" no_tc trace_compute in
  let r_basic = sim "basic/compute" basic_dfs trace_compute in
  let r_pro = sim "protemp/compute" pro_temp trace_compute in
  print_bands ""
    [
      ("No-TC", band_row r_notc);
      ("Basic-DFS", band_row r_basic);
      ("Pro-Temp", band_row r_pro);
    ];
  claim "No-TC and Basic-DFS spend significant time above 100 C"
    (above "notc" r_notc > 5.0 && above "basic" r_basic > 5.0);
  claim "Basic-DFS reaches tens of %% above tmax (paper: up to 40%)"
    (above "basic" r_basic > 15.0);
  (* Bit-exact: the claim is that the ratio is literally zero. *)
  claim "Pro-Temp spends 0%% above 100 C" (Float.equal (above "pro" r_pro) 0.0)

(* ------------------------------------------------------------------ *)
(* Fig. 7: task waiting times, normalized to Basic-DFS. *)

let fig7 () =
  section "Fig. 7 — average task waiting time (normalized to Basic-DFS)";
  let w_basic =
    Sim.Stats.mean_waiting (sim "basic/compute" basic_dfs trace_compute).Sim.Engine.stats
  in
  let w_pro =
    Sim.Stats.mean_waiting (sim "protemp/compute" pro_temp trace_compute).Sim.Engine.stats
  in
  Printf.printf "  Basic-DFS: %8.1f ms  (= 1.00)\n" (w_basic *. 1e3);
  Printf.printf "  Pro-Temp:  %8.1f ms  (= %.2f)\n" (w_pro *. 1e3)
    (w_pro /. w_basic);
  claim "Pro-Temp cuts waiting time by >= 40%% (paper: ~60%%)"
    (w_pro /. w_basic < 0.6)

(* ------------------------------------------------------------------ *)
(* Fig. 8: P1 and P2 temperatures over time under Pro-Temp. *)

let fig8 () =
  section "Fig. 8 — temperatures of P1 and P2 over time (Pro-Temp)";
  let series = sim_series "protemp/mix" pro_temp trace_mix in
  let n = Array.length series in
  let stride = Stdlib.max 1 (n / 25) in
  Printf.printf "  %8s %8s %8s %8s\n" "t (s)" "P1 (C)" "P2 (C)" "|P1-P2|";
  let worst = ref 0.0 in
  Array.iteri
    (fun k s ->
      let p1 = s.Sim.Probe.core_temperatures.(0)
      and p2 = s.Sim.Probe.core_temperatures.(1) in
      worst := Float.max !worst (Float.abs (p1 -. p2));
      if k mod stride = 0 && k / stride < 25 then
        Printf.printf "  %8.1f %8.2f %8.2f %8.2f\n" s.Sim.Probe.at p1 p2
          (Float.abs (p1 -. p2)))
    series;
  Printf.printf "  worst |P1 - P2| over the whole run: %.2f C\n%!" !worst;
  claim "temperature gradient across processors stays low (paper: low)"
    (!worst < 10.0)

(* ------------------------------------------------------------------ *)
(* Fig. 9: max supportable average frequency, uniform vs variable. *)

let frontier_tstarts = [| 27.0; 37.0; 47.0; 57.0; 67.0; 77.0; 87.0; 97.0 |]

let frontier_solutions variant =
  Array.map
    (fun tstart ->
      let s = { spec with Protemp.Spec.variant } in
      ( tstart,
        Protemp.Model.solve_frontier
          (Protemp.Model.build_frontier ~machine ~spec:s ~tstart) ))
    frontier_tstarts

let fig9_10_data =
  lazy
    ( frontier_solutions Protemp.Spec.Variable,
      frontier_solutions Protemp.Spec.Uniform )

let fig9 () =
  section "Fig. 9 — max average frequency vs starting temperature";
  let variable, uniform = Lazy.force fig9_10_data in
  Printf.printf "  %8s %14s %14s\n" "tstart" "uniform (MHz)" "variable (MHz)";
  let ok = ref true in
  Array.iteri
    (fun i (tstart, v) ->
      let mean_of = function
        | Protemp.Model.Feasible s -> Vec.mean s.Protemp.Model.frequencies /. 1e6
        | Protemp.Model.Infeasible -> 0.0
      in
      let fv = mean_of v and fu = mean_of (snd uniform.(i)) in
      if fv < fu -. 1.0 then ok := false;
      Printf.printf "  %8.0f %14.0f %14.0f\n" tstart fu fv)
    variable;
  claim "variable assignment supports >= the uniform frontier everywhere" !ok;
  let first_v, last_v =
    let mean_of = function
      | Protemp.Model.Feasible s -> Vec.mean s.Protemp.Model.frequencies
      | Protemp.Model.Infeasible -> 0.0
    in
    (mean_of (snd variable.(0)), mean_of (snd variable.(7)))
  in
  claim "the frontier declines with the starting temperature"
    (last_v < first_v)

(* ------------------------------------------------------------------ *)
(* Fig. 10: per-core frequencies of P1 and P2 along the frontier. *)

let fig10 () =
  section "Fig. 10 — frequencies of P1 (periphery) and P2 (middle)";
  let variable, _ = Lazy.force fig9_10_data in
  Printf.printf "  %8s %10s %10s\n" "tstart" "P1 (MHz)" "P2 (MHz)";
  let ok = ref true in
  Array.iter
    (fun (tstart, outcome) ->
      match outcome with
      | Protemp.Model.Feasible s ->
          let f = s.Protemp.Model.frequencies in
          if f.(0) < f.(1) -. 1e5 then ok := false;
          Printf.printf "  %8.0f %10.0f %10.0f\n" tstart (f.(0) /. 1e6)
            (f.(1) /. 1e6)
      | Protemp.Model.Infeasible ->
          Printf.printf "  %8.0f %10s %10s\n" tstart "--" "--")
    variable;
  claim "P1 runs at least as fast as P2 (paper: significantly faster)" !ok

(* ------------------------------------------------------------------ *)
(* Fig. 11: effect of the task assignment policy. *)

let fig11 () =
  section "Fig. 11 — Basic-DFS above-tmax time vs assignment policy";
  let above r = 100.0 *. Sim.Stats.time_above r.Sim.Engine.stats in
  let r_first = sim "basic/compute" basic_dfs trace_compute in
  let efficient = Sim.Policy.cool_headroom ~threshold:97.0 in
  let r_cool =
    sim "basic/compute/cool" ~assignment:efficient basic_dfs trace_compute
  in
  Printf.printf "  Basic-DFS, first-idle assignment:     %5.1f%% above tmax\n"
    (above r_first);
  Printf.printf "  Basic-DFS, efficient assignment [26]: %5.1f%% above tmax\n"
    (above r_cool);
  claim "the efficient assignment reduces Basic-DFS violations"
    (above r_cool < above r_first);
  claim "but does not eliminate them (burstiness, as the paper notes)"
    (above r_cool > 0.0);
  (* In-text Sec. 5.4: Pro-Temp + efficient assignment reduces the
     spatial spread further. *)
  let spread r = Sim.Stats.mean_gradient r.Sim.Engine.stats in
  let g_plain = spread (sim "protemp/compute" pro_temp trace_compute) in
  let grad_controller () =
    Protemp.Controller.create ~table:(Lazy.force gradient_table)
  in
  let g_cool =
    spread
      (sim "protempgrad/compute/cool" ~assignment:Sim.Policy.coolest_first
         grad_controller trace_compute)
  in
  Printf.printf
    "  Pro-Temp mean core spread: %.2f C; with gradient table + efficient \
     assignment: %.2f C (-%.0f%%)\n"
    g_plain g_cool
    (100.0 *. (1.0 -. (g_cool /. g_plain)));
  claim "gradient table + efficient assignment reduces the spatial spread"
    (g_cool < g_plain)

(* ------------------------------------------------------------------ *)
(* Sec. 5.1: solver and design-time cost. *)

let s51 () =
  section "Sec. 5.1 — design-time cost";
  let t0 = Unix.gettimeofday () in
  let built =
    (* The paper's full-resolution formulation: every 0.4 ms step. *)
    Protemp.Model.build ~machine ~spec:Protemp.Spec.default ~tstart:70.0
      ~ftarget:7e8
  in
  let outcome = Protemp.Model.solve built in
  let dt = Unix.gettimeofday () -. t0 in
  (* One multiplier per constraint. *)
  let constraints =
    match outcome with
    | Protemp.Model.Feasible s ->
        Array.length s.Protemp.Model.raw.Convex.Solve.dual
    | Protemp.Model.Infeasible -> 0
  in
  Printf.printf
    "  one Eq. 3 instance (m = %d steps, %d constraints): %.2f s\n"
    built.Protemp.Model.steps constraints dt;
  claim "single design point solves in < 2 minutes (paper: < 2 min with CVX)"
    (dt < 120.0 && outcome <> Protemp.Model.Infeasible);
  let _ = Lazy.force table in
  Printf.printf "  full Phase-1 sweep (%d x %d grid): %.1f s\n"
    (Array.length table_tstarts)
    (Array.length table_ftargets)
    !table_build_seconds;
  let audit =
    Protemp.Guarantee.audit_table ~machine ~spec (Lazy.force table)
  in
  Printf.printf
    "  table audit: %d feasible cells re-simulated, tightest margin %.4f C\n"
    audit.Protemp.Guarantee.cells_checked
    audit.Protemp.Guarantee.worst_margin;
  claim "every table entry honours tmax for its whole window"
    (audit.Protemp.Guarantee.worst_margin >= -1e-9)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md Sec. 7). *)

let abl_stride () =
  section "Ablation — thermal-constraint stride vs solve cost and margin";
  Printf.printf "  %8s %12s %10s %14s\n" "stride" "constraints" "time (s)"
    "window margin";
  (* A point near the feasibility frontier, where the thermal rows
     bind and the stride actually matters. *)
  List.iter
    (fun stride ->
      let s = { Protemp.Spec.default with Protemp.Spec.constraint_stride = stride } in
      let t0 = Unix.gettimeofday () in
      let built =
        Protemp.Model.build ~machine ~spec:s ~tstart:85.0 ~ftarget:8.68e8
      in
      match Protemp.Model.solve built with
      | Protemp.Model.Feasible sol ->
          let dt = Unix.gettimeofday () -. t0 in
          let peak =
            Protemp.Guarantee.window_peak ~machine ~dfs_period:0.1 ~tstart:85.0
              ~frequencies:sol.Protemp.Model.frequencies
          in
          Printf.printf "  %8d %12d %10.2f %14.4f\n" stride
            (Array.length sol.Protemp.Model.raw.Convex.Solve.dual)
            dt (100.0 -. peak)
      | Protemp.Model.Infeasible -> Printf.printf "  %8d infeasible\n" stride)
    [ 1; 2; 5; 20 ];
  Printf.printf
    "  (larger strides are cheaper and keep a positive margin here — the\n\
    \   monotone heating within a window peaks at the always-constrained\n\
    \   final step — but the margins thin as the cap is checked less often)\n%!"

let abl_table_resolution () =
  section "Ablation — table grid resolution vs run-time conservatism";
  let coarse =
    build_table ~spec ~tstarts:[| 55.0; 100.0 |] ~ftargets:[| 3e8; 7e8 |]
  in
  let run name t =
    let r = run_sim (Protemp.Controller.create ~table:t) trace_mix in
    Printf.printf
      "  %-18s mean wait %8.1f ms, avg power %6.2f W, violations %d, peak \
       %.1f C\n"
      name
      (Sim.Stats.mean_waiting r.Sim.Engine.stats *. 1e3)
      (Sim.Stats.average_power r.Sim.Engine.stats)
      (Sim.Stats.violation_steps r.Sim.Engine.stats)
      (Sim.Stats.peak_temperature r.Sim.Engine.stats)
  in
  run "coarse (2x2)" coarse;
  run
    (Printf.sprintf "fine (%dx%d)" (Array.length table_tstarts)
       (Array.length table_ftargets))
    (Lazy.force table);
  Printf.printf
    "  (both keep the guarantee; the coarse grid rounds demand up to its\n\
    \   sparse columns, wasting power — exactly what the finer Phase-1 grid\n\
    \   buys back)\n%!"

let abl_discrete_ladder () =
  section "Ablation — continuous vs discrete DVFS operating points";
  let t = Lazy.force table in
  let run name tbl =
    let r = run_sim (Protemp.Controller.create ~table:tbl) trace_mix in
    let s = r.Sim.Engine.stats in
    Printf.printf
      "  %-24s wait %8.1f ms, avg power %6.2f W, violations %d\n%!" name
      (Sim.Stats.mean_waiting s *. 1e3)
      (Sim.Stats.average_power s)
      (Sim.Stats.violation_steps s)
  in
  run "continuous" t;
  List.iter
    (fun levels ->
      let ladder = Protemp.Ladder.uniform ~fmax ~levels in
      run
        (Printf.sprintf "%d-level ladder (%.0f MHz)" levels
           (fmax /. float_of_int levels /. 1e6))
        (Protemp.Ladder.quantize_table ladder t))
    [ 20; 10; 5 ];
  Printf.printf
    "  (rounding cells down onto the ladder keeps the guarantee; the\n\
    \   Phase-2 feedback partly compensates the lost throughput by\n\
    \   selecting higher columns, at some power cost)\n%!"

let abl_migration () =
  section "Ablation — task migration (stuck-core failure drill)";
  (* Organic Basic-DFS shutdowns last only 1-2 windows and coincide
     with full queues, so DFS-granularity migration almost never fires
     on the paper's workloads (an honest negative result).  The drill
     below shows the failure mode migration exists for: a core whose
     sensor reads stuck-hot is permanently denied a frequency; pinned
     tasks then strand on it. *)
  let stuck_core0 =
    {
      Sim.Policy.controller_name = "stuck-sensor-core0";
      decide =
        (fun obs ->
          Vec.init
            (Vec.dim obs.Sim.Policy.core_temperatures)
            (fun c ->
              if c = 0 then 0.0
              else Float.min fmax obs.Sim.Policy.required_frequency));
    }
  in
  let trace =
    Workload.Trace.generate ~seed:11L ~n_tasks:4000 Workload.Mix.web
  in
  let run name migration =
    let config =
      { Sim.Engine.default_config with Sim.Engine.migration;
        drain_limit = 5.0 }
    in
    let r = Sim.Engine.run ~config machine stuck_core0 Sim.Policy.first_idle trace in
    Printf.printf "  %-18s unfinished %4d, wait %8.1f ms, migrations %d\n%!"
      name r.Sim.Engine.unfinished
      (Sim.Stats.mean_waiting r.Sim.Engine.stats *. 1e3)
      r.Sim.Engine.migrations;
    r
  in
  let r_off = run "pinned tasks" false in
  let r_on = run "with migration" true in
  claim "migration rescues tasks stranded on a dead core"
    (r_on.Sim.Engine.unfinished = 0 && r_off.Sim.Engine.unfinished > 0)

let abl_online_vs_table () =
  section "Ablation — table-driven Pro-Temp vs online (MPC) re-solving";
  let trace =
    Workload.Trace.generate ~seed:4040L ~n_tasks:3000
      Workload.Mix.compute_intensive
  in
  let online_spec = { spec with Protemp.Spec.constraint_stride = 8 } in
  let online_t = Protemp.Online.create ~machine ~spec:online_spec () in
  let online = Protemp.Online.controller online_t in
  let report name r =
    let s = r.Sim.Engine.stats in
    Printf.printf
      "  %-22s wait %8.1f ms, avg power %6.2f W, violations %d, host %.1f s\n%!"
      name
      (Sim.Stats.mean_waiting s *. 1e3)
      (Sim.Stats.average_power s)
      (Sim.Stats.violation_steps s)
      r.Sim.Engine.wall_clock
  in
  let r_table = run_sim (pro_temp ()) trace in
  let r_online = run_sim online trace in
  report "table (Fig. 4 lookup)" r_table;
  report "online re-solve" r_online;
  Printf.printf "  online controller solved %d instances\n"
    (Protemp.Online.solves online_t);
  claim "both variants keep the guarantee"
    (Sim.Stats.violation_steps r_table.Sim.Engine.stats = 0
    && Sim.Stats.violation_steps r_online.Sim.Engine.stats = 0);
  claim
    "online removes the table's conservatism (no worse waiting, at orders \
     of magnitude more compute)"
    (Sim.Stats.mean_waiting r_online.Sim.Engine.stats
    <= Sim.Stats.mean_waiting r_table.Sim.Engine.stats *. 1.02)

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf "Pro-Temp experiment harness%s\n"
    (if fast then " (FAST mode)" else "");
  Format.printf "mix trace:     %a@."
    Workload.Trace.pp_statistics
    (Workload.Trace.statistics trace_mix ~n_cores:8);
  Format.printf "compute trace: %a@."
    Workload.Trace.pp_statistics
    (Workload.Trace.statistics trace_compute ~n_cores:8);
  s51 ();
  fig1 ();
  fig2 ();
  fig6 ();
  fig7 ();
  fig8 ();
  fig9 ();
  fig10 ();
  fig11 ();
  abl_stride ();
  abl_table_resolution ();
  abl_discrete_ladder ();
  abl_migration ();
  abl_online_vs_table ();
  Printf.printf "\n%d of %d paper claims pass.\n" (!claims - !failed) !claims;
  if !failed > 0 then exit 1
