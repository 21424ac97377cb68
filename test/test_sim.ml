(* Tests for the system simulator: machine description, policies,
   statistics and the engine's conservation invariants. *)

open Linalg

let check_bool = Alcotest.(check bool)
let check_float tol = Alcotest.(check (float tol))
let check_int = Alcotest.(check int)

let machine = lazy (Sim.Machine.niagara ())

(* ------------------------------------------------------------------ *)
(* Machine *)

let test_machine_shape () =
  let m = Lazy.force machine in
  check_int "cores" 8 m.Sim.Machine.n_cores;
  check_int "nodes" 17 m.Sim.Machine.n_nodes;
  check_float 1e-3 "fmax" 1e9 m.Sim.Machine.fmax;
  Array.iter
    (fun node -> check_float 1e-12 "no fixed power on cores" 0.0
        m.Sim.Machine.fixed_power.(node))
    m.Sim.Machine.core_nodes

let test_machine_core_power () =
  let m = Lazy.force machine in
  check_float 1e-9 "busy at fmax" 4.0
    (Sim.Machine.core_power m ~core:0 ~frequency:1e9 ~busy:true);
  check_float 1e-9 "busy at half" 1.0
    (Sim.Machine.core_power m ~core:0 ~frequency:5e8 ~busy:true);
  check_float 1e-9 "idle scales" (0.3 *. 1.0)
    (Sim.Machine.core_power m ~core:0 ~frequency:5e8 ~busy:false);
  check_float 1e-9 "negative clamps" 0.0
    (Sim.Machine.core_power m ~core:0 ~frequency:(-1.0) ~busy:true)

let test_machine_idle_never_exceeds_busy () =
  (* The invariant behind the Pro-Temp guarantee carrying over to the
     simulation: real power never exceeds the modeled all-busy power. *)
  let m = Lazy.force machine in
  List.iter
    (fun f ->
      check_bool "idle <= busy" true
        (Sim.Machine.core_power m ~core:0 ~frequency:f ~busy:false
        <= Sim.Machine.core_power m ~core:0 ~frequency:f ~busy:true +. 1e-12))
    [ 0.0; 1e8; 5e8; 9e8; 1e9 ]

let test_machine_power_vector () =
  let m = Lazy.force machine in
  let freqs = Vec.create 8 1e9 in
  let busy = Array.make 8 true in
  let p = Sim.Machine.power_vector m ~frequencies:freqs ~busy in
  check_float 1e-9 "total" (32.0 +. Vec.sum m.Sim.Machine.fixed_power) (Vec.sum p)

let test_machine_validation () =
  let m = Lazy.force machine in
  check_bool "bad idle_activity" true
    (match
       Sim.Machine.make ~idle_activity:1.5 ~thermal:m.Sim.Machine.thermal
         ~core_nodes:m.Sim.Machine.core_nodes
         ~fixed_power:m.Sim.Machine.fixed_power ~fmax:1e9 ~core_pmax:4.0 ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "bad core node" true
    (match
       Sim.Machine.make ~thermal:m.Sim.Machine.thermal ~core_nodes:[| 99 |]
         ~fixed_power:m.Sim.Machine.fixed_power ~fmax:1e9 ~core_pmax:4.0 ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* NaN passes any guard written as [x <= 0.0 -> reject]; the
   homogeneous constructor must reject NaN and infinite parameters
   before they reach the platform. *)
let test_machine_rejects_non_finite () =
  let m = Lazy.force machine in
  let rejects name ?(idle_activity = 0.3) ?(fmax = 1e9) ?(core_pmax = 4.0) () =
    check_bool name true
      (match
         Sim.Machine.make ~idle_activity ~thermal:m.Sim.Machine.thermal
           ~core_nodes:m.Sim.Machine.core_nodes
           ~fixed_power:m.Sim.Machine.fixed_power ~fmax ~core_pmax ()
       with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  List.iter
    (fun v ->
      let s = Printf.sprintf "%g" v in
      rejects ("fmax " ^ s) ~fmax:v ();
      rejects ("core_pmax " ^ s) ~core_pmax:v ();
      rejects ("idle_activity " ^ s) ~idle_activity:v ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* ------------------------------------------------------------------ *)
(* Policy *)

let get_pick = function
  | Some c -> c
  | None -> Alcotest.fail "expected a dispatch decision"

let homogeneous_classes n = Array.make n 0
let mask n idle = Policy_reference.mask_of ~n idle

let test_first_idle_lowest () =
  let pick = Sim.Policy.first_idle.Sim.Policy.choose in
  check_int "lowest" 1
    (get_pick
       (pick ~idle:(mask 8 [ 3; 1; 5 ]) ~core_classes:(homogeneous_classes 8)
          ~core_temperatures:(Vec.zeros 8)))

let test_coolest_first () =
  let temps = [| 90.0; 50.0; 70.0; 40.0; 95.0; 60.0; 55.0; 45.0 |] in
  let pick = Sim.Policy.coolest_first.Sim.Policy.choose in
  check_int "coolest among idle" 3
    (get_pick
       (pick ~idle:(mask 8 [ 0; 2; 3; 4 ]) ~core_classes:(homogeneous_classes 8)
          ~core_temperatures:temps));
  check_int "coolest overall" 3
    (get_pick
       (pick
          ~idle:(Array.make 8 true)
          ~core_classes:(homogeneous_classes 8) ~core_temperatures:temps))

let test_cool_headroom_defers () =
  let temps = [| 91.0; 93.0; 89.0; 95.0 |] in
  let policy = Sim.Policy.cool_headroom ~threshold:90.0 in
  let pick = policy.Sim.Policy.choose in
  check_int "dispatches below threshold" 2
    (get_pick
       (pick ~idle:(Array.make 4 true) ~core_classes:(homogeneous_classes 4)
          ~core_temperatures:temps));
  check_bool "defers when all hot" true
    (pick ~idle:(mask 4 [ 0; 1; 3 ]) ~core_classes:(homogeneous_classes 4)
       ~core_temperatures:temps
    = None)

(* The mask policies against the list-based originals they replaced
   (test/policy_reference.ml): random masks of 1-130 cells with at
   least one candidate, random class vectors, and temperatures drawn
   partly from a small pool so ties, NaNs and signed zeros occur. *)

let temperature_pool = [| 40.0; 40.0; 55.5; 85.0; 85.0; Float.nan; 0.0; -0.0 |]

let gen_mask n =
  QCheck2.Gen.(
    let* forced = int_range 0 (n - 1) in
    let+ bits = array_size (return n) bool in
    Array.mapi (fun k b -> b || k = forced) bits)

let gen_policy_case =
  QCheck2.Gen.(
    let* n = int_range 1 130 in
    let* mask = gen_mask n in
    let* classes = array_size (return n) (int_range 0 2) in
    let* temps =
      array_size (return n)
        (oneof [ oneofa temperature_pool; float_range 20.0 110.0 ])
    in
    let+ threshold = oneofa [| 50.0; 85.0; 90.0; Float.nan; infinity |] in
    (mask, classes, temps, threshold))

let print_policy_case (mask, classes, temps, threshold) =
  Printf.sprintf "mask=[%s] classes=[%s] temps=[%s] threshold=%g"
    (String.concat ";"
       (Array.to_list (Array.map (fun b -> if b then "1" else "0") mask)))
    (String.concat ";" (Array.to_list (Array.map string_of_int classes)))
    (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") temps)))
    threshold

let prop_mask_policies_match_reference =
  QCheck2.Test.make ~name:"policy: mask choice equals the list reference"
    ~count:500 ~print:print_policy_case gen_policy_case
    (fun (mask, core_classes, core_temperatures, threshold) ->
      let idle = Policy_reference.list_of_mask mask in
      let agree (p : Sim.Policy.assignment) reference =
        p.Sim.Policy.choose ~idle:mask ~core_classes ~core_temperatures
        = reference ~idle ~core_classes ~core_temperatures
      in
      agree Sim.Policy.first_idle Policy_reference.first_idle
      && agree Sim.Policy.coolest_first Policy_reference.coolest_first
      && agree
           (Sim.Policy.cool_headroom ~threshold)
           (Policy_reference.cool_headroom ~threshold))

let prop_round_robin_matches_reference =
  QCheck2.Test.make
    ~name:"policy: round-robin mask sequence equals the list reference"
    ~count:200
    QCheck2.Gen.(
      let* n = int_range 1 130 in
      list_size (int_range 1 40) (gen_mask n))
    (fun masks ->
      let rr = (Fleet.Balancer.round_robin ()).Fleet.Balancer.policy in
      let reference = Policy_reference.round_robin () in
      List.for_all
        (fun mask ->
          let n = Array.length mask in
          let core_classes = Array.make n 0 and core_temperatures = Vec.zeros n in
          rr.Sim.Policy.choose ~idle:mask ~core_classes ~core_temperatures
          = reference
              ~idle:(Policy_reference.list_of_mask mask)
              ~core_classes ~core_temperatures)
        masks)

(* A fleet-sized scan reads every candidate temperature; specialized to
   floats it allocates only the returned [Some] (2 words), where the
   generic compare boxed each temperature it read. *)
let test_coolest_first_allocation () =
  let n = 120 in
  let idle = Array.init n (fun k -> k mod 3 <> 0) in
  let core_temperatures =
    Array.init n (fun k -> 40.0 +. float_of_int ((k * 37) mod 50))
  in
  let core_classes = Array.make n 0 in
  let choose = Sim.Policy.coolest_first.Sim.Policy.choose in
  let calls = 10_000 in
  ignore (choose ~idle ~core_classes ~core_temperatures);
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore
      (Sys.opaque_identity (choose ~idle ~core_classes ~core_temperatures))
  done;
  (* The second [Gc.minor_words] boxes its result: 2 words in total. *)
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  check_bool
    (Printf.sprintf "%.3f minor words per call, at most the Some" per_call)
    true (per_call <= 2.001)

let test_workload_following_clamps () =
  let c = Sim.Policy.workload_following ~fmax:1e9 in
  let obs required =
    {
      Sim.Policy.time = 0.0;
      core_temperatures = Vec.zeros 8;
      max_core_temperature = 0.0;
      required_frequency = required;
      core_fmax = Vec.create 8 1e9;
      utilizations = Vec.zeros 8;
      queue_length = 0;
      queued_work = 0.0;
    }
  in
  let f = c.Sim.Policy.decide (obs 5e8) in
  check_float 1e-3 "matches demand" 5e8 f.(0);
  let f = c.Sim.Policy.decide (obs 2e9) in
  check_float 1e-3 "clamped to fmax" 1e9 f.(0)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_bands_sum_to_one () =
  let s = Sim.Stats.create ~n_cores:2 ~tmax:100.0 () in
  Sim.Stats.record_step s ~dt:0.1 ~core_temperatures:[| 75.0; 85.0 |];
  Sim.Stats.record_step s ~dt:0.1 ~core_temperatures:[| 95.0; 105.0 |];
  let total =
    List.fold_left (fun acc (_, f) -> acc +. f) 0.0 (Sim.Stats.band_residency s)
  in
  check_float 1e-9 "sums to 1" 1.0 total;
  check_float 1e-9 "above fraction" 0.25 (Sim.Stats.time_above s);
  check_int "violating steps" 1 (Sim.Stats.violation_steps s);
  check_float 1e-9 "peak" 105.0 (Sim.Stats.peak_temperature s)

let test_stats_gradient () =
  let s = Sim.Stats.create ~n_cores:2 ~tmax:100.0 () in
  Sim.Stats.record_step s ~dt:0.1 ~core_temperatures:[| 80.0; 90.0 |];
  Sim.Stats.record_step s ~dt:0.1 ~core_temperatures:[| 80.0; 84.0 |];
  check_float 1e-9 "peak gradient" 10.0 (Sim.Stats.peak_gradient s);
  check_float 1e-9 "mean gradient" 7.0 (Sim.Stats.mean_gradient s)

let test_stats_waiting () =
  let s = Sim.Stats.create ~n_cores:1 ~tmax:100.0 () in
  Sim.Stats.record_waiting s 0.2;
  Sim.Stats.record_waiting s 0.4;
  check_float 1e-9 "mean" 0.3 (Sim.Stats.mean_waiting s);
  check_float 1e-9 "max" 0.4 (Sim.Stats.max_waiting s);
  check_bool "negative rejected" true
    (match Sim.Stats.record_waiting s (-0.1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Engine *)

let small_trace n =
  Workload.Trace.generate ~seed:77L ~n_tasks:n Workload.Mix.web

let fast_controller =
  lazy (Sim.Policy.fixed_frequency ~fmax:1e9 1e9)

let test_engine_completes_all_tasks () =
  let m = Lazy.force machine in
  let trace = small_trace 2000 in
  let r =
    Sim.Engine.run m (Lazy.force fast_controller) Sim.Policy.first_idle trace
  in
  check_int "all done" 0 r.Sim.Engine.unfinished;
  check_int "completions" 2000 (Sim.Stats.completed r.Sim.Engine.stats)

let test_engine_finishes_near_horizon () =
  (* At fmax, a 45%-load web trace finishes just after the last
     arrival (plus the last task's length). *)
  let m = Lazy.force machine in
  let trace = small_trace 2000 in
  let r =
    Sim.Engine.run m (Lazy.force fast_controller) Sim.Policy.first_idle trace
  in
  let sim_t = Sim.Stats.simulated_time r.Sim.Engine.stats in
  check_bool "no long drain" true
    (sim_t < trace.Workload.Trace.horizon +. 1.0)

let test_engine_waiting_small_at_low_load () =
  let m = Lazy.force machine in
  let trace = small_trace 2000 in
  let r =
    Sim.Engine.run m (Lazy.force fast_controller) Sim.Policy.first_idle trace
  in
  (* 45% load on 8 cores at fmax: queueing is negligible. *)
  check_bool "small waiting" true
    (Sim.Stats.mean_waiting r.Sim.Engine.stats < 5e-3)

let test_engine_zero_frequency_never_finishes () =
  let m = Lazy.force machine in
  let trace = small_trace 50 in
  let stopped = Sim.Policy.fixed_frequency ~fmax:1e9 0.0 in
  let config = { Sim.Engine.default_config with Sim.Engine.drain_limit = 0.5 } in
  let r = Sim.Engine.run ~config m stopped Sim.Policy.first_idle trace in
  check_int "nothing completes" 50 r.Sim.Engine.unfinished

let test_engine_series_recorded () =
  let m = Lazy.force machine in
  let trace = small_trace 500 in
  let rec_probe, series = Sim.Probe.recorder () in
  let log_probe, frequency_log = Sim.Probe.frequency_log () in
  ignore
    (Sim.Engine.run ~probes:[ rec_probe; log_probe ] m
       (Lazy.force fast_controller) Sim.Policy.first_idle trace);
  let series = series () and frequency_log = frequency_log () in
  check_bool "series non-empty" true (Array.length series > 0);
  check_bool "one sample per epoch" true
    (Array.length series = Array.length frequency_log);
  (* Samples are 100 ms apart. *)
  check_float 1e-9 "epoch spacing" 0.1
    (series.(1).Sim.Probe.at -. series.(0).Sim.Probe.at)

let test_probe_stats_matches_engine () =
  (* The stats probe sees the same steps as the engine's internal
     accumulator, in the same order, so the thermal and energy fields
     must agree bit-for-bit. *)
  let m = Lazy.force machine in
  let trace = small_trace 500 in
  let probe, s =
    Sim.Probe.stats ~n_cores:m.Sim.Machine.n_cores
      ~tmax:Sim.Engine.default_config.Sim.Engine.tmax ()
  in
  let r =
    Sim.Engine.run ~probes:[ probe ] m (Lazy.force fast_controller)
      Sim.Policy.first_idle trace
  in
  let e = r.Sim.Engine.stats in
  check_int "steps" (Sim.Stats.total_steps e) (Sim.Stats.total_steps s);
  check_int "violations" (Sim.Stats.violation_steps e)
    (Sim.Stats.violation_steps s);
  check_bool "peak identical" true
    (Sim.Stats.peak_temperature e = Sim.Stats.peak_temperature s);
  check_bool "energy identical" true
    (Sim.Stats.energy e = Sim.Stats.energy s)

let test_probe_thermal_audit_agrees () =
  let m = Lazy.force machine in
  let trace = small_trace 500 in
  let tmax = 60.0 in
  let config = { Sim.Engine.default_config with Sim.Engine.tmax } in
  let probe, audit = Sim.Probe.thermal_audit ~tmax () in
  let r =
    Sim.Engine.run ~config ~probes:[ probe ] m (Lazy.force fast_controller)
      Sim.Policy.first_idle trace
  in
  let a = audit () in
  check_int "audited every step"
    (Sim.Stats.total_steps r.Sim.Engine.stats)
    a.Sim.Probe.audited_steps;
  check_int "violations agree"
    (Sim.Stats.violation_steps r.Sim.Engine.stats)
    a.Sim.Probe.violating_steps;
  (if a.Sim.Probe.violating_steps > 0 then
     match a.Sim.Probe.first_violation with
     | None -> Alcotest.fail "violations but no first-violation time"
     | Some t -> check_bool "first violation in range" true (t >= 0.0));
  check_bool "worst excess sane" true (a.Sim.Probe.worst_excess >= 0.0)

let test_probe_jsonl_streams () =
  let m = Lazy.force machine in
  let trace = small_trace 200 in
  let path = Filename.temp_file "protemp_probe" ".jsonl" in
  let oc = open_out path in
  let every = 50 in
  let r =
    Sim.Engine.run ~probes:[ Sim.Probe.jsonl ~every oc ] m
      (Lazy.force fast_controller) Sim.Policy.first_idle trace
  in
  close_out oc;
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       ignore line;
       incr lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let steps = Sim.Stats.total_steps r.Sim.Engine.stats in
  check_int "one line per [every] steps" ((steps + every - 1) / every) !lines

let test_probe_requires_callback () =
  check_bool "empty probe rejected" true
    (match Sim.Probe.make "empty" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_engine_rejects_non_finite_config () =
  (* A NaN tmax silently counted zero violations (a violation is
     [hottest > tmax]); a NaN drain limit made the deadline NaN, so a
     stalled run never stopped on it.  Every non-finite entry must be
     refused before the first step. *)
  let m = Lazy.force machine in
  let trace = small_trace 10 in
  let base = Sim.Engine.default_config in
  let rejected config =
    match
      Sim.Engine.run ~config m (Lazy.force fast_controller)
        Sim.Policy.first_idle trace
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  List.iter
    (fun x ->
      let name = Printf.sprintf "%g" x in
      check_bool ("tmax " ^ name) true
        (rejected { base with Sim.Engine.tmax = x });
      check_bool ("dfs_period " ^ name) true
        (rejected { base with Sim.Engine.dfs_period = x });
      check_bool ("drain_limit " ^ name) true
        (rejected { base with Sim.Engine.drain_limit = x });
      check_bool ("t_initial " ^ name) true
        (rejected { base with Sim.Engine.t_initial = Some x }))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  check_bool "finite config still runs" false (rejected base)

let test_stats_rejects_non_finite_tmax () =
  List.iter
    (fun tmax ->
      check_bool (Printf.sprintf "Stats.create tmax %g" tmax) true
        (match Sim.Stats.create ~n_cores:2 ~tmax () with
        | _ -> false
        | exception Invalid_argument _ -> true);
      check_bool (Printf.sprintf "thermal_audit tmax %g" tmax) true
        (match Sim.Probe.thermal_audit ~tmax () with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_engine_temperatures_stay_physical () =
  let m = Lazy.force machine in
  let trace = small_trace 1000 in
  let r =
    Sim.Engine.run m (Lazy.force fast_controller) Sim.Policy.first_idle trace
  in
  let peak = Sim.Stats.peak_temperature r.Sim.Engine.stats in
  check_bool "above ambient" true (peak > 27.0);
  check_bool "below all-max steady peak" true
    (peak <= Thermal.Niagara.target_peak +. 1e-6)

let test_engine_coolest_first_reduces_gradient () =
  (* Spreading work to cool cores lowers the spatial spread vs. always
     hammering the lowest-numbered cores. *)
  let m = Lazy.force machine in
  let trace =
    Workload.Trace.generate ~seed:99L ~n_tasks:4000 Workload.Mix.multimedia
  in
  let run assign =
    let r = Sim.Engine.run m (Lazy.force fast_controller) assign trace in
    Sim.Stats.mean_gradient r.Sim.Engine.stats
  in
  let g_first = run Sim.Policy.first_idle in
  let g_cool = run Sim.Policy.coolest_first in
  check_bool
    (Printf.sprintf "gradient %.2f < %.2f" g_cool g_first)
    true (g_cool < g_first)

let test_engine_clamps_overdriven_controller () =
  (* A controller demanding 3x fmax must behave exactly like one
     pinned at fmax: the engine clamps to the hardware ceiling. *)
  let m = Lazy.force machine in
  let trace = small_trace 500 in
  let overdriven =
    {
      Sim.Policy.controller_name = "overdriven";
      decide =
        (fun obs -> Vec.create (Vec.dim obs.Sim.Policy.core_temperatures) 3e9);
    }
  in
  let run ctrl =
    let r = Sim.Engine.run m ctrl Sim.Policy.first_idle trace in
    ( Sim.Stats.peak_temperature r.Sim.Engine.stats,
      Sim.Stats.energy r.Sim.Engine.stats,
      Sim.Stats.simulated_time r.Sim.Engine.stats )
  in
  check_bool "identical to fmax run" true
    (run overdriven = run (Lazy.force fast_controller))

let test_engine_rejects_nan_frequency () =
  let m = Lazy.force machine in
  let trace = small_trace 10 in
  let nan_controller =
    {
      Sim.Policy.controller_name = "nan";
      decide =
        (fun obs -> Vec.create (Vec.dim obs.Sim.Policy.core_temperatures) Float.nan);
    }
  in
  check_bool "NaN rejected" true
    (match Sim.Engine.run m nan_controller Sim.Policy.first_idle trace with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_engine_migration_rescues_stalled_tasks () =
  (* A controller that permanently stops core 0 but runs the others:
     without migration, a task stuck on core 0 never finishes; with
     migration it moves and completes. *)
  let m = Lazy.force machine in
  let stop_core0 =
    {
      Sim.Policy.controller_name = "stop-core0";
      decide =
        (fun obs ->
          Vec.init (Vec.dim obs.Sim.Policy.core_temperatures) (fun c ->
              if c = 0 then 0.0 else 1e9));
    }
  in
  let trace = small_trace 200 in
  let config =
    { Sim.Engine.default_config with Sim.Engine.drain_limit = 2.0 }
  in
  let without =
    Sim.Engine.run ~config m stop_core0 Sim.Policy.first_idle trace
  in
  (* first-idle prefers core 0, so tasks do get stuck there *)
  check_bool "tasks stall without migration" true
    (without.Sim.Engine.unfinished > 0);
  let with_migration =
    Sim.Engine.run
      ~config:{ config with Sim.Engine.migration = true }
      m stop_core0 Sim.Policy.first_idle trace
  in
  check_int "all complete with migration" 0 with_migration.Sim.Engine.unfinished;
  check_bool "migrations counted" true (with_migration.Sim.Engine.migrations > 0)

let test_engine_cool_headroom_defers_dispatch () =
  (* Engine-level deferral: a machine started at 95 C with a
     cool-headroom@90 policy must hold the queued task (all idle cores
     are too hot), then dispatch it once the idle cores cool below the
     threshold — so the task completes but with a non-zero wait. *)
  let m = Lazy.force machine in
  let task =
    { Workload.Task.id = 0; arrival = 0.0; work = 1e-3; benchmark = Web }
  in
  let trace =
    { Workload.Trace.tasks = [| task |]; mix_name = "single"; horizon = 0.0 }
  in
  let config =
    { Sim.Engine.default_config with Sim.Engine.t_initial = Some 95.0 }
  in
  let ctrl = Lazy.force fast_controller in
  let hot =
    Sim.Engine.run ~config m ctrl
      (Sim.Policy.cool_headroom ~threshold:90.0)
      trace
  in
  check_int "completes after cooling" 0 hot.Sim.Engine.unfinished;
  check_bool "dispatch deferred while hot" true
    (Sim.Stats.max_waiting hot.Sim.Engine.stats > 0.0);
  let eager = Sim.Engine.run ~config m ctrl Sim.Policy.first_idle trace in
  check_float 1e-12 "immediate without headroom" 0.0
    (Sim.Stats.max_waiting eager.Sim.Engine.stats)

(* ------------------------------------------------------------------ *)
(* Golden regression: allocation-free engine vs the reference path *)

let protemp_table () =
  let freqs v = Protemp.Table.Frequencies (Vec.create 8 v) in
  Protemp.Table.make ~tstarts:[| 50.0; 80.0; 100.0 |]
    ~ftargets:[| 2e8; 5e8; 8e8 |]
    [|
      [| freqs 2e8; freqs 5e8; freqs 8e8 |];
      [| freqs 2e8; freqs 5e8; Protemp.Table.Infeasible |];
      [| freqs 2e8; Protemp.Table.Infeasible; Protemp.Table.Infeasible |];
    |]

let check_matches_reference name config mk_controller assignment trace =
  let m = Lazy.force machine in
  (* Controllers may be stateful (Basic-DFS keeps a reading history),
     so each run gets a fresh one. *)
  let fresh = Sim.Engine.run ~config m (mk_controller ()) assignment trace in
  let oracle =
    Engine_reference.run ~config m (mk_controller ()) assignment trace
  in
  check_bool (name ^ ": stats bit-for-bit") true
    (Sim.Stats.equal fresh.Sim.Engine.stats oracle.Sim.Engine.stats);
  check_int (name ^ ": unfinished") oracle.Sim.Engine.unfinished
    fresh.Sim.Engine.unfinished;
  check_int (name ^ ": migrations") oracle.Sim.Engine.migrations
    fresh.Sim.Engine.migrations;
  fresh.Sim.Engine.migrations

let test_engine_matches_reference_golden () =
  let trace = small_trace 1000 in
  let config = Sim.Engine.default_config in
  ignore
    (check_matches_reference "no-tc" config
       (fun () -> Sim.Policy.workload_following ~fmax:1e9)
       Sim.Policy.first_idle trace);
  ignore
    (check_matches_reference "basic-dfs" config
       (fun () -> Protemp.Basic_dfs.create ~fmax:1e9 ())
       Sim.Policy.coolest_first trace);
  ignore
    (check_matches_reference "pro-temp" config
       (fun () -> Protemp.Controller.create ~table:(protemp_table ()))
       Sim.Policy.coolest_first trace)

let test_engine_matches_reference_with_migration () =
  let stop_core0 =
    {
      Sim.Policy.controller_name = "stop-core0";
      decide =
        (fun obs ->
          Vec.init (Vec.dim obs.Sim.Policy.core_temperatures) (fun c ->
              if c = 0 then 0.0 else 1e9));
    }
  in
  let config =
    {
      Sim.Engine.default_config with
      Sim.Engine.drain_limit = 2.0;
      migration = true;
    }
  in
  let migrations =
    check_matches_reference "migration" config
      (fun () -> stop_core0)
      Sim.Policy.first_idle (small_trace 200)
  in
  check_bool "migration path exercised" true (migrations > 0)

(* The steady trace, also the speed gate's input below: one task that
   outlives the run, so every cold edge (arrivals, dispatch,
   completions) stays out of the loop and only the pure step path runs
   until the 8 s drain deadline. *)
let steady_trace =
  let task =
    { Workload.Task.id = 0; arrival = 0.0; work = 1e6; benchmark = Web }
  in
  { Workload.Trace.tasks = [| task |]; mix_name = "steady"; horizon = 0.0 }

let steady_config =
  { Sim.Engine.default_config with Sim.Engine.drain_limit = 8.0 }

let fixed_fmax () = Sim.Policy.fixed_frequency ~fmax:1e9 1e9

let test_engine_matches_reference_steady () =
  ignore
    (check_matches_reference "steady" steady_config fixed_fmax
       Sim.Policy.first_idle steady_trace)

(* The paper's workload shape: arrivals, dispatch and epoch decisions
   mixed into the step stream. *)
let test_engine_matches_reference_web_trace () =
  let trace =
    Workload.Trace.generate ~seed:42L ~n_tasks:6000 Workload.Mix.web
  in
  ignore
    (check_matches_reference "web trace" Sim.Engine.default_config fixed_fmax
       Sim.Policy.first_idle trace)

(* The step-loop speed gate: on the steady trace the chip's loop must
   run at least 3x faster than the oracle it was refactored from.
   Runs interleave and each side keeps its best of three, so a burst
   of host noise cannot land on one side only. *)
let test_engine_steady_speedup () =
  let m = Lazy.force machine in
  let time run =
    let t0 = Unix.gettimeofday () in
    ignore (run ());
    Unix.gettimeofday () -. t0
  in
  let fresh () =
    Sim.Engine.run ~config:steady_config m (fixed_fmax ())
      Sim.Policy.first_idle steady_trace
  and oracle () =
    Engine_reference.run ~config:steady_config m (fixed_fmax ())
      Sim.Policy.first_idle steady_trace
  in
  ignore (time fresh);
  ignore (time oracle);
  let best_fresh = ref infinity and best_oracle = ref infinity in
  for _ = 1 to 3 do
    best_fresh := Float.min !best_fresh (time fresh);
    best_oracle := Float.min !best_oracle (time oracle)
  done;
  let speedup = !best_oracle /. !best_fresh in
  check_bool
    (Printf.sprintf "steady-state speedup %.2fx >= 3x" speedup)
    true (speedup >= 3.0)

(* ------------------------------------------------------------------ *)
(* Allocation discipline *)

let test_engine_zero_alloc_steady_state () =
  (* Two runs that differ only in how many steady-state steps they
     take (one long-running task, one epoch at step 0, no arrivals or
     dispatches after the start) must allocate exactly the same number
     of minor-heap words: the per-step path allocates nothing. *)
  let m = Lazy.force machine in
  let config =
    {
      Sim.Engine.default_config with
      Sim.Engine.dfs_period = 100.0;
      drain_limit = 0.0;
    }
  in
  let ctrl = Lazy.force fast_controller in
  let words horizon =
    let task =
      { Workload.Task.id = 0; arrival = 0.0; work = 100.0; benchmark = Web }
    in
    let trace =
      { Workload.Trace.tasks = [| task |]; mix_name = "synthetic"; horizon }
    in
    (* Warm-up run forces any one-time lazy initialization. *)
    ignore (Sim.Engine.run ~config m ctrl Sim.Policy.first_idle trace);
    let before = Gc.minor_words () in
    ignore (Sim.Engine.run ~config m ctrl Sim.Policy.first_idle trace);
    Gc.minor_words () -. before
  in
  let short = words 0.2 and long = words 0.4 in
  (* 0.2 s more simulated time = 500 more thermal steps. *)
  check_float 0.0 "extra minor words for 500 extra steps" 0.0 (long -. short)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_engine_conserves_tasks =
  QCheck2.Test.make ~name:"engine: dispatched = completed + unfinished"
    ~count:10
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let m = Lazy.force machine in
      let trace =
        Workload.Trace.generate ~seed:(Int64.of_int seed) ~n_tasks:500
          Workload.Mix.web
      in
      let r =
        Sim.Engine.run m (Lazy.force fast_controller) Sim.Policy.first_idle
          trace
      in
      Sim.Stats.completed r.Sim.Engine.stats + r.Sim.Engine.unfinished = 500)

let prop_engine_deterministic =
  QCheck2.Test.make ~name:"engine: identical runs agree" ~count:5
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let m = Lazy.force machine in
      let trace =
        Workload.Trace.generate ~seed:(Int64.of_int seed) ~n_tasks:300
          Workload.Mix.web
      in
      let run () =
        let r =
          Sim.Engine.run m (Lazy.force fast_controller) Sim.Policy.first_idle
            trace
        in
        ( Sim.Stats.peak_temperature r.Sim.Engine.stats,
          Sim.Stats.mean_waiting r.Sim.Engine.stats )
      in
      run () = run ())

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_engine_conserves_tasks; prop_engine_deterministic ]

let () =
  Alcotest.run "sim"
    [
      ( "machine",
        [
          Alcotest.test_case "niagara shape" `Quick test_machine_shape;
          Alcotest.test_case "core power law" `Quick test_machine_core_power;
          Alcotest.test_case "idle below busy" `Quick
            test_machine_idle_never_exceeds_busy;
          Alcotest.test_case "power vector" `Quick test_machine_power_vector;
          Alcotest.test_case "validation" `Quick test_machine_validation;
          Alcotest.test_case "rejects non-finite parameters" `Quick
            test_machine_rejects_non_finite;
        ] );
      ( "policy",
        [
          Alcotest.test_case "first idle" `Quick test_first_idle_lowest;
          Alcotest.test_case "coolest first" `Quick test_coolest_first;
          Alcotest.test_case "cool headroom defers" `Quick
            test_cool_headroom_defers;
          Alcotest.test_case "workload following clamps" `Quick
            test_workload_following_clamps;
          Alcotest.test_case "coolest-first allocates only its answer"
            `Quick test_coolest_first_allocation;
          QCheck_alcotest.to_alcotest prop_mask_policies_match_reference;
          QCheck_alcotest.to_alcotest prop_round_robin_matches_reference;
        ] );
      ( "stats",
        [
          Alcotest.test_case "bands" `Quick test_stats_bands_sum_to_one;
          Alcotest.test_case "gradient" `Quick test_stats_gradient;
          Alcotest.test_case "waiting" `Quick test_stats_waiting;
          Alcotest.test_case "non-finite tmax rejected" `Quick
            test_stats_rejects_non_finite_tmax;
        ] );
      ( "engine",
        [
          Alcotest.test_case "completes all tasks" `Quick
            test_engine_completes_all_tasks;
          Alcotest.test_case "finishes near horizon" `Quick
            test_engine_finishes_near_horizon;
          Alcotest.test_case "low-load waiting" `Quick
            test_engine_waiting_small_at_low_load;
          Alcotest.test_case "zero frequency stalls" `Quick
            test_engine_zero_frequency_never_finishes;
          Alcotest.test_case "series recording" `Quick
            test_engine_series_recorded;
          Alcotest.test_case "temperatures physical" `Quick
            test_engine_temperatures_stay_physical;
          Alcotest.test_case "coolest-first lowers gradient" `Quick
            test_engine_coolest_first_reduces_gradient;
          Alcotest.test_case "overdriven controller clamped to fmax" `Quick
            test_engine_clamps_overdriven_controller;
          Alcotest.test_case "NaN frequency rejected" `Quick
            test_engine_rejects_nan_frequency;
          Alcotest.test_case "non-finite config rejected" `Quick
            test_engine_rejects_non_finite_config;
          Alcotest.test_case "migration rescues stalled tasks" `Quick
            test_engine_migration_rescues_stalled_tasks;
          Alcotest.test_case "cool-headroom defers dispatch" `Quick
            test_engine_cool_headroom_defers_dispatch;
        ] );
      ( "probes",
        [
          Alcotest.test_case "stats probe matches engine" `Quick
            test_probe_stats_matches_engine;
          Alcotest.test_case "thermal audit agrees with stats" `Quick
            test_probe_thermal_audit_agrees;
          Alcotest.test_case "jsonl sink streams" `Quick
            test_probe_jsonl_streams;
          Alcotest.test_case "probe needs a callback" `Quick
            test_probe_requires_callback;
        ] );
      ( "golden",
        [
          Alcotest.test_case "matches reference (no-tc, basic, pro)" `Quick
            test_engine_matches_reference_golden;
          Alcotest.test_case "matches reference with migration" `Quick
            test_engine_matches_reference_with_migration;
          Alcotest.test_case "matches reference on the steady trace" `Quick
            test_engine_matches_reference_steady;
          Alcotest.test_case "matches reference on the web trace" `Quick
            test_engine_matches_reference_web_trace;
          Alcotest.test_case "steady state 3x the reference" `Slow
            test_engine_steady_speedup;
          Alcotest.test_case "steady-state step allocates nothing" `Quick
            test_engine_zero_alloc_steady_state;
        ] );
      ("properties", props);
    ]
