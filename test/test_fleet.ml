(* Tests for the fleet layer: exact trace partitioning, the
   waiting-time sketch and merge, the chip/engine golden equivalence
   (whole trace and arbitrary slicing), the steady slice's allocation,
   domain-count invariance, chip-level fault composition, and the
   thermal-aware balancer. *)

open Workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float tol = Alcotest.(check (float tol))
let machine = lazy (Sim.Machine.niagara ())

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Trace windowing and degenerate statistics (the bugfixes) *)

let prop_windows_partition =
  QCheck2.Test.make ~name:"trace: k-windowing is an exact partition"
    ~count:60
    QCheck2.Gen.(pair (int_range 1 32) (int_range 1 1000))
    (fun (k, seed) ->
      let trace =
        Trace.generate ~seed:(Int64.of_int seed) ~n_tasks:200 Mix.paper_mix
      in
      let slices = Trace.windows trace ~k in
      let flat = Array.concat (Array.to_list slices) in
      (* Every task id exactly once, in the original order: no drops
         (the old half-open windowing lost the task arriving exactly
         at the horizon), no duplicates. *)
      Array.length flat = Array.length trace.Trace.tasks
      && Array.for_all2
           (fun (a : Task.t) (b : Task.t) -> a.Task.id = b.Task.id)
           trace.Trace.tasks flat)

let test_windows_last_task_kept () =
  let trace = Trace.generate ~seed:7L ~n_tasks:500 Mix.web in
  let last = trace.Trace.tasks.(499) in
  (* The last task arrives exactly at the horizon; the closed query
     and the partition must both include it. *)
  check_float 0.0 "last arrival is the horizon" trace.Trace.horizon
    last.Task.arrival;
  let closed =
    Trace.tasks_in_window ~closed:true trace
      ~lo:(trace.Trace.horizon /. 2.0)
      ~hi:trace.Trace.horizon
  in
  check_bool "closed window includes the horizon task" true
    (List.exists (fun t -> t.Task.id = last.Task.id) closed);
  let slices = Trace.windows trace ~k:8 in
  let final = slices.(7) in
  check_bool "final slice includes the horizon task" true
    (Array.exists (fun t -> t.Task.id = last.Task.id) final)

let test_generate_horizon_after_sort () =
  (* The horizon must be the largest arrival of the *sorted* tasks for
     every seed — reading the pre-sort array's last element happened
     to agree only because generators emit increasing times. *)
  for seed = 1 to 20 do
    let trace =
      Trace.generate ~seed:(Int64.of_int seed) ~n_tasks:100 Mix.paper_mix
    in
    Array.iter
      (fun t ->
        check_bool "no arrival past the horizon" true
          (t.Task.arrival <= trace.Trace.horizon))
      trace.Trace.tasks
  done

let test_statistics_degenerate () =
  let one = Trace.generate ~seed:3L ~n_tasks:1 Mix.web in
  let s = Trace.statistics one ~n_cores:8 in
  check_int "count" 1 s.Trace.count;
  check_float 0.0 "1-task trace has no interarrival gap" 0.0
    s.Trace.mean_interarrival;
  let instant =
    {
      Trace.tasks =
        [|
          { Task.id = 0; arrival = 0.0; work = 1e-3; benchmark = Task.Web };
        |];
      mix_name = "instant";
      horizon = 0.0;
    }
  in
  let s0 = Trace.statistics instant ~n_cores:8 in
  check_float 0.0 "zero horizon offers no sustained load" 0.0
    s0.Trace.offered_utilization;
  check_float 0.0 "zero horizon has no interarrival gap" 0.0
    s0.Trace.mean_interarrival;
  check_float 1e-12 "work still counted" 1e-3 s0.Trace.total_work

(* ------------------------------------------------------------------ *)
(* Stats: waiting clamp, percentile sketch, merge *)

let test_record_waiting_clamp () =
  let s = Sim.Stats.create ~n_cores:1 ~tmax:100.0 () in
  (* Float dust from cross-chip clock subtraction must be absorbed. *)
  Sim.Stats.record_waiting s (-1e-18);
  Sim.Stats.record_waiting s (-1e-12);
  check_float 0.0 "dust clamps to zero" 0.0 (Sim.Stats.mean_waiting s);
  check_float 0.0 "max untouched" 0.0 (Sim.Stats.max_waiting s);
  (* Genuinely negative waits are still accounting bugs. *)
  check_bool "genuinely negative still raises" true
    (raises_invalid (fun () -> Sim.Stats.record_waiting s (-1.0)));
  check_bool "below the epsilon raises" true
    (raises_invalid (fun () -> Sim.Stats.record_waiting s (-1e-6)))

let test_waiting_percentile () =
  let s = Sim.Stats.create ~n_cores:1 ~tmax:100.0 () in
  check_float 0.0 "empty sketch reports 0" 0.0
    (Sim.Stats.waiting_percentile s 0.99);
  (* 100 waits: 1ms .. 100ms. *)
  for i = 1 to 100 do
    Sim.Stats.record_waiting s (float_of_int i *. 1e-3)
  done;
  let p50 = Sim.Stats.waiting_percentile s 0.5
  and p95 = Sim.Stats.waiting_percentile s 0.95
  and p99 = Sim.Stats.waiting_percentile s 0.99
  and p100 = Sim.Stats.waiting_percentile s 1.0 in
  (* The sketch is conservative (bucket upper edge, ~8.5% relative
     resolution): never below the true quantile, never more than one
     gamma above it. *)
  let within truth est =
    est >= truth -. 1e-12 && est <= truth *. 1.1 +. 1e-12
  in
  check_bool "p50 in band" true (within 0.050 p50);
  check_bool "p95 in band" true (within 0.095 p95);
  check_bool "p99 in band" true (within 0.099 p99);
  check_float 1e-12 "p100 is the exact max" 0.1 p100;
  check_bool "monotone" true (p50 <= p95 && p95 <= p99 && p99 <= p100);
  check_bool "quantile range checked" true
    (raises_invalid (fun () -> Sim.Stats.waiting_percentile s 1.5))

let test_merge_into () =
  let a = Sim.Stats.create ~n_cores:1 ~tmax:100.0 () in
  let b = Sim.Stats.create ~n_cores:1 ~tmax:100.0 () in
  let both = Sim.Stats.create ~n_cores:1 ~tmax:100.0 () in
  let temps_a = [| 85.0 |] and temps_b = [| 103.0 |] in
  Sim.Stats.record_step a ~dt:0.1 ~core_temperatures:temps_a;
  Sim.Stats.record_step b ~dt:0.1 ~core_temperatures:temps_b;
  Sim.Stats.record_step both ~dt:0.1 ~core_temperatures:temps_a;
  Sim.Stats.record_step both ~dt:0.1 ~core_temperatures:temps_b;
  Sim.Stats.record_waiting a 2e-3;
  Sim.Stats.record_waiting b 7e-3;
  Sim.Stats.record_waiting both 2e-3;
  Sim.Stats.record_waiting both 7e-3;
  Sim.Stats.record_energy a 1.0;
  Sim.Stats.record_energy b 2.5;
  Sim.Stats.record_energy both 3.5;
  Sim.Stats.merge_into ~into:a b;
  check_int "steps add" 2 (Sim.Stats.total_steps a);
  check_int "violations add" 1 (Sim.Stats.violation_steps a);
  check_float 1e-12 "peak is the max" 103.0 (Sim.Stats.peak_temperature a);
  check_float 1e-12 "waits merge" 4.5e-3 (Sim.Stats.mean_waiting a);
  check_float 1e-12 "max wait merges" 7e-3 (Sim.Stats.max_waiting a);
  check_float 1e-12 "energy adds" 3.5 (Sim.Stats.energy a);
  check_float 1e-12 "sketch merges (p100)" 7e-3
    (Sim.Stats.waiting_percentile a 1.0);
  check_bool "merged equals the single-stream recording" true
    (Sim.Stats.equal a both);
  let other = Sim.Stats.create ~n_cores:2 ~tmax:100.0 () in
  check_bool "config mismatch raises" true
    (raises_invalid (fun () -> Sim.Stats.merge_into ~into:a other));
  check_bool "self-merge raises" true
    (raises_invalid (fun () -> Sim.Stats.merge_into ~into:a a))

(* ------------------------------------------------------------------ *)
(* Fleet *)

let fleet_trace = lazy (Trace.generate ~seed:11L ~n_tasks:250 Mix.web)

let plain_chip ?t_initial () =
  let config = { Sim.Engine.default_config with t_initial } in
  Fleet.Chip.create ~config ~machine:(Lazy.force machine)
    ~controller:(Sim.Policy.fixed_frequency ~fmax:1e9 8e8)
    ~assignment:Sim.Policy.first_idle ()

let test_one_chip_matches_engine () =
  (* A one-chip fleet is the engine with extra steps removed: same
     state, same per-step operation order — the statistics must be
     bit-identical, not merely close. *)
  let trace = Lazy.force fleet_trace in
  let engine =
    Sim.Engine.run (Lazy.force machine)
      (Sim.Policy.fixed_frequency ~fmax:1e9 8e8)
      Sim.Policy.first_idle trace
  in
  let fleet =
    Fleet.Cluster.run
      ~config:{ Fleet.Cluster.default_config with n_chips = 1 }
      ~domains:1
      ~balancer:(Fleet.Balancer.round_robin ())
      ~chip:(fun _ -> plain_chip ())
      trace
  in
  check_int "all tasks routed" 250 fleet.Fleet.Cluster.routed;
  check_int "nothing held" 0 fleet.Fleet.Cluster.held;
  check_int "nothing unfinished" 0 fleet.Fleet.Cluster.unfinished;
  check_bool "stats bit-identical to the engine" true
    (Sim.Stats.equal engine.Sim.Engine.stats fleet.Fleet.Cluster.stats)

let run_fleet ~domains =
  Fleet.Cluster.run
    ~config:
      {
        Fleet.Cluster.default_config with
        n_chips = 6;
        thermal_penalty = 50.0;
      }
    ~domains
    ~balancer:(Fleet.Balancer.coolest_headroom ())
    ~chip:(fun i ->
      plain_chip ~t_initial:(45.0 +. (3.0 *. float_of_int i)) ())
    (Lazy.force fleet_trace)

let test_domain_count_invariance () =
  let r1 = run_fleet ~domains:1 in
  let r3 = run_fleet ~domains:3 in
  let r8 = run_fleet ~domains:8 in
  check_bool "1 vs 3 domains bit-identical" true
    (Sim.Stats.equal r1.Fleet.Cluster.stats r3.Fleet.Cluster.stats);
  check_bool "1 vs 8 domains bit-identical" true
    (Sim.Stats.equal r1.Fleet.Cluster.stats r8.Fleet.Cluster.stats);
  check_int "same routing (3 domains)" r1.Fleet.Cluster.routed
    r3.Fleet.Cluster.routed;
  check_int "same routing (8 domains)" r1.Fleet.Cluster.routed
    r8.Fleet.Cluster.routed;
  check_bool "per-chip violations identical" true
    (r1.Fleet.Cluster.chip_violations = r8.Fleet.Cluster.chip_violations)

let test_chip_fault_composition () =
  (* Chip-level faults inside a fleet run: wrapping one chip's
     controller must change that chip's (and only deterministically
     that) behaviour while the fleet machinery is untouched. *)
  let faulted_chip i =
    let controller = Sim.Policy.fixed_frequency ~fmax:1e9 8e8 in
    let controller =
      if i = 0 then
        Sim.Fault.wrap
          ~faults:[ Sim.Fault.quantized_actuator ~levels:[| 5e8 |] ]
          controller
      else controller
    in
    Fleet.Chip.create ~machine:(Lazy.force machine) ~controller
      ~assignment:Sim.Policy.first_idle ()
  in
  let config = { Fleet.Cluster.default_config with n_chips = 2 } in
  let balancer () = Fleet.Balancer.round_robin () in
  let trace = Lazy.force fleet_trace in
  let clean =
    Fleet.Cluster.run ~config ~domains:1 ~balancer:(balancer ())
      ~chip:(fun _ -> plain_chip ())
      trace
  in
  let faulted =
    Fleet.Cluster.run ~config ~domains:1 ~balancer:(balancer ())
      ~chip:faulted_chip trace
  in
  check_int "clean fleet finishes" 0 clean.Fleet.Cluster.unfinished;
  check_int "faulted fleet finishes" 0 faulted.Fleet.Cluster.unfinished;
  (* The quantized actuator floors chip 0 to half frequency: its tasks
     run longer, so the aggregate must differ. *)
  check_bool "fault changes the aggregate" false
    (Sim.Stats.equal clean.Fleet.Cluster.stats faulted.Fleet.Cluster.stats)

let test_take_queued () =
  let c = plain_chip () in
  Fleet.Chip.submit c ~arrival:0.0 ~work:1e-3;
  Fleet.Chip.submit c ~arrival:1.0 ~work:2e-3;
  Fleet.Chip.submit c ~arrival:2.0 ~work:3e-3;
  check_int "queued" 3 (Fleet.Chip.queued c);
  let taken = Fleet.Chip.take_queued c ~max:2 in
  check_int "took two" 2 (Array.length taken);
  check_bool "latest arrivals, ascending" true
    (taken = [| (1.0, 2e-3); (2.0, 3e-3) |]);
  check_int "one left" 1 (Fleet.Chip.queued c);
  check_int "submitted adjusted" 1 (Fleet.Chip.submitted c)

(* A chip stepped through arbitrary slices — boundaries mid-epoch, on
   an epoch boundary, repeated (zero-length) or behind the clock — then
   drained must be the engine run on the same trace, bit for bit:
   slicing moves only where the loop pauses, never what a step does.
   Boundaries stay within the engine's run, since [advance] steps on
   after the last completion where the engine would have stopped. *)
let prop_slices_match_engine =
  QCheck2.Test.make ~name:"chip: any slicing then drain = Engine.run"
    ~count:25
    QCheck2.Gen.(
      pair (int_range 1 1000)
        (list_size (int_range 0 12)
           (pair (int_range 0 3) (float_bound_inclusive 1.0))))
    (fun (seed, cuts) ->
      let m = Lazy.force machine in
      let trace =
        Trace.generate ~seed:(Int64.of_int seed) ~n_tasks:120 Mix.web
      in
      let controller () = Sim.Policy.workload_following ~fmax:1e9 in
      let engine = Sim.Engine.run m (controller ()) Sim.Policy.first_idle trace in
      let config = Sim.Engine.default_config in
      (* The engine's clock when it stopped, as the chip computes it. *)
      let t_end =
        float_of_int (Sim.Stats.total_steps engine.Sim.Engine.stats)
        *. m.Sim.Machine.thermal.Thermal.Rc_model.dt
      in
      let chip =
        Fleet.Chip.create ~machine:m ~controller:(controller ())
          ~assignment:Sim.Policy.first_idle ()
      in
      Fleet.Chip.submit_trace chip trace;
      let until = ref 0.0 in
      List.iter
        (fun (kind, f) ->
          (match kind with
          | 0 -> () (* the previous boundary again: a zero-length slice *)
          | 1 ->
              let period = config.Sim.Engine.dfs_period in
              until := Float.min t_end (Float.round (f *. t_end /. period) *. period)
          | _ -> until := f *. t_end);
          Fleet.Chip.advance chip ~until:!until)
        cuts;
      Fleet.Chip.drain chip
        ~deadline:(trace.Trace.horizon +. config.Sim.Engine.drain_limit);
      Fleet.Chip.finalize chip;
      Sim.Stats.equal engine.Sim.Engine.stats (Fleet.Chip.stats chip)
      && engine.Sim.Engine.unfinished = Fleet.Chip.unfinished chip)

let test_advance_zero_alloc_steady_state () =
  (* One long task dispatched at step 0 under a single epoch: after the
     first slice nothing arrives, dispatches or crosses an epoch, so a
     slice of 1000 steps must allocate exactly what a slice of 500
     does — nothing per step. *)
  let config =
    { Sim.Engine.default_config with Sim.Engine.dfs_period = 100.0 }
  in
  let chip =
    Fleet.Chip.create ~config ~machine:(Lazy.force machine)
      ~controller:(Sim.Policy.fixed_frequency ~fmax:1e9 8e8)
      ~assignment:Sim.Policy.first_idle ()
  in
  Fleet.Chip.submit chip ~arrival:0.0 ~work:100.0;
  Fleet.Chip.advance chip ~until:0.01;
  check_int "the task is running" 0 (Fleet.Chip.queued chip);
  let words ~until =
    let before = Gc.minor_words () in
    Fleet.Chip.advance chip ~until;
    Gc.minor_words () -. before
  in
  (* 0.4 ms steps: 0.01 -> 0.21 is 500 steps, 0.21 -> 0.61 is 1000. *)
  let short = words ~until:0.21 in
  let long = words ~until:0.61 in
  check_float 0.0 "extra minor words for 500 extra steps" 0.0 (long -. short);
  check_int "still running" 0 (Fleet.Chip.completed chip)

let test_non_finite_config_rejected () =
  (* The same guarantee gap as in the engine: a NaN tmax counted zero
     violations, and a NaN window or penalty passed the sign checks. *)
  let raises_with config =
    raises_invalid (fun () ->
        Fleet.Cluster.run ~config ~domains:1
          ~balancer:(Fleet.Balancer.round_robin ())
          ~chip:(fun _ -> plain_chip ())
          (Lazy.force fleet_trace))
  in
  let base = Fleet.Cluster.default_config in
  List.iter
    (fun x ->
      let name = Printf.sprintf " %g" x in
      check_bool ("chip tmax" ^ name) true
        (raises_invalid (fun () ->
             Fleet.Chip.create
               ~config:{ Sim.Engine.default_config with Sim.Engine.tmax = x }
               ~machine:(Lazy.force machine)
               ~controller:(Sim.Policy.fixed_frequency ~fmax:1e9 8e8)
               ~assignment:Sim.Policy.first_idle ()));
      check_bool ("window" ^ name) true
        (raises_with { base with Fleet.Cluster.window = x });
      check_bool ("thermal_penalty" ^ name) true
        (raises_with { base with Fleet.Cluster.thermal_penalty = x });
      check_bool ("drain_limit" ^ name) true
        (raises_with { base with Fleet.Cluster.drain_limit = x }))
    [ Float.nan; Float.infinity ];
  check_bool "drain deadline NaN" true
    (raises_invalid (fun () -> Fleet.Chip.drain (plain_chip ()) ~deadline:Float.nan))

(* The heterogeneous rack: odd chips sit in a hot aisle (fixed power
   scaled up, so they idle near 87 C instead of 37 C), even chips in a
   cool one.  Under the fair-share split of round-robin the hot-aisle
   chips cross the threshold; the coolest-headroom balancer skews the
   stream toward the cool aisle and quarantines the hot one behind the
   guard band.  The shadow penalty matters here: without it one cool
   chip absorbs each whole window as a burst and overshoots where the
   steady fair share would not have. *)
let hot_aisle_chip i =
  let base = Lazy.force machine in
  let m =
    if i land 1 = 1 then
      Sim.Machine.make ~thermal:base.Sim.Machine.thermal
        ~core_nodes:base.Sim.Machine.core_nodes
        ~fixed_power:
          (Array.map (fun p -> p *. 6.0) base.Sim.Machine.fixed_power)
        ~fmax:1e9 ~core_pmax:4.0 ()
    else base
  in
  Fleet.Chip.create ~machine:m
    ~controller:(Sim.Policy.workload_following ~fmax:1e9)
    ~assignment:Sim.Policy.first_idle ()

let test_balancer_beats_round_robin () =
  (* Sized so the whole stream fits on 4 chips: generated for 10 cores
     against the fleet's 32, i.e. ~28% fleet duty. *)
  let trace = Trace.generate ~n_cores:10 ~seed:23L ~n_tasks:4000 Mix.compute_intensive in
  let config =
    {
      Fleet.Cluster.default_config with
      n_chips = 4;
      migrate = true;
      thermal_penalty = 60.0;
    }
  in
  let rr =
    Fleet.Cluster.run ~config ~domains:2
      ~balancer:(Fleet.Balancer.round_robin ()) ~chip:hot_aisle_chip trace
  in
  let cool =
    Fleet.Cluster.run ~config ~domains:2
      ~balancer:(Fleet.Balancer.coolest_headroom ~guard:5.0 ())
      ~chip:hot_aisle_chip trace
  in
  check_int "round-robin finishes" 0 rr.Fleet.Cluster.unfinished;
  check_int "coolest finishes" 0 cool.Fleet.Cluster.unfinished;
  check_bool "coolest-headroom strictly reduces violating steps" true
    (Sim.Stats.violation_steps cool.Fleet.Cluster.stats
    < Sim.Stats.violation_steps rr.Fleet.Cluster.stats)

let () =
  Alcotest.run "fleet"
    [
      ( "trace-windows",
        [
          QCheck_alcotest.to_alcotest prop_windows_partition;
          Alcotest.test_case "horizon task kept" `Quick
            test_windows_last_task_kept;
          Alcotest.test_case "horizon after sort" `Quick
            test_generate_horizon_after_sort;
          Alcotest.test_case "degenerate statistics" `Quick
            test_statistics_degenerate;
        ] );
      ( "stats",
        [
          Alcotest.test_case "waiting clamp" `Quick test_record_waiting_clamp;
          Alcotest.test_case "waiting percentile" `Quick
            test_waiting_percentile;
          Alcotest.test_case "merge" `Quick test_merge_into;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "one chip = engine" `Quick
            test_one_chip_matches_engine;
          Alcotest.test_case "domain-count invariant" `Quick
            test_domain_count_invariance;
          Alcotest.test_case "chip-level faults compose" `Quick
            test_chip_fault_composition;
          Alcotest.test_case "take_queued" `Quick test_take_queued;
          QCheck_alcotest.to_alcotest prop_slices_match_engine;
          Alcotest.test_case "steady slice allocates nothing" `Quick
            test_advance_zero_alloc_steady_state;
          Alcotest.test_case "non-finite config rejected" `Quick
            test_non_finite_config_rejected;
          Alcotest.test_case "coolest beats round-robin" `Quick
            test_balancer_beats_round_robin;
        ] );
    ]
