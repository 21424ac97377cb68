(* The platform abstraction (DESIGN.md 6i): a single-class
   heterogeneous machine must reproduce the homogeneous Niagara path
   bit for bit — power vectors, swept tables and whole engine traces —
   the big.LITTLE preset must obey its per-core power laws end to end,
   and the integral-feedback controller behaves as specified. *)

open Linalg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float tol = Alcotest.(check (float tol))
let check_string = Alcotest.(check string)

let niagara = lazy (Sim.Machine.niagara ())
let biglittle = lazy (Sim.Machine.biglittle ())

(* Niagara rebuilt through the explicit platform constructor: one core
   class carrying exactly the old scalar parameters. *)
let degenerate =
  lazy
    (let m = Lazy.force niagara in
     Sim.Machine.make_platform ~thermal:m.Sim.Machine.thermal
       ~core_nodes:m.Sim.Machine.core_nodes
       ~fixed_power:m.Sim.Machine.fixed_power
       ~platform:(Sim.Platform.homogeneous ~n_cores:8 ~fmax:1e9 ~pmax:4.0 ())
       ())

(* Same machine again, but split into two *identical* classes with an
   interleaved assignment: exercises the multi-class bookkeeping while
   every per-core parameter still equals the homogeneous value. *)
let two_identical_classes =
  lazy
    (let m = Lazy.force niagara in
     let cls =
       {
         Sim.Platform.class_name = "twin";
         fmax = 1e9;
         pmax = 4.0;
         exponent = 2.0;
         idle_activity = 0.3;
       }
     in
     Sim.Machine.make_platform ~thermal:m.Sim.Machine.thermal
       ~core_nodes:m.Sim.Machine.core_nodes
       ~fixed_power:m.Sim.Machine.fixed_power
       ~platform:
         (Sim.Platform.make
            ~classes:[| cls; { cls with Sim.Platform.class_name = "twin2" } |]
            ~assignment:[| 0; 1; 0; 1; 0; 1; 0; 1 |])
       ())

(* ------------------------------------------------------------------ *)
(* Platform validation *)

let test_platform_validation () =
  let cls =
    {
      Sim.Platform.class_name = "c";
      fmax = 1e9;
      pmax = 4.0;
      exponent = 2.0;
      idle_activity = 0.3;
    }
  in
  let rejects mk = match mk () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "empty classes" true
    (rejects (fun () -> Sim.Platform.make ~classes:[||] ~assignment:[| 0 |]));
  check_bool "empty assignment" true
    (rejects (fun () -> Sim.Platform.make ~classes:[| cls |] ~assignment:[||]));
  check_bool "assignment out of range" true
    (rejects (fun () -> Sim.Platform.make ~classes:[| cls |] ~assignment:[| 1 |]));
  check_bool "non-positive fmax" true
    (rejects (fun () ->
         Sim.Platform.make
           ~classes:[| { cls with Sim.Platform.fmax = 0.0 } |]
           ~assignment:[| 0 |]));
  check_bool "exponent below 1" true
    (rejects (fun () ->
         Sim.Platform.make
           ~classes:[| { cls with Sim.Platform.exponent = 0.5 } |]
           ~assignment:[| 0 |]));
  check_bool "idle outside [0,1]" true
    (rejects (fun () ->
         Sim.Platform.make
           ~classes:[| { cls with Sim.Platform.idle_activity = 1.5 } |]
           ~assignment:[| 0 |]));
  let p = Sim.Platform.make ~classes:[| cls |] ~assignment:[| 0; 0; 0 |] in
  check_int "n_cores" 3 (Sim.Platform.n_cores p);
  check_int "n_classes" 1 (Sim.Platform.n_classes p);
  check_bool "single class" true (Sim.Platform.single_class p);
  check_bool "two identical classes are not single-class" false
    (Sim.Platform.single_class
       (Lazy.force two_identical_classes).Sim.Machine.platform)

(* ------------------------------------------------------------------ *)
(* Degenerate platform: bit-for-bit against the homogeneous path *)

let busy_patterns =
  [
    Array.make 8 true;
    Array.make 8 false;
    Array.init 8 (fun c -> c mod 2 = 0);
  ]

let frequency_vectors =
  [
    Vec.create 8 1e9;
    Vec.create 8 0.0;
    Vec.create 8 (-1.0);
    Vec.init 8 (fun c -> float_of_int c *. 1.37e8);
    Vec.init 8 (fun c -> if c < 4 then 9.99e8 else 1.3e7);
  ]

let check_power_bitidentical name other =
  let m = Lazy.force niagara in
  List.iter
    (fun frequencies ->
      List.iter
        (fun busy ->
          let p1 = Sim.Machine.power_vector m ~frequencies ~busy in
          let p2 = Sim.Machine.power_vector other ~frequencies ~busy in
          check_bool (name ^ ": power vector bit-identical") true (p1 = p2);
          let d1 = Vec.zeros m.Sim.Machine.n_nodes in
          let d2 = Vec.zeros m.Sim.Machine.n_nodes in
          Sim.Machine.power_vector_into m ~frequencies ~busy ~dst:d1;
          Sim.Machine.power_vector_into other ~frequencies ~busy ~dst:d2;
          check_bool (name ^ ": into variant bit-identical") true (d1 = d2))
        busy_patterns)
    frequency_vectors

let test_degenerate_power_bitidentical () =
  check_power_bitidentical "single-class" (Lazy.force degenerate);
  check_power_bitidentical "two identical classes"
    (Lazy.force two_identical_classes)

let prop_degenerate_power_bitidentical =
  QCheck2.Test.make
    ~name:"platform: single-class power matches homogeneous on random inputs"
    ~count:100
    QCheck2.Gen.(array_size (return 8) (float_bound_inclusive 1.2e9))
    (fun frequencies ->
      let m = Lazy.force niagara and d = Lazy.force degenerate in
      let busy = Array.init 8 (fun c -> frequencies.(c) > 5e8) in
      Sim.Machine.power_vector m ~frequencies ~busy
      = Sim.Machine.power_vector d ~frequencies ~busy)

let test_degenerate_table_identical () =
  (* A small Phase-1 sweep through the Model on both machines: the
     per-core normalization must collapse to the old scalar one, so
     the CSVs (%.17g, exact for every double) are string-equal. *)
  let sweep machine =
    Protemp.Table.to_csv
      (Protemp.Dense_table.to_table ~domains:1
         (Protemp.Dense_table.create ~machine ~spec:Protemp.Spec.default
            ~tstarts:[| 50.0; 80.0 |] ~ftargets:[| 2e8; 5e8 |] ()))
  in
  check_string "swept table bit-identical" (sweep (Lazy.force niagara))
    (sweep (Lazy.force degenerate))

let test_degenerate_engine_identical () =
  let trace = Workload.Trace.generate ~seed:77L ~n_tasks:1500 Workload.Mix.web in
  let run machine mk_controller =
    Sim.Engine.run machine (mk_controller ()) Sim.Policy.coolest_first trace
  in
  let controllers =
    [
      ("no-tc", fun () -> Sim.Policy.workload_following ~fmax:1e9);
      ("basic-dfs", fun () -> Protemp.Basic_dfs.create ~fmax:1e9 ());
      ("integral", fun () -> Sim.Policy.integral_feedback ());
    ]
  in
  List.iter
    (fun (name, mk) ->
      let a = run (Lazy.force niagara) mk in
      let b = run (Lazy.force degenerate) mk in
      check_bool (name ^ ": stats bit-for-bit") true
        (Sim.Stats.equal a.Sim.Engine.stats b.Sim.Engine.stats);
      check_int (name ^ ": unfinished") a.Sim.Engine.unfinished
        b.Sim.Engine.unfinished)
    controllers

(* ------------------------------------------------------------------ *)
(* big.LITTLE preset *)

let test_biglittle_shape () =
  let m = Lazy.force biglittle in
  check_int "cores" 8 m.Sim.Machine.n_cores;
  check_int "classes" 2 (Sim.Platform.n_classes m.Sim.Machine.platform);
  check_float 1e-3 "chip reference fmax is the big ceiling" 1e9
    m.Sim.Machine.fmax;
  for c = 0 to 3 do
    check_float 1e-3 "big fmax" 1e9 m.Sim.Machine.core_fmax.(c);
    check_int "big class" 0 m.Sim.Machine.platform.Sim.Platform.assignment.(c)
  done;
  for c = 4 to 7 do
    check_float 1e-3 "little fmax" 6e8 m.Sim.Machine.core_fmax.(c);
    check_int "little class" 1
      m.Sim.Machine.platform.Sim.Platform.assignment.(c)
  done;
  Array.iter
    (fun node ->
      check_float 1e-12 "no fixed power on cores" 0.0
        m.Sim.Machine.fixed_power.(node))
    m.Sim.Machine.core_nodes

let test_biglittle_power_laws () =
  let m = Lazy.force biglittle in
  (* Big: quadratic, 5 W at 1 GHz. *)
  check_float 1e-9 "big at fmax" 5.0
    (Sim.Machine.core_power m ~core:0 ~frequency:1e9 ~busy:true);
  check_float 1e-9 "big at half" 1.25
    (Sim.Machine.core_power m ~core:0 ~frequency:5e8 ~busy:true);
  (* Little: cubic, 1.5 W at 600 MHz. *)
  check_float 1e-9 "little at its fmax" 1.5
    (Sim.Machine.core_power m ~core:7 ~frequency:6e8 ~busy:true);
  check_float 1e-9 "little at half" (1.5 *. 0.125)
    (Sim.Machine.core_power m ~core:7 ~frequency:3e8 ~busy:true);
  (* Idle activity scales the class's own dynamic power. *)
  check_float 1e-9 "big idle" (0.3 *. 1.25)
    (Sim.Machine.core_power m ~core:0 ~frequency:5e8 ~busy:false);
  check_float 1e-9 "little idle" (0.2 *. 1.5 *. 0.125)
    (Sim.Machine.core_power m ~core:7 ~frequency:3e8 ~busy:false);
  (* The hot path agrees with the scalar entry point on both laws. *)
  let frequencies = Vec.init 8 (fun c -> float_of_int (c + 1) *. 1.2e8) in
  let busy = Array.init 8 (fun c -> c mod 3 <> 0) in
  let dst = Vec.zeros m.Sim.Machine.n_nodes in
  Sim.Machine.power_vector_into m ~frequencies ~busy ~dst;
  check_bool "into matches allocating path" true
    (dst = Sim.Machine.power_vector m ~frequencies ~busy)

let test_biglittle_engine_matches_reference () =
  (* The alloc-free engine against the oracle on an asymmetric
     machine: per-core clamps and the cubic power path are mirrored in
     both loops. *)
  let m = Lazy.force biglittle in
  let trace = Workload.Trace.generate ~seed:41L ~n_tasks:800 Workload.Mix.paper_mix in
  let mk () = Sim.Policy.workload_following ~fmax:m.Sim.Machine.fmax in
  let fresh = Sim.Engine.run m (mk ()) Sim.Policy.coolest_first trace in
  let oracle =
    Engine_reference.run m (mk ()) Sim.Policy.coolest_first trace
  in
  check_bool "stats bit-for-bit" true
    (Sim.Stats.equal fresh.Sim.Engine.stats oracle.Sim.Engine.stats);
  check_int "unfinished" oracle.Sim.Engine.unfinished fresh.Sim.Engine.unfinished

let test_biglittle_engine_clamps_little_cores () =
  (* A controller demanding the big ceiling everywhere must trace
     exactly like one demanding each core's own ceiling: the engine
     clamps little cores to 600 MHz. *)
  let m = Lazy.force biglittle in
  let trace = Workload.Trace.generate ~seed:42L ~n_tasks:600 Workload.Mix.web in
  let overdriven = Sim.Policy.fixed_frequency ~fmax:m.Sim.Machine.fmax 1e9 in
  let per_core =
    {
      Sim.Policy.controller_name = "per-core-caps";
      decide = (fun obs -> Vec.copy obs.Sim.Policy.core_fmax);
    }
  in
  let run ctrl = Sim.Engine.run m ctrl Sim.Policy.first_idle trace in
  let a = run overdriven and b = run per_core in
  check_bool "identical traces" true
    (Sim.Stats.equal a.Sim.Engine.stats b.Sim.Engine.stats)

let test_biglittle_zero_alloc_steady_state () =
  (* The Niagara steady-state golden, on the asymmetric machine: the
     cubic [r ** e] branch and the per-core reads must not add a
     single minor word to the step loop. *)
  let m = Lazy.force biglittle in
  let config =
    {
      Sim.Engine.default_config with
      Sim.Engine.dfs_period = 100.0;
      drain_limit = 0.0;
    }
  in
  let ctrl = Sim.Policy.fixed_frequency ~fmax:m.Sim.Machine.fmax 1e9 in
  let words horizon =
    let task =
      { Workload.Task.id = 0; arrival = 0.0; work = 100.0; benchmark = Web }
    in
    let trace =
      { Workload.Trace.tasks = [| task |]; mix_name = "synthetic"; horizon }
    in
    ignore (Sim.Engine.run ~config m ctrl Sim.Policy.first_idle trace);
    let before = Gc.minor_words () in
    ignore (Sim.Engine.run ~config m ctrl Sim.Policy.first_idle trace);
    Gc.minor_words () -. before
  in
  let short = words 0.2 and long = words 0.4 in
  check_float 0.0 "extra minor words for 500 extra steps" 0.0 (long -. short)

let test_biglittle_sweep_and_audit () =
  (* One small certified table on the asymmetric machine, audited
     against the simulator: the per-core model keeps the guarantee. *)
  let m = Lazy.force biglittle in
  let spec = Protemp.Spec.default in
  let table =
    Protemp.Dense_table.to_table ~domains:1
      (Protemp.Dense_table.create ~machine:m ~spec ~tstarts:[| 50.0; 80.0 |]
         ~ftargets:[| 1e8; 3e8 |] ())
  in
  let feasible = ref 0 in
  Array.iteri
    (fun i _ ->
      Array.iteri
        (fun j _ ->
          match Protemp.Table.cell table i j with
          | Protemp.Table.Frequencies f ->
              incr feasible;
              Array.iteri
                (fun c hz ->
                  check_bool "cell respects its core's ceiling" true
                    (hz <= m.Sim.Machine.core_fmax.(c) +. 1e-6))
                f
          | Protemp.Table.Infeasible -> ())
        (Protemp.Table.ftargets table))
    (Protemp.Table.tstarts table);
  check_bool "some feasible cells" true (!feasible > 0);
  let audit = Protemp.Guarantee.audit_table ~machine:m ~spec table in
  check_bool "audit re-simulated the feasible cells" true
    (audit.Protemp.Guarantee.cells_checked = !feasible);
  check_bool
    (Printf.sprintf "guarantee holds (worst margin %.4f C)"
       audit.Protemp.Guarantee.worst_margin)
    true
    (audit.Protemp.Guarantee.worst_margin >= -1e-9)

let test_campaign_biglittle_domain_invariant () =
  (* The acceptance bar for the CLI's --platform biglittle grid:
     per-cell stats identical at any domain count, heterogeneous
     machine included. *)
  let m = Lazy.force biglittle in
  let spec =
    {
      Sim.Campaign.controllers =
        [
          ("no-tc", fun () -> Sim.Policy.workload_following ~fmax:m.Sim.Machine.fmax);
          ("integral", fun () -> Sim.Policy.integral_feedback ());
        ];
      assignments = [ Sim.Policy.first_idle; Sim.Policy.coolest_first ];
      scenarios =
        [ Sim.Campaign.scenario ~seed:11L ~n_tasks:300 ~name:"web" Workload.Mix.web ];
      faults = [];
      config = Sim.Engine.default_config;
    }
  in
  let base = Sim.Campaign.run ~domains:1 ~machine:m spec in
  check_int "grid size" 4 (Array.length base);
  let cells = Sim.Campaign.run ~domains:3 ~machine:m spec in
  Array.iteri
    (fun i c ->
      check_bool
        (Printf.sprintf "cell %d identical across domain counts" i)
        true
        (Sim.Stats.equal base.(i).Sim.Campaign.result.Sim.Engine.stats
           c.Sim.Campaign.result.Sim.Engine.stats))
    cells

(* ------------------------------------------------------------------ *)
(* The integral-feedback controller *)

let integral_obs ?(core_fmax = Vec.create 8 1e9) ~temp ~required () =
  {
    Sim.Policy.time = 0.0;
    core_temperatures = Vec.create 8 temp;
    max_core_temperature = temp;
    required_frequency = required;
    core_fmax;
    utilizations = Vec.zeros 8;
    queue_length = 0;
    queued_work = 0.0;
  }

let test_integral_feedback_rejects_bad_gain () =
  check_bool "non-positive gain" true
    (match Sim.Policy.integral_feedback ~gain:0.0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_integral_feedback_tracks_error () =
  let c = Sim.Policy.integral_feedback ~gain:2e7 ~setpoint:100.0 () in
  (* Cool chip, modest demand: never runs faster than the workload
     asks for. *)
  let f = c.Sim.Policy.decide (integral_obs ~temp:40.0 ~required:5e8 ()) in
  check_float 1e-3 "follows demand when cool" 5e8 f.(0);
  (* Cool chip, excessive demand: capped at fmax. *)
  let f = c.Sim.Policy.decide (integral_obs ~temp:40.0 ~required:3e9 ()) in
  check_float 1e-3 "capped at fmax" 1e9 f.(0);
  (* Sustained overheat: the integrator winds the cap down by
     gain * error per decision, 2e7 * 10 = 2e8 Hz a step. *)
  let f = c.Sim.Policy.decide (integral_obs ~temp:110.0 ~required:3e9 ()) in
  check_float 1e-3 "one step down" 8e8 f.(0);
  let f = c.Sim.Policy.decide (integral_obs ~temp:110.0 ~required:3e9 ()) in
  check_float 1e-3 "two steps down" 6e8 f.(0);
  for _ = 1 to 10 do
    ignore (c.Sim.Policy.decide (integral_obs ~temp:110.0 ~required:3e9 ()))
  done;
  let f = c.Sim.Policy.decide (integral_obs ~temp:110.0 ~required:3e9 ()) in
  check_float 1e-3 "winds down to a stop" 0.0 f.(0);
  (* Cooling back below the setpoint recovers the frequency. *)
  let f = c.Sim.Policy.decide (integral_obs ~temp:90.0 ~required:3e9 ()) in
  check_float 1e-3 "recovers after cooling" 2e8 f.(0)

let test_integral_feedback_respects_per_core_caps () =
  let c = Sim.Policy.integral_feedback () in
  let m = Lazy.force biglittle in
  let core_fmax = Vec.copy m.Sim.Machine.core_fmax in
  let f = c.Sim.Policy.decide (integral_obs ~core_fmax ~temp:40.0 ~required:3e9 ()) in
  check_float 1e-3 "big core at its ceiling" 1e9 f.(0);
  check_float 1e-3 "little core at its ceiling" 6e8 f.(7)

(* ------------------------------------------------------------------ *)

(* Every comparison with NaN is false, so a guard written as
   [x <= 0.0 -> reject] lets NaN through; each class parameter must
   fail closed on NaN and on infinities. *)
let test_platform_rejects_non_finite () =
  let cls =
    {
      Sim.Platform.class_name = "c";
      fmax = 1e9;
      pmax = 4.0;
      exponent = 2.0;
      idle_activity = 0.3;
    }
  in
  let rejects name c =
    check_bool name true
      (match Sim.Platform.make ~classes:[| c |] ~assignment:[| 0 |] with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  List.iter
    (fun v ->
      let s = Printf.sprintf "%g" v in
      rejects ("fmax " ^ s) { cls with Sim.Platform.fmax = v };
      rejects ("pmax " ^ s) { cls with Sim.Platform.pmax = v };
      rejects ("exponent " ^ s) { cls with Sim.Platform.exponent = v };
      rejects ("idle_activity " ^ s)
        { cls with Sim.Platform.idle_activity = v })
    [ Float.nan; Float.infinity ];
  check_bool "homogeneous nan fmax" true
    (match
       Sim.Platform.homogeneous ~n_cores:2 ~fmax:Float.nan ~pmax:4.0 ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_degenerate_power_bitidentical ]

let () =
  Alcotest.run "platform"
    [
      ( "platform",
        [
          Alcotest.test_case "validation" `Quick test_platform_validation;
          Alcotest.test_case "rejects non-finite parameters" `Quick
            test_platform_rejects_non_finite;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "power bit-identical" `Quick
            test_degenerate_power_bitidentical;
          Alcotest.test_case "swept table bit-identical" `Slow
            test_degenerate_table_identical;
          Alcotest.test_case "engine traces bit-identical" `Quick
            test_degenerate_engine_identical;
        ] );
      ( "biglittle",
        [
          Alcotest.test_case "shape" `Quick test_biglittle_shape;
          Alcotest.test_case "per-core power laws" `Quick
            test_biglittle_power_laws;
          Alcotest.test_case "engine matches reference" `Quick
            test_biglittle_engine_matches_reference;
          Alcotest.test_case "little cores clamped" `Quick
            test_biglittle_engine_clamps_little_cores;
          Alcotest.test_case "steady-state step allocates nothing" `Quick
            test_biglittle_zero_alloc_steady_state;
          Alcotest.test_case "sweep honours the guarantee" `Slow
            test_biglittle_sweep_and_audit;
          Alcotest.test_case "campaign domain invariant" `Quick
            test_campaign_biglittle_domain_invariant;
        ] );
      ( "policies",
        [
          Alcotest.test_case "integral rejects bad gain" `Quick
            test_integral_feedback_rejects_bad_gain;
          Alcotest.test_case "integral tracks error" `Quick
            test_integral_feedback_tracks_error;
          Alcotest.test_case "integral respects per-core caps" `Quick
            test_integral_feedback_respects_per_core_caps;
        ] );
      ("properties", props);
    ]
