(* Fault injection: constructor validation, the exact corruption each
   fault applies, composition order, and determinism — the same seed
   must reproduce the same corrupted run, which is what lets faulty
   campaign cells stay domain-count invariant. *)

open Linalg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float tol = Alcotest.(check (float tol))
let check_string = Alcotest.(check string)

let obs ?(time = 0.0) temps =
  let v = Array.of_list temps in
  {
    Sim.Policy.time;
    core_temperatures = v;
    max_core_temperature = Vec.max v;
    required_frequency = 5e8;
    core_fmax = Vec.create (Array.length v) 1e9;
    utilizations = Vec.create (Array.length v) 1.0;
    queue_length = 1;
    queued_work = 0.1;
  }

(* A spy controller: records every observation it is shown and
   answers a fixed frequency vector. *)
let spy answer =
  let seen = ref [] in
  ( {
      Sim.Policy.controller_name = "spy";
      decide =
        (fun o ->
          seen :=
            (Vec.copy o.Sim.Policy.core_temperatures,
             o.Sim.Policy.max_core_temperature)
            :: !seen;
          answer);
    },
    fun () -> List.rev !seen )

let test_constructor_validation () =
  let bad f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "negative magnitude" true
    (bad (fun () -> Sim.Fault.sensor_noise ~magnitude:(-1.0) ()));
  check_bool "negative core" true
    (bad (fun () -> Sim.Fault.stuck_sensor ~core:(-1) ()));
  check_bool "zero epochs" true
    (bad (fun () -> Sim.Fault.stale_observation ~epochs:0));
  check_bool "empty ladder" true
    (bad (fun () -> Sim.Fault.quantized_actuator ~levels:[||]));
  check_bool "unsorted ladder" true
    (bad (fun () -> Sim.Fault.quantized_actuator ~levels:[| 2e8; 1e8 |]));
  check_bool "non-positive level" true
    (bad (fun () -> Sim.Fault.quantized_actuator ~levels:[| 0.0; 1e8 |]))

let test_names () =
  check_string "noise" "noise2C"
    (Sim.Fault.name (Sim.Fault.sensor_noise ~magnitude:2.0 ()));
  check_string "stuck at" "stuck3@85C"
    (Sim.Fault.name (Sim.Fault.stuck_sensor ~reading:85.0 ~core:3 ()));
  check_string "stuck frozen" "stuck0"
    (Sim.Fault.name (Sim.Fault.stuck_sensor ~core:0 ()));
  check_string "stale" "stale2"
    (Sim.Fault.name (Sim.Fault.stale_observation ~epochs:2));
  check_string "ladder" "ladder4"
    (Sim.Fault.name
       (Sim.Fault.quantized_actuator ~levels:[| 1e8; 2e8; 3e8; 4e8 |]))

let test_empty_wrap_is_identity () =
  let c, _ = spy (Vec.create 4 1e8) in
  check_bool "physically the same controller" true
    (Sim.Fault.wrap ~faults:[] c == c)

let test_wrapped_name () =
  let c, _ = spy (Vec.create 4 1e8) in
  let w =
    Sim.Fault.wrap
      ~faults:
        [ Sim.Fault.stale_observation ~epochs:1;
          Sim.Fault.stuck_sensor ~reading:85.0 ~core:0 () ]
      c
  in
  check_string "labels appended" "spy+stale1+stuck0@85C"
    w.Sim.Policy.controller_name

let test_stuck_sensor () =
  let c, seen = spy (Vec.create 3 1e8) in
  let w =
    Sim.Fault.wrap ~faults:[ Sim.Fault.stuck_sensor ~reading:95.0 ~core:1 () ] c
  in
  ignore (w.Sim.Policy.decide (obs [ 40.0; 50.0; 60.0 ]));
  (match seen () with
  | [ (t, mx) ] ->
      check_float 0.0 "core 0 untouched" 40.0 t.(0);
      check_float 0.0 "core 1 stuck" 95.0 t.(1);
      check_float 0.0 "max recomputed from corrupted readings" 95.0 mx
  | _ -> Alcotest.fail "expected one observation");
  (* [reading = None] freezes at the first observed value. *)
  let c, seen = spy (Vec.create 3 1e8) in
  let w = Sim.Fault.wrap ~faults:[ Sim.Fault.stuck_sensor ~core:2 () ] c in
  ignore (w.Sim.Policy.decide (obs [ 40.0; 50.0; 60.0 ]));
  ignore (w.Sim.Policy.decide (obs [ 41.0; 51.0; 75.0 ]));
  match seen () with
  | [ (a, _); (b, _) ] ->
      check_float 0.0 "first value" 60.0 a.(2);
      check_float 0.0 "frozen thereafter" 60.0 b.(2);
      check_float 0.0 "other cores live" 51.0 b.(1)
  | _ -> Alcotest.fail "expected two observations"

(* A stuck sensor on a core the chip does not have is an error at the
   first decision, never a run without the fault. *)
let test_stuck_sensor_out_of_range () =
  let c, seen = spy (Vec.create 8 1e8) in
  let w = Sim.Fault.wrap ~faults:[ Sim.Fault.stuck_sensor ~core:99 () ] c in
  let temps = List.init 8 (fun i -> 40.0 +. float_of_int i) in
  check_bool "core 99 of 8 rejected" true
    (match w.Sim.Policy.decide (obs temps) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "controller never consulted" true (seen () = []);
  let w = Sim.Fault.wrap ~faults:[ Sim.Fault.stuck_sensor ~core:8 () ] c in
  check_bool "core 8 of 8 rejected" true
    (match w.Sim.Policy.decide (obs temps) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_stale_observation () =
  let c, seen = spy (Vec.create 2 1e8) in
  let w = Sim.Fault.wrap ~faults:[ Sim.Fault.stale_observation ~epochs:2 ] c in
  List.iter
    (fun t -> ignore (w.Sim.Policy.decide (obs [ t; t ])))
    [ 10.0; 20.0; 30.0; 40.0; 50.0 ];
  let delivered = List.map (fun (t, _) -> t.(0)) (seen ()) in
  (* Before the buffer is warm the oldest available reading is
     delivered; from decision [epochs + 1] on, exactly 2-old. *)
  check_bool "staleness schedule" true
    (delivered = [ 10.0; 10.0; 10.0; 20.0; 30.0 ])

let test_quantized_actuator () =
  let c, _ = spy [| 0.9e8; 2.5e8; 4.0e8; 0.4e8 |] in
  let w =
    Sim.Fault.wrap
      ~faults:[ Sim.Fault.quantized_actuator ~levels:[| 1e8; 2e8; 4e8 |] ]
      c
  in
  let f = w.Sim.Policy.decide (obs [ 40.0; 40.0; 40.0; 40.0 ]) in
  check_float 0.0 "below lowest -> off" 0.0 f.(0);
  check_float 0.0 "floored" 2e8 f.(1);
  check_float 0.0 "exact level kept" 4e8 f.(2);
  check_float 0.0 "below lowest -> off" 0.0 f.(3)

let test_sensor_noise_bounded_and_seeded () =
  let run seed =
    let c, seen = spy (Vec.create 4 1e8) in
    let w =
      Sim.Fault.wrap
        ~faults:[ Sim.Fault.sensor_noise ~seed ~magnitude:2.0 () ]
        c
    in
    for i = 1 to 50 do
      ignore (w.Sim.Policy.decide (obs (List.init 4 (fun c' -> 40.0 +. float_of_int (i + c')))))
    done;
    List.concat_map (fun (t, _) -> Array.to_list t) (seen ())
  in
  let a = run 7L and b = run 7L and c = run 8L in
  check_bool "same seed, identical corruption" true (a = b);
  check_bool "different seed, different corruption" true (a <> c);
  List.iteri
    (fun i (x, y) ->
      let base = 40.0 +. float_of_int ((i / 4) + 1 + (i mod 4)) in
      ignore y;
      check_bool "within the bound" true (Float.abs (x -. base) <= 2.0))
    (List.map (fun x -> (x, ())) a)

let test_faults_compose_in_order () =
  (* Stuck first, then noise: the stuck core's delivered reading moves
     (noise applies after the latch).  Noise first, then stuck: the
     stuck core is rock solid. *)
  let deliver faults =
    let c, seen = spy (Vec.create 2 1e8) in
    let w = Sim.Fault.wrap ~faults c in
    for _ = 1 to 10 do
      ignore (w.Sim.Policy.decide (obs [ 50.0; 60.0 ]))
    done;
    List.map (fun (t, _) -> t.(0)) (seen ())
  in
  let noise = Sim.Fault.sensor_noise ~seed:3L ~magnitude:1.0 () in
  let stuck = Sim.Fault.stuck_sensor ~reading:70.0 ~core:0 () in
  let stuck_then_noise = deliver [ stuck; noise ] in
  let noise_then_stuck = deliver [ noise; stuck ] in
  check_bool "noise after latch jitters the stuck reading" true
    (List.exists (fun t -> t <> 70.0) stuck_then_noise);
  check_bool "latch after noise pins the reading" true
    (List.for_all (fun t -> t = 70.0) noise_then_stuck)

(* End-to-end determinism: a faulty engine run is reproducible from
   the seed — fresh wrap, same trace, bit-identical stats. *)
let test_engine_run_deterministic () =
  let machine = Sim.Machine.niagara () in
  let fmax = machine.Sim.Machine.fmax in
  let trace =
    Workload.Trace.generate ~seed:99L ~n_tasks:800 Workload.Mix.web
  in
  let run () =
    let base = Sim.Policy.workload_following ~fmax in
    let w =
      Sim.Fault.wrap
        ~faults:
          [
            Sim.Fault.sensor_noise ~seed:5L ~magnitude:3.0 ();
            Sim.Fault.stale_observation ~epochs:1;
          ]
        base
    in
    Sim.Engine.run machine w Sim.Policy.first_idle trace
  in
  let a = run () and b = run () in
  check_bool "bit-identical stats" true
    (Sim.Stats.equal a.Sim.Engine.stats b.Sim.Engine.stats);
  check_int "same unfinished" a.Sim.Engine.unfinished b.Sim.Engine.unfinished

let () =
  Alcotest.run "fault"
    [
      ( "fault",
        [
          Alcotest.test_case "constructor validation" `Quick
            test_constructor_validation;
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "empty wrap is identity" `Quick
            test_empty_wrap_is_identity;
          Alcotest.test_case "wrapped name" `Quick test_wrapped_name;
          Alcotest.test_case "stuck sensor" `Quick test_stuck_sensor;
          Alcotest.test_case "stuck sensor beyond the chip" `Quick
            test_stuck_sensor_out_of_range;
          Alcotest.test_case "stale observation" `Quick test_stale_observation;
          Alcotest.test_case "quantized actuator" `Quick
            test_quantized_actuator;
          Alcotest.test_case "noise bounded and seeded" `Quick
            test_sensor_noise_bounded_and_seeded;
          Alcotest.test_case "faults compose in order" `Quick
            test_faults_compose_in_order;
          Alcotest.test_case "engine run deterministic" `Quick
            test_engine_run_deterministic;
        ] );
    ]
