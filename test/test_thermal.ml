(* Tests for the thermal substrate: floorplan geometry, RC network
   extraction, transient integration (Euler against the exact
   propagator of Transient_reference), the HotSpot-style validation
   model (Hotspot3l), calibration, system identification
   (Calibrate_reference) and the Niagara platform. *)

open Linalg
open Thermal

let check_bool = Alcotest.(check bool)
let check_float tol = Alcotest.(check (float tol))
let check_int = Alcotest.(check int)

(* A simple 2x1 two-block floorplan for hand-checkable cases. *)
let two_block () =
  Floorplan.make
    [
      { Floorplan.name = "A"; kind = Floorplan.Core; x = 0.0; y = 0.0;
        width = 2e-3; height = 2e-3 };
      { Floorplan.name = "B"; kind = Floorplan.Cache; x = 2e-3; y = 0.0;
        width = 2e-3; height = 2e-3 };
    ]

(* ------------------------------------------------------------------ *)
(* Floorplan *)

let test_floorplan_basic () =
  let fp = two_block () in
  check_int "size" 2 (Floorplan.size fp);
  check_int "index" 1 (Floorplan.index_of fp "B");
  check_float 1e-12 "area" 4e-6 (Floorplan.area (Floorplan.block_of fp 0));
  check_float 1e-12 "total area" 8e-6 (Floorplan.total_area fp);
  let xmin, ymin, xmax, ymax = Floorplan.bounding_box fp in
  check_float 1e-12 "xmin" 0.0 xmin;
  check_float 1e-12 "ymin" 0.0 ymin;
  check_float 1e-12 "xmax" 4e-3 xmax;
  check_float 1e-12 "ymax" 2e-3 ymax

let test_floorplan_shared_edge () =
  let fp = two_block () in
  let a = Floorplan.block_of fp 0 and b = Floorplan.block_of fp 1 in
  check_float 1e-12 "shared edge" 2e-3 (Floorplan.shared_edge a b);
  check_float 1e-12 "symmetric" 2e-3 (Floorplan.shared_edge b a);
  (* Corner contact only: zero shared edge. *)
  let c =
    { Floorplan.name = "C"; kind = Floorplan.Other; x = 4e-3; y = 2e-3;
      width = 1e-3; height = 1e-3 }
  in
  check_float 1e-12 "corner" 0.0 (Floorplan.shared_edge b c)

let test_floorplan_neighbours () =
  let fp = two_block () in
  (match Floorplan.neighbours fp 0 with
  | [ (1, len) ] -> check_float 1e-12 "len" 2e-3 len
  | _ -> Alcotest.fail "expected exactly one neighbour");
  check_bool "cores" true (Floorplan.cores fp = [| 0 |])

let test_floorplan_rejects_overlap () =
  check_bool "overlap rejected" true
    (match
       Floorplan.make
         [
           { Floorplan.name = "A"; kind = Floorplan.Core; x = 0.0; y = 0.0;
             width = 2e-3; height = 2e-3 };
           { Floorplan.name = "B"; kind = Floorplan.Core; x = 1e-3; y = 0.0;
             width = 2e-3; height = 2e-3 };
         ]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_floorplan_rejects_duplicates () =
  check_bool "duplicate name rejected" true
    (match
       Floorplan.make
         [
           { Floorplan.name = "A"; kind = Floorplan.Core; x = 0.0; y = 0.0;
             width = 1e-3; height = 1e-3 };
           { Floorplan.name = "A"; kind = Floorplan.Core; x = 2e-3; y = 0.0;
             width = 1e-3; height = 1e-3 };
         ]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Rc_model *)

let test_rc_single_block_steady () =
  (* One isolated block: steady T = Ta + P / (h A). *)
  let fp =
    Floorplan.make
      [
        { Floorplan.name = "A"; kind = Floorplan.Core; x = 0.0; y = 0.0;
          width = 2e-3; height = 2e-3 };
      ]
  in
  let prm = Rc_model.default_params in
  let m = Rc_model.build ~params:prm fp in
  let p = 2.0 in
  let t = Rc_model.steady_state m [| p |] in
  let expect =
    prm.Rc_model.ambient
    +. (p /. (prm.Rc_model.vertical_conductance_per_area *. 4e-6))
  in
  check_float 1e-6 "steady" expect t.(0)

let test_rc_zero_power_is_ambient () =
  let m = Rc_model.build (two_block ()) in
  let t = Rc_model.steady_state m [| 0.0; 0.0 |] in
  check_float 1e-9 "ambient A" 27.0 t.(0);
  check_float 1e-9 "ambient B" 27.0 t.(1)

let test_rc_heat_flows_to_neighbour () =
  (* Power only block A: both blocks end above ambient, A hotter. *)
  let m = Rc_model.build (two_block ()) in
  let t = Rc_model.steady_state m [| 1.0; 0.0 |] in
  check_bool "A above ambient" true (t.(0) > 27.0);
  check_bool "B above ambient" true (t.(1) > 27.0);
  check_bool "A hotter than B" true (t.(0) > t.(1))

let test_rc_discretize_matches_steady () =
  let m = Rc_model.build (two_block ()) in
  let dt = 0.5 *. Rc_model.max_monotone_dt m in
  let d = Rc_model.discretize m ~dt in
  let p = [| 1.5; 0.3 |] in
  check_bool "fixed points agree" true
    (Vec.approx_equal ~tol:1e-6
       (Rc_model.discrete_steady_state d p)
       (Rc_model.steady_state m p))

let test_rc_discretize_rejects_large_dt () =
  let m = Rc_model.build (two_block ()) in
  let dt = 2.0 *. Rc_model.max_monotone_dt m in
  check_bool "rejected" true
    (match Rc_model.discretize m ~dt with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* NaN fails no [dt <= 0.0] or [dt > limit] test, so it would build a
   step matrix of NaNs; infinity is past any limit. *)
let test_rc_discretize_rejects_non_finite_dt () =
  let m = Rc_model.build (two_block ()) in
  List.iter
    (fun dt ->
      check_bool (Printf.sprintf "dt %g rejected" dt) true
        (match Rc_model.discretize m ~dt with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_rc_step_matrix_nonnegative () =
  let m = Rc_model.build (two_block ()) in
  let d = Rc_model.discretize m ~dt:(Rc_model.max_monotone_dt m) in
  let a = d.Rc_model.step in
  let ok = ref true in
  for i = 0 to Mat.rows a - 1 do
    for j = 0 to Mat.cols a - 1 do
      if Mat.get a i j < -1e-12 then ok := false
    done
  done;
  check_bool "nonnegative" true !ok

let test_rc_conductance_symmetric () =
  let m = Rc_model.build (two_block ()) in
  check_float 1e-12 "symmetric"
    (Rc_model.conductance m 0 1)
    (Rc_model.conductance m 1 0);
  check_bool "positive" true (Rc_model.conductance m 0 1 > 0.0)

(* The monotonicity lemma behind the Pro-Temp guarantee: raising any
   initial temperature or any power never lowers any later
   temperature. *)
let test_rc_monotone_in_initial_condition () =
  let m = Rc_model.build (two_block ()) in
  let d = Rc_model.discretize m ~dt:(0.9 *. Rc_model.max_monotone_dt m) in
  let p = [| 1.0; 0.5 |] in
  let lo = [| 40.0; 35.0 |] and hi = [| 45.0; 35.0 |] in
  let t_lo = ref (Vec.copy lo) and t_hi = ref (Vec.copy hi) in
  let ok = ref true in
  for _ = 1 to 200 do
    t_lo := Rc_model.step_temperature d !t_lo p;
    t_hi := Rc_model.step_temperature d !t_hi p;
    Array.iteri (fun i x -> if x > !t_hi.(i) +. 1e-12 then ok := false) !t_lo
  done;
  check_bool "monotone" true !ok

(* ------------------------------------------------------------------ *)
(* Transient *)

let test_transient_converges_to_steady () =
  let m = Rc_model.build (two_block ()) in
  let d = Rc_model.discretize m ~dt:(0.5 *. Rc_model.max_monotone_dt m) in
  let p = [| 1.0; 0.2 |] in
  let steady = Rc_model.steady_state m p in
  let traj =
    Transient.simulate_const d ~t0:(Vec.create 2 27.0) ~steps:5000 p
  in
  let final = Mat.row traj.Transient.temperatures 5000 in
  check_bool "converged" true (Vec.approx_equal ~tol:1e-3 final steady)

let test_transient_peak_and_series () =
  let m = Rc_model.build (two_block ()) in
  let d = Rc_model.discretize m ~dt:(0.5 *. Rc_model.max_monotone_dt m) in
  let traj =
    Transient.simulate_const d ~t0:[| 80.0; 27.0 |] ~steps:100 [| 0.0; 0.0 |]
  in
  (* No power: the peak is the initial hot node. *)
  check_float 1e-9 "peak" 80.0 (Transient.peak traj);
  let series = Transient.node_series traj 0 in
  check_int "series length" 101 (Vec.dim series);
  check_bool "cooling monotone" true
    (series.(100) < series.(50) && series.(50) < series.(0))

(* The trajectory-free peak is the stored trajectory's, bit for bit:
   Niagara's 17-node network (four-row blocks plus a remainder in the
   dense step), uneven start profiles and powers, windows of 0, 1 and
   250 steps. *)
let test_transient_peak_const_bits () =
  let fp = Niagara.floorplan () in
  let m = Rc_model.build fp in
  let d = Rc_model.discretize m ~dt:(0.5 *. Rc_model.max_monotone_dt m) in
  let n = Rc_model.size m in
  let st = Random.State.make [| 2026 |] in
  List.iter
    (fun steps ->
      for _ = 1 to 4 do
        let t0 = Vec.init n (fun _ -> 27.0 +. Random.State.float st 80.0) in
        let p = Vec.init n (fun _ -> Random.State.float st 4.0) in
        let expected = Transient.peak (Transient.simulate_const d ~t0 ~steps p) in
        let got = Transient.peak_const d ~t0 ~steps p in
        check_bool
          (Printf.sprintf "%d steps: %h = %h" steps got expected)
          true
          (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float expected))
      done)
    [ 0; 1; 250 ]

let test_exact_matches_euler_small_dt () =
  (* With a small step, Euler and the exact propagator agree. *)
  let m = Rc_model.build (two_block ()) in
  let dt = 0.01 *. Rc_model.max_monotone_dt m in
  let d = Rc_model.discretize m ~dt in
  let prop = Transient_reference.exact_propagator m ~dt in
  let p = [| 1.0; 0.0 |] in
  let t0 = Vec.create 2 27.0 in
  let euler = Transient.simulate_const d ~t0 ~steps:500 p in
  let exact =
    Transient_reference.exact_simulate prop ~t0 ~steps:500 ~power:(fun _ -> p)
  in
  let e_final = Mat.row euler.Transient.temperatures 500 in
  let x_final = Mat.row exact.Transient.temperatures 500 in
  check_bool "close" true (Vec.approx_equal ~tol:0.05 e_final x_final)

let test_euler_error_at_paper_step () =
  (* Niagara from 27 C with every core at its peak power for 0.1 s:
     Euler at the paper's 0.4 ms step lands within 0.1 C of the exact
     solution, and the error grows with the step. *)
  let fp = Niagara.floorplan () in
  let m = Niagara.model () in
  let p =
    Niagara.power_vector fp
      ~core_power:(Vec.create Niagara.n_cores Niagara.core_pmax)
  in
  let t0 = Vec.create (Floorplan.size fp) 27.0 in
  let exact =
    Transient_reference.exact_step
      (Transient_reference.exact_propagator m ~dt:0.1)
      t0 p
  in
  let error dt =
    let d = Rc_model.discretize m ~dt in
    let steps = int_of_float (Float.round (0.1 /. dt)) in
    let traj = Transient.simulate_const d ~t0 ~steps p in
    Vec.norm_inf (Vec.sub (Mat.row traj.Transient.temperatures steps) exact)
  in
  let e_paper = error Niagara.dt and e_2ms = error 2e-3
  and e_10ms = error 10e-3 in
  check_bool (Printf.sprintf "0.4 ms error %.4f C <= 0.1 C" e_paper) true
    (e_paper <= 0.1);
  check_bool
    (Printf.sprintf "error grows with dt: %.4f < %.4f < %.4f" e_paper e_2ms
       e_10ms)
    true
    (e_paper < e_2ms && e_2ms < e_10ms)

let test_exact_step_reaches_steady () =
  (* One huge exact step lands on the steady state. *)
  let m = Rc_model.build (two_block ()) in
  let p_nodes = [| 1.0; 0.2 |] in
  let steady = Rc_model.steady_state m p_nodes in
  let prop = Transient_reference.exact_propagator m ~dt:1000.0 in
  let t = Transient_reference.exact_step prop (Vec.create 2 27.0) p_nodes in
  check_bool "steady" true (Vec.approx_equal ~tol:1e-6 t steady)

let test_in_place_steps_match_allocating () =
  (* The buffer-reusing step paths are exactly the allocating ones. *)
  let m = Rc_model.build (two_block ()) in
  let p_nodes = [| 0.8; 0.3 |] in
  let t = [| 40.0; 35.0 |] in
  let prop = Transient_reference.exact_propagator m ~dt:0.05 in
  let expected = Transient_reference.exact_step prop t p_nodes in
  let dst = Vec.zeros 2 and scratch = Vec.zeros 2 in
  Transient_reference.exact_step_into prop t p_nodes ~scratch ~dst;
  check_bool "exact step" true (Vec.approx_equal ~tol:0.0 expected dst);
  let d = Rc_model.discretize m ~dt:(0.5 *. Rc_model.max_monotone_dt m) in
  let expected = Rc_model.step_temperature d t p_nodes in
  Rc_model.stepper_step_into (Rc_model.compile_stepper d) t p_nodes ~dst;
  check_bool "euler step" true (Vec.approx_equal ~tol:0.0 expected dst)

(* ------------------------------------------------------------------ *)
(* Hotspot3l *)

let test_hotspot_layout () =
  let fp = two_block () in
  let m = Hotspot3l.build fp in
  check_int "size" 6 (Hotspot3l.size m);
  check_int "die node" 0 (Hotspot3l.die_node m 0);
  check_int "spreader node" 2 (Hotspot3l.spreader_node m 0);
  check_int "sink node" 4 (Hotspot3l.sink_node m 0)

let test_hotspot_zero_power_ambient () =
  let m = Hotspot3l.build (two_block ()) in
  let t = Hotspot3l.steady_state m [| 0.0; 0.0 |] in
  Array.iter (fun x -> check_float 1e-6 "ambient" 27.0 x) t

let test_hotspot_layer_ordering () =
  (* Heat flows die -> spreader -> sink: temperatures must decrease up
     the stack. *)
  let m = Hotspot3l.build (two_block ()) in
  let t = Hotspot3l.steady_state m [| 2.0; 0.5 |] in
  let die = t.(Hotspot3l.die_node m 0)
  and spr = t.(Hotspot3l.spreader_node m 0)
  and snk = t.(Hotspot3l.sink_node m 0) in
  check_bool "die hottest" true (die > spr && spr > snk && snk > 27.0)

let test_hotspot_vertical_chain_matches () =
  (* A single isolated block: the full model must agree with the
     tridiagonal vertical-chain solution. *)
  let fp =
    Floorplan.make
      [
        { Floorplan.name = "A"; kind = Floorplan.Core; x = 0.0; y = 0.0;
          width = 3e-3; height = 3e-3 };
      ]
  in
  let prm = Hotspot3l.default_params in
  let m = Hotspot3l.build ~params:prm fp in
  let t = Hotspot3l.die_steady_state m [| 2.0 |] in
  let chain = Hotspot3l.vertical_chain_check prm ~area:9e-6 ~power:2.0 in
  check_float 1e-6 "matches tridiagonal" chain t.(0)

let test_hotspot_cross_validates_rc () =
  (* The headline validation: Rc_model with the matched effective
     vertical conductance predicts die steady temperatures close to
     the 3-layer model on the Niagara floorplan at full power. *)
  let fp = Niagara.floorplan () in
  let hs_prm = Hotspot3l.default_params in
  let hs = Hotspot3l.build ~params:hs_prm fp in
  let rc_prm =
    {
      Rc_model.default_params with
      Rc_model.vertical_conductance_per_area =
        Hotspot3l.effective_vertical_conductance_per_area hs_prm;
    }
  in
  let rc = Rc_model.build ~params:rc_prm fp in
  let p =
    Niagara.power_vector fp
      ~core_power:(Vec.create Niagara.n_cores Niagara.core_pmax)
  in
  let t_hs = Hotspot3l.die_steady_state hs p in
  let t_rc = Rc_model.steady_state rc p in
  (* Compare temperature rises over ambient; the lumped model cannot
     capture spreader-level lateral smoothing exactly, so allow 25%. *)
  let max_rel = ref 0.0 in
  Array.iteri
    (fun i hs_t ->
      let rise_hs = hs_t -. 27.0 and rise_rc = t_rc.(i) -. 27.0 in
      max_rel :=
        Float.max !max_rel (Float.abs (rise_rc -. rise_hs) /. rise_hs))
    t_hs;
  check_bool
    (Printf.sprintf "within 25%% (got %.1f%%)" (100.0 *. !max_rel))
    true (!max_rel < 0.25)

(* ------------------------------------------------------------------ *)
(* Calibrate *)

let test_calibrate_hits_target () =
  let fp = Niagara.floorplan () in
  let power =
    Niagara.power_vector fp
      ~core_power:(Vec.create Niagara.n_cores Niagara.core_pmax)
  in
  let tuned =
    Calibrate.tune_vertical_conductance ~params:Rc_model.default_params
      ~floorplan:fp ~power 110.0
  in
  let m = Rc_model.build ~params:tuned fp in
  check_float 0.05 "peak" 110.0 (Vec.max (Rc_model.steady_state m power))

let test_calibrate_rejects_unreachable () =
  let fp = two_block () in
  check_bool "too hot rejected" true
    (match
       Calibrate.tune_vertical_conductance ~params:Rc_model.default_params
         ~floorplan:fp ~power:[| 0.0; 0.0 |] 500.0
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_fit_discrete_recovers_model () =
  (* Simulate the two-block model under varying power and identify the
     Eq. 1 coefficients back. *)
  let m = Rc_model.build (two_block ()) in
  let d = Rc_model.discretize m ~dt:(0.5 *. Rc_model.max_monotone_dt m) in
  let steps = 60 in
  let st = Random.State.make [| 99 |] in
  let powers =
    Mat.init steps 2 (fun _ _ -> Random.State.float st 2.0)
  in
  let traj =
    Transient.simulate d ~t0:[| 40.0; 30.0 |] ~steps ~power:(fun k ->
        Mat.row powers k)
  in
  let fit =
    Calibrate_reference.fit_discrete
      ~temperatures:traj.Transient.temperatures ~powers
  in
  check_bool "A recovered" true
    (Mat.approx_equal ~tol:1e-6 fit.Calibrate_reference.step d.Rc_model.step);
  check_bool "b recovered" true
    (Vec.approx_equal ~tol:1e-6 fit.Calibrate_reference.injection
       d.Rc_model.injection);
  check_bool "c recovered" true
    (Vec.approx_equal ~tol:1e-4 fit.Calibrate_reference.drive
       d.Rc_model.drive)

(* ------------------------------------------------------------------ *)
(* Niagara *)

let test_niagara_floorplan_shape () =
  let fp = Niagara.floorplan () in
  check_int "17 blocks" 17 (Floorplan.size fp);
  check_int "8 cores" 8 (Array.length (Floorplan.cores fp));
  (* The floorplan tiles the die completely. *)
  let xmin, ymin, xmax, ymax = Floorplan.bounding_box fp in
  check_float 1e-9 "tiles die" ((xmax -. xmin) *. (ymax -. ymin))
    (Floorplan.total_area fp)

let test_niagara_core_adjacency () =
  (* P2 is sandwiched: it has two core neighbours.  P1 has one. *)
  let fp = Niagara.floorplan () in
  let core_neighbour_count name =
    let i = Floorplan.index_of fp name in
    List.length
      (List.filter
         (fun (j, _) ->
           (Floorplan.block_of fp j).Floorplan.kind = Floorplan.Core)
         (Floorplan.neighbours fp i))
  in
  check_int "P1" 1 (core_neighbour_count "P1");
  check_int "P2" 2 (core_neighbour_count "P2");
  check_int "P3" 2 (core_neighbour_count "P3");
  check_int "P4" 1 (core_neighbour_count "P4");
  check_int "P6" 2 (core_neighbour_count "P6")

let test_niagara_calibrated_peak () =
  let fp = Niagara.floorplan () in
  let m = Niagara.model () in
  let p =
    Niagara.power_vector fp
      ~core_power:(Vec.create Niagara.n_cores Niagara.core_pmax)
  in
  check_float 0.1 "peak at full power" Niagara.target_peak
    (Vec.max (Rc_model.steady_state m p))

let test_niagara_power_law () =
  check_float 1e-9 "pmax at fmax" 4.0
    (Niagara.core_power_of_frequency Niagara.fmax);
  check_float 1e-9 "quadratic" 1.0
    (Niagara.core_power_of_frequency (0.5 *. Niagara.fmax));
  check_float 1e-9 "clamps negative" 0.0
    (Niagara.core_power_of_frequency (-1.0))

let test_niagara_middle_cores_hotter () =
  (* Uniform core power: the sandwiched cores (P2, P3, P6, P7) must
     run hotter at steady state than the row-end cores. *)
  let fp = Niagara.floorplan () in
  let m = Niagara.model () in
  let p = Niagara.power_vector fp ~core_power:(Vec.create 8 3.0) in
  let t = Rc_model.steady_state m p in
  let temp name = t.(Floorplan.index_of fp name) in
  check_bool "P2 > P1" true (temp "P2" > temp "P1");
  check_bool "P3 > P4" true (temp "P3" > temp "P4");
  check_bool "P6 > P5" true (temp "P6" > temp "P5");
  check_bool "P7 > P8" true (temp "P7" > temp "P8")

let test_niagara_dt_stable () =
  let m = Niagara.model () in
  check_bool "0.4 ms below monotone limit" true
    (Niagara.dt < Rc_model.max_monotone_dt m)

let test_niagara_fixed_power_share () =
  (* Non-core power ~ 30% of full core power, as the paper states. *)
  let fp = Niagara.floorplan () in
  let fixed = Vec.sum (Niagara.fixed_power fp) in
  let cores = float_of_int Niagara.n_cores *. Niagara.core_pmax in
  check_float 0.02 "share" 0.30 (fixed /. cores)

(* ------------------------------------------------------------------ *)
(* Property tests *)

let prop_monotone_in_power =
  QCheck2.Test.make ~name:"rc: temperatures monotone in power" ~count:50
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let m = Rc_model.build (two_block ()) in
      let d = Rc_model.discretize m ~dt:(0.9 *. Rc_model.max_monotone_dt m) in
      let p_lo = Vec.init 2 (fun _ -> Random.State.float st 2.0) in
      let p_hi = Vec.init 2 (fun i -> p_lo.(i) +. Random.State.float st 1.0) in
      let t_lo = ref (Vec.create 2 27.0) and t_hi = ref (Vec.create 2 27.0) in
      let ok = ref true in
      for _ = 1 to 100 do
        t_lo := Rc_model.step_temperature d !t_lo p_lo;
        t_hi := Rc_model.step_temperature d !t_hi p_hi;
        Array.iteri
          (fun i x -> if x > !t_hi.(i) +. 1e-12 then ok := false)
          !t_lo
      done;
      !ok)

let prop_steady_above_ambient =
  QCheck2.Test.make ~name:"rc: steady state above ambient for p >= 0"
    ~count:50
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let m = Rc_model.build (two_block ()) in
      let p = Vec.init 2 (fun _ -> Random.State.float st 3.0) in
      let t = Rc_model.steady_state m p in
      Array.for_all (fun x -> x >= 27.0 -. 1e-9) t)

let prop_euler_bounded_by_steady =
  QCheck2.Test.make
    ~name:"rc: heating from ambient never overshoots the steady state"
    ~count:30
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let m = Rc_model.build (two_block ()) in
      let d = Rc_model.discretize m ~dt:(0.9 *. Rc_model.max_monotone_dt m) in
      let p = Vec.init 2 (fun _ -> Random.State.float st 3.0) in
      let steady = Rc_model.steady_state m p in
      let traj = Transient.simulate_const d ~t0:(Vec.create 2 27.0) ~steps:300 p in
      let ok = ref true in
      for k = 0 to 300 do
        for i = 0 to 1 do
          if Mat.get traj.Transient.temperatures k i > steady.(i) +. 1e-9 then
            ok := false
        done
      done;
      !ok)

(* [Transient]'s loops step on a compiled stepper; on finite inputs
   they must equal Eq. 1 iterated on the dense step matrix
   ([Rc_model.step_temperature]) bit for bit: every trajectory entry
   of [simulate_const] and [peak_const]'s running maximum, on both
   platforms. *)
let platforms = lazy [| Sim.Machine.niagara (); Sim.Machine.biglittle () |]

let prop_transient_matches_dense =
  QCheck2.Test.make
    ~name:"transient: stepper loops bit-identical to the dense Eq. 1"
    ~count:40
    QCheck2.Gen.(
      triple (int_range 0 1) (int_range 0 300) (int_range 0 1_000_000))
    (fun (platform, steps, seed) ->
      let st = Random.State.make [| seed |] in
      let m = (Lazy.force platforms).(platform) in
      let d = m.Sim.Machine.thermal in
      let n = m.Sim.Machine.n_nodes in
      let t0 = Vec.init n (fun _ -> Random.State.float st 140.0 -. 20.0) in
      let p = Vec.init n (fun _ -> Random.State.float st 12.0) in
      let same a b =
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      in
      let traj = Transient.simulate_const d ~t0 ~steps p in
      let ok = ref true and t = ref t0 and best = ref neg_infinity in
      for k = 0 to steps do
        if k > 0 then t := Rc_model.step_temperature d !t p;
        Array.iteri
          (fun i x ->
            if not (same x (Mat.get traj.Transient.temperatures k i)) then
              ok := false;
            best := Float.max !best x)
          !t
      done;
      !ok && same !best (Transient.peak_const d ~t0 ~steps p))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_monotone_in_power; prop_steady_above_ambient;
      prop_euler_bounded_by_steady; prop_transient_matches_dense ]

let () =
  Alcotest.run "thermal"
    [
      ( "floorplan",
        [
          Alcotest.test_case "basic geometry" `Quick test_floorplan_basic;
          Alcotest.test_case "shared edges" `Quick test_floorplan_shared_edge;
          Alcotest.test_case "neighbours" `Quick test_floorplan_neighbours;
          Alcotest.test_case "rejects overlap" `Quick
            test_floorplan_rejects_overlap;
          Alcotest.test_case "rejects duplicates" `Quick
            test_floorplan_rejects_duplicates;
        ] );
      ( "rc_model",
        [
          Alcotest.test_case "single block steady" `Quick
            test_rc_single_block_steady;
          Alcotest.test_case "zero power is ambient" `Quick
            test_rc_zero_power_is_ambient;
          Alcotest.test_case "heat flows to neighbour" `Quick
            test_rc_heat_flows_to_neighbour;
          Alcotest.test_case "discrete fixed point" `Quick
            test_rc_discretize_matches_steady;
          Alcotest.test_case "rejects large dt" `Quick
            test_rc_discretize_rejects_large_dt;
          Alcotest.test_case "rejects non-finite dt" `Quick
            test_rc_discretize_rejects_non_finite_dt;
          Alcotest.test_case "step matrix nonnegative" `Quick
            test_rc_step_matrix_nonnegative;
          Alcotest.test_case "conductance symmetric" `Quick
            test_rc_conductance_symmetric;
          Alcotest.test_case "monotone in initial condition" `Quick
            test_rc_monotone_in_initial_condition;
        ] );
      ( "transient",
        [
          Alcotest.test_case "converges to steady" `Quick
            test_transient_converges_to_steady;
          Alcotest.test_case "peak and series" `Quick
            test_transient_peak_and_series;
          Alcotest.test_case "peak without a trajectory" `Quick
            test_transient_peak_const_bits;
          Alcotest.test_case "exact matches euler" `Quick
            test_exact_matches_euler_small_dt;
          Alcotest.test_case "exact long step" `Quick
            test_exact_step_reaches_steady;
          Alcotest.test_case "euler error at the paper's step" `Quick
            test_euler_error_at_paper_step;
          Alcotest.test_case "in-place steps match" `Quick
            test_in_place_steps_match_allocating;
        ] );
      ( "hotspot3l",
        [
          Alcotest.test_case "layout" `Quick test_hotspot_layout;
          Alcotest.test_case "zero power ambient" `Quick
            test_hotspot_zero_power_ambient;
          Alcotest.test_case "layer ordering" `Quick
            test_hotspot_layer_ordering;
          Alcotest.test_case "vertical chain" `Quick
            test_hotspot_vertical_chain_matches;
          Alcotest.test_case "cross-validates rc model" `Quick
            test_hotspot_cross_validates_rc;
        ] );
      ( "calibrate",
        [
          Alcotest.test_case "hits target peak" `Quick
            test_calibrate_hits_target;
          Alcotest.test_case "rejects unreachable" `Quick
            test_calibrate_rejects_unreachable;
          Alcotest.test_case "identifies Eq.1 coefficients" `Quick
            test_fit_discrete_recovers_model;
        ] );
      ( "niagara",
        [
          Alcotest.test_case "floorplan shape" `Quick
            test_niagara_floorplan_shape;
          Alcotest.test_case "core adjacency" `Quick
            test_niagara_core_adjacency;
          Alcotest.test_case "calibrated peak" `Quick
            test_niagara_calibrated_peak;
          Alcotest.test_case "quadratic power law" `Quick
            test_niagara_power_law;
          Alcotest.test_case "middle cores hotter" `Quick
            test_niagara_middle_cores_hotter;
          Alcotest.test_case "dt stable" `Quick test_niagara_dt_stable;
          Alcotest.test_case "fixed power share" `Quick
            test_niagara_fixed_power_share;
        ] );
      ("properties", props);
    ]
