(* Tests for the Pro-Temp core: specs, convex model construction and
   solving, the offline sweep, the table, the online controllers, and
   the headline never-exceeds-tmax guarantee as a property. *)

open Linalg

let check_bool = Alcotest.(check bool)
let check_float tol = Alcotest.(check (float tol))
let check_int = Alcotest.(check int)

let machine = lazy (Sim.Machine.niagara ())

(* A cheaper spec for solver-bound unit tests: same window, thermal
   cap enforced every 4th step (the audit below confirms the guarantee
   still holds at full resolution). *)
let fast_spec = { Protemp.Spec.default with Protemp.Spec.constraint_stride = 4 }

(* ------------------------------------------------------------------ *)
(* Spec *)

let test_spec_validation () =
  let bad s =
    match Protemp.Spec.validate s with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "negative tmax" true
    (bad { Protemp.Spec.default with Protemp.Spec.tmax = -1.0 });
  check_bool "zero stride" true
    (bad { Protemp.Spec.default with Protemp.Spec.constraint_stride = 0 });
  (* Every comparison with NaN is false, so each check must be phrased
     to fail on it. *)
  List.iter
    (fun x ->
      let d = Protemp.Spec.default in
      let label what = Printf.sprintf "%s %h" what x in
      check_bool (label "tmax") true (bad { d with Protemp.Spec.tmax = x });
      check_bool (label "dfs_period") true
        (bad { d with Protemp.Spec.dfs_period = x });
      check_bool (label "gradient weight") true
        (bad (Protemp.Spec.with_gradient ~weight:x d));
      check_bool (label "gradient cap") true
        (bad (Protemp.Spec.with_gradient ~cap:x d)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  check_bool "default ok" true
    (match Protemp.Spec.validate Protemp.Spec.default with
    | () -> true
    | exception Invalid_argument _ -> false)

let test_spec_with_gradient () =
  let s = Protemp.Spec.with_gradient ~weight:2.0 Protemp.Spec.default in
  match s.Protemp.Spec.gradient with
  | Some g -> check_float 1e-12 "weight" 2.0 g.Protemp.Spec.weight
  | None -> Alcotest.fail "gradient not set"

(* ------------------------------------------------------------------ *)
(* Table (synthetic; no solver involved) *)

let freqs v = Protemp.Table.Frequencies (Vec.create 8 v)

let synthetic_table () =
  Protemp.Table.make ~tstarts:[| 50.0; 80.0; 100.0 |]
    ~ftargets:[| 2e8; 5e8; 8e8 |]
    [|
      [| freqs 2e8; freqs 5e8; freqs 8e8 |];
      [| freqs 2e8; freqs 5e8; Protemp.Table.Infeasible |];
      [| freqs 2e8; Protemp.Table.Infeasible; Protemp.Table.Infeasible |];
    |]

let test_table_validation () =
  check_bool "unsorted tstarts" true
    (match
       Protemp.Table.make ~tstarts:[| 80.0; 50.0 |] ~ftargets:[| 1e8 |]
         [| [| freqs 1e8 |]; [| freqs 1e8 |] |]
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "ragged" true
    (match
       Protemp.Table.make ~tstarts:[| 50.0 |] ~ftargets:[| 1e8; 2e8 |]
         [| [| freqs 1e8 |] |]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_table_row_selection () =
  let t = synthetic_table () in
  check_bool "below first" true
    (Protemp.Table.row_for_temperature t 30.0 = Some 0);
  check_bool "exact" true (Protemp.Table.row_for_temperature t 80.0 = Some 1);
  check_bool "between" true (Protemp.Table.row_for_temperature t 81.0 = Some 2);
  check_bool "too hot" true (Protemp.Table.row_for_temperature t 101.0 = None)

let test_table_lookup_rounds_up_frequency () =
  let t = synthetic_table () in
  (* required 3e8 at a cool chip: smallest column >= required is 5e8 *)
  match Protemp.Table.lookup t ~temperature:40.0 ~required:3e8 with
  | Some f -> check_float 1.0 "rounded up" 5e8 f.(0)
  | None -> Alcotest.fail "expected entry"

let test_table_lookup_falls_back_down () =
  let t = synthetic_table () in
  (* hot row 100: the 5e8 and 8e8 columns are infeasible; fall back to
     the next lower feasible point, 2e8. *)
  match Protemp.Table.lookup t ~temperature:95.0 ~required:7e8 with
  | Some f -> check_float 1.0 "fell back" 2e8 f.(0)
  | None -> Alcotest.fail "expected fallback entry"

let test_table_lookup_none_when_too_hot () =
  let t = synthetic_table () in
  check_bool "none" true
    (Protemp.Table.lookup t ~temperature:120.0 ~required:1e8 = None)

(* The binary searches behind row/column selection, pinned against the
   obvious linear scans on randomized axes. *)
let test_table_binary_search_matches_linear () =
  let st = Random.State.make [| 0x7ab1e |] in
  for _ = 1 to 50 do
    let rows = 1 + Random.State.int st 7 in
    let cols = 1 + Random.State.int st 7 in
    let tstarts =
      Array.init rows (fun i -> 30.0 +. (10.0 *. float_of_int i))
    in
    let ftargets =
      Array.init cols (fun j -> 1e8 +. (1e8 *. float_of_int j))
    in
    let t =
      Protemp.Table.make ~tstarts ~ftargets
        (Array.make_matrix rows cols (freqs 1e8))
    in
    for _ = 1 to 40 do
      let temperature = 20.0 +. Random.State.float st 100.0 in
      let required = Random.State.float st 1e9 in
      let linear_row =
        let r = ref (-1) in
        for i = rows - 1 downto 0 do
          if tstarts.(i) >= temperature then r := i
        done;
        !r
      in
      let linear_col =
        let c = ref (cols - 1) in
        for j = cols - 1 downto 0 do
          if ftargets.(j) >= required then c := j
        done;
        !c
      in
      check_int "row_index" linear_row (Protemp.Table.row_index t temperature);
      check_int "col_start" linear_col (Protemp.Table.col_start t required)
    done
  done

(* lookup_into is lookup without the copy: same hit/miss decisions,
   same vector, written into the caller's buffer. *)
let test_table_lookup_into_agrees () =
  let t = synthetic_table () in
  let buf = Vec.zeros 8 in
  for it = 0 to 299 do
    let temperature = 20.0 +. (float_of_int (it mod 30) *. 3.7) in
    let required = float_of_int (it mod 12) *. 0.8e8 in
    match Protemp.Table.lookup t ~temperature ~required with
    | Some f ->
        check_bool "hit agrees" true
          (Protemp.Table.lookup_into t ~temperature ~required ~into:buf
          && Vec.approx_equal ~tol:0.0 f buf)
    | None ->
        check_bool "miss agrees" true
          (not (Protemp.Table.lookup_into t ~temperature ~required ~into:buf))
  done;
  check_bool "core_count" true (Protemp.Table.core_count t = Some 8)

let test_table_frontier () =
  let t = synthetic_table () in
  let frontier = Protemp.Table.feasible_frontier t in
  check_bool "row 0" true (frontier.(0) = (50.0, Some 8e8));
  check_bool "row 1" true (frontier.(1) = (80.0, Some 5e8));
  check_bool "row 2" true (frontier.(2) = (100.0, Some 2e8))

let test_table_csv_roundtrip () =
  let t = synthetic_table () in
  let t' = Protemp.Table.of_csv (Protemp.Table.to_csv t) in
  check_bool "axes" true
    (Protemp.Table.tstarts t = Protemp.Table.tstarts t'
    && Protemp.Table.ftargets t = Protemp.Table.ftargets t');
  for i = 0 to 2 do
    for j = 0 to 2 do
      let same =
        match (Protemp.Table.cell t i j, Protemp.Table.cell t' i j) with
        | Protemp.Table.Infeasible, Protemp.Table.Infeasible -> true
        | Protemp.Table.Frequencies a, Protemp.Table.Frequencies b ->
            Vec.approx_equal ~tol:1.0 a b
        | Protemp.Table.Infeasible, Protemp.Table.Frequencies _
        | Protemp.Table.Frequencies _, Protemp.Table.Infeasible -> false
      in
      check_bool "cell" true same
    done
  done

let test_table_csv_rejects_duplicates () =
  let t = synthetic_table () in
  let csv = Protemp.Table.to_csv t in
  let first_line =
    List.hd (String.split_on_char '\n' csv)
  in
  check_bool "duplicate cell rejected" true
    (match Protemp.Table.of_csv (csv ^ first_line ^ "\n") with
    | _ -> false
    | exception Failure _ -> true)

(* An infinite cell would be clamped to the core's ceiling and run it
   flat out; a NaN axis value matches no exact lookup.  Both kinds of
   input fail closed, in [make] and through [of_csv]. *)
let test_table_rejects_non_finite () =
  let make_fails ~tstarts ~ftargets cell =
    match Protemp.Table.make ~tstarts ~ftargets [| [| cell |] |] with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let cell x = Protemp.Table.Frequencies [| 1e8; x |] in
  check_bool "NaN tstart" true
    (make_fails ~tstarts:[| Float.nan |] ~ftargets:[| 1e8 |] (cell 1e8));
  check_bool "infinite ftarget" true
    (make_fails ~tstarts:[| 50.0 |] ~ftargets:[| infinity |] (cell 1e8));
  List.iter
    (fun x ->
      check_bool (Printf.sprintf "cell %g" x) true
        (make_fails ~tstarts:[| 50.0 |] ~ftargets:[| 1e8 |] (cell x)))
    [ infinity; neg_infinity; Float.nan; -1.0 ];
  let csv_fails line =
    match Protemp.Table.of_csv line with
    | _ -> None
    | exception Failure msg -> Some msg
    | exception Invalid_argument msg -> Some msg
  in
  List.iter
    (fun line ->
      check_bool line true (csv_fails line <> None))
    [ "50,1e8,1e8,inf"; "50,1e8,nan,1e8"; "50,1e8,-5,1e8"; "inf,1e8,1e8,1e8" ];
  match csv_fails "nan,1e8,1e8,1e8" with
  | Some msg ->
      check_bool
        (Printf.sprintf "NaN tstart reported by of_csv: %s" msg)
        true
        (String.length msg >= 13 && String.sub msg 0 13 = "Table.of_csv:")
  | None -> Alcotest.fail "NaN tstart accepted"

let test_table_make_validates_cell_dimensions () =
  let bad cells =
    match
      Protemp.Table.make ~tstarts:[| 50.0; 80.0 |] ~ftargets:[| 1e8 |] cells
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "mismatched core counts" true
    (bad
       [|
         [| Protemp.Table.Frequencies (Vec.create 8 1e8) |];
         [| Protemp.Table.Frequencies (Vec.create 4 1e8) |];
       |]);
  check_bool "empty frequency vector" true
    (bad
       [|
         [| Protemp.Table.Frequencies [||] |];
         [| Protemp.Table.Infeasible |];
       |]);
  check_bool "consistent dimensions accepted" true
    (not
       (bad
          [|
            [| Protemp.Table.Frequencies (Vec.create 8 1e8) |];
            [| Protemp.Table.Infeasible |];
          |]))

(* CSV round-trip as a property, over random tables whose axis values
   differ below the old %.6g print precision — exactly the tables the
   rounded format used to corrupt by merging rows on re-read. *)
let prop_table_csv_roundtrip_exact =
  QCheck2.Test.make ~name:"table: CSV round-trips exactly" ~count:60
    QCheck2.Gen.(
      let* rows = int_range 1 4 in
      let* cols = int_range 1 4 in
      let* n_cores = int_range 1 4 in
      let* t0 = float_range 20.0 90.0 in
      let* tincs =
        list_repeat (rows - 1) (oneofl [ 1.0; 3e-7; 1e-9; 0.1 +. 0.2 ])
      in
      let* f0 = float_range 1e8 5e8 in
      let* fincs = list_repeat (cols - 1) (oneofl [ 1e8; 0.25; 1e-3 ]) in
      let* cells =
        list_repeat (rows * cols)
          (oneof
             [
               return None;
               map Option.some (list_repeat n_cores (float_range 0.0 1e9));
             ])
      in
      return (t0, tincs, f0, fincs, cells))
    (fun (t0, tincs, f0, fincs, cells) ->
      let cumsum x0 incs =
        Array.of_list
          (List.rev
             (List.fold_left
                (fun acc d -> (List.hd acc +. d) :: acc)
                [ x0 ] incs))
      in
      let tstarts = cumsum t0 tincs and ftargets = cumsum f0 fincs in
      let cols = Array.length ftargets in
      let grid =
        Array.init (Array.length tstarts) (fun i ->
            Array.init cols (fun j ->
                match List.nth cells ((i * cols) + j) with
                | None -> Protemp.Table.Infeasible
                | Some vs -> Protemp.Table.Frequencies (Array.of_list vs)))
      in
      let t = Protemp.Table.make ~tstarts ~ftargets grid in
      let t' = Protemp.Table.of_csv (Protemp.Table.to_csv t) in
      Protemp.Table.tstarts t = Protemp.Table.tstarts t'
      && Protemp.Table.ftargets t = Protemp.Table.ftargets t'
      && Array.for_all
           (fun i ->
             Array.for_all
               (fun j ->
                 (* Structural equality: exact floats, no tolerance. *)
                 Protemp.Table.cell t i j = Protemp.Table.cell t' i j)
               (Array.init cols (fun j -> j)))
           (Array.init (Array.length tstarts) (fun i -> i)))

(* ------------------------------------------------------------------ *)
(* Model *)

let test_model_easy_instance () =
  (* Cool start, modest target: thermal slack everywhere, so the
     optimum is the uniform split at exactly the target and the power
     follows Eq. 2. *)
  let m = Lazy.force machine in
  let built = Protemp.Model.build ~machine:m ~spec:fast_spec ~tstart:40.0
      ~ftarget:4e8 in
  match Protemp.Model.solve built with
  | Protemp.Model.Infeasible -> Alcotest.fail "expected feasible"
  | Protemp.Model.Feasible s ->
      check_float 2e6 "mean at target" 4e8 (Vec.mean s.Protemp.Model.frequencies);
      (* p = 8 * 4W * 0.4^2 = 5.12 W *)
      check_float 0.05 "power law" 5.12 s.Protemp.Model.total_power;
      check_bool "peak within cap" true
        (Protemp.Model.predicted_peak built s.Protemp.Model.frequencies
        <= fast_spec.Protemp.Spec.tmax +. 1e-6)

let test_model_infeasible_when_too_hot () =
  let m = Lazy.force machine in
  let built = Protemp.Model.build ~machine:m ~spec:fast_spec ~tstart:105.0
      ~ftarget:1e8 in
  check_bool "infeasible" true (Protemp.Model.solve built = Protemp.Model.Infeasible)

let test_model_throughput_satisfied () =
  let m = Lazy.force machine in
  let built = Protemp.Model.build ~machine:m ~spec:fast_spec ~tstart:70.0
      ~ftarget:7e8 in
  match Protemp.Model.solve built with
  | Protemp.Model.Infeasible -> Alcotest.fail "expected feasible"
  | Protemp.Model.Feasible s ->
      check_bool "throughput" true
        (Vec.sum s.Protemp.Model.frequencies >= 8.0 *. 7e8 -. 8e6)

let test_model_uniform_expands () =
  let m = Lazy.force machine in
  let spec = { fast_spec with Protemp.Spec.variant = Protemp.Spec.Uniform } in
  let built = Protemp.Model.build ~machine:m ~spec ~tstart:40.0 ~ftarget:3e8 in
  match Protemp.Model.solve built with
  | Protemp.Model.Infeasible -> Alcotest.fail "expected feasible"
  | Protemp.Model.Feasible s ->
      check_int "eight cores" 8 (Vec.dim s.Protemp.Model.frequencies);
      let f0 = s.Protemp.Model.frequencies.(0) in
      check_bool "all equal" true
        (Array.for_all (fun f -> Float.abs (f -. f0) < 1.0)
           s.Protemp.Model.frequencies)

let test_model_frontier_beats_uniform () =
  (* Section 5.3: the variable assignment supports at least the
     uniform frontier, with the periphery cores at or above the middle
     ones. *)
  let m = Lazy.force machine in
  let var = Protemp.Model.build_frontier ~machine:m ~spec:fast_spec ~tstart:57.0 in
  let uni =
    Protemp.Model.build_frontier ~machine:m
      ~spec:{ fast_spec with Protemp.Spec.variant = Protemp.Spec.Uniform }
      ~tstart:57.0
  in
  match (Protemp.Model.solve_frontier var, Protemp.Model.solve_frontier uni) with
  | Protemp.Model.Feasible v, Protemp.Model.Feasible u ->
      let fv = Vec.mean v.Protemp.Model.frequencies in
      let fu = Vec.mean u.Protemp.Model.frequencies in
      check_bool (Printf.sprintf "variable %.0f >= uniform %.0f" fv fu) true
        (fv >= fu -. 1e6);
      (* periphery (P1 P4 P5 P8 = 0 3 4 7) at or above middles *)
      let f = v.Protemp.Model.frequencies in
      check_bool "P1 >= P2" true (f.(0) >= f.(1) -. 1e5);
      check_bool "P4 >= P3" true (f.(3) >= f.(2) -. 1e5)
  | _, _ -> Alcotest.fail "expected both frontiers feasible"

let test_model_gradient_variant_reports_spread () =
  let m = Lazy.force machine in
  let spec = Protemp.Spec.with_gradient ~weight:0.5 fast_spec in
  let built = Protemp.Model.build ~machine:m ~spec ~tstart:50.0 ~ftarget:5e8 in
  match Protemp.Model.solve built with
  | Protemp.Model.Infeasible -> Alcotest.fail "expected feasible"
  | Protemp.Model.Feasible s -> (
      match s.Protemp.Model.gradient_spread with
      | Some spread -> check_bool "positive and bounded" true
          (spread >= 0.0 && spread < 100.0)
      | None -> Alcotest.fail "spread missing")

let test_model_rejects_bad_ftarget () =
  let m = Lazy.force machine in
  check_bool "too high" true
    (match
       Protemp.Model.build ~machine:m ~spec:fast_spec ~tstart:40.0
         ~ftarget:2e9
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Offline *)

let small_table =
  lazy
    (Protemp.Offline.sweep ~machine:(Lazy.force machine) ~spec:fast_spec
       ~tstarts:[| 40.0; 70.0; 100.0 |]
       ~ftargets:[| 3e8; 6e8; 9e8 |]
       ())

let test_offline_sweep_shape () =
  let t = Lazy.force small_table in
  check_int "rows" 3 (Array.length (Protemp.Table.tstarts t));
  check_int "cols" 3 (Array.length (Protemp.Table.ftargets t));
  (* The cool rows support everything up to 900 MHz. *)
  check_bool "cool row feasible" true
    (match Protemp.Table.cell t 0 2 with
    | Protemp.Table.Frequencies _ -> true
    | Protemp.Table.Infeasible -> false)

let test_offline_monotone_infeasibility () =
  (* Once a column is infeasible in a row, all higher columns are. *)
  let t = Lazy.force small_table in
  Array.iteri
    (fun i _ ->
      let seen_infeasible = ref false in
      Array.iteri
        (fun j _ ->
          match Protemp.Table.cell t i j with
          | Protemp.Table.Infeasible -> seen_infeasible := true
          | Protemp.Table.Frequencies _ ->
              check_bool "no feasible after infeasible" false !seen_infeasible)
        (Protemp.Table.ftargets t))
    (Protemp.Table.tstarts t)

let test_offline_frontier_consistent_with_sweep () =
  let m = Lazy.force machine in
  match
    Protemp.Offline.max_feasible_ftarget ~machine:m ~spec:fast_spec
      ~tstart:70.0 ()
  with
  | None -> Alcotest.fail "expected a frontier"
  | Some f ->
      (* every feasible cell of the 70-degree row is below the
         frontier *)
      let t = Lazy.force small_table in
      Array.iteri
        (fun j ftarget ->
          match Protemp.Table.cell t 1 j with
          | Protemp.Table.Frequencies _ ->
              check_bool "cell below frontier" true (ftarget <= f +. 1e7)
          | Protemp.Table.Infeasible ->
              check_bool "cell above frontier" true (ftarget >= f -. 1e7))
        (Protemp.Table.ftargets t)

(* ------------------------------------------------------------------ *)
(* Controllers *)

let obs ~temp ~required =
  {
    Sim.Policy.time = 0.0;
    core_temperatures = Vec.create 8 temp;
    max_core_temperature = temp;
    required_frequency = required;
    core_fmax = Vec.create 8 1e9;
    utilizations = Vec.zeros 8;
    queue_length = 0;
    queued_work = 0.0;
  }

let test_controller_uses_table () =
  let c = Protemp.Controller.create ~table:(synthetic_table ()) in
  let f = c.Sim.Policy.decide (obs ~temp:40.0 ~required:3e8) in
  check_float 1.0 "table entry" 5e8 f.(0)

let test_controller_stops_when_too_hot () =
  let c = Protemp.Controller.create ~table:(synthetic_table ()) in
  let f = c.Sim.Policy.decide (obs ~temp:150.0 ~required:3e8) in
  check_float 1e-9 "stopped" 0.0 (Vec.norm_inf f)

let test_basic_dfs_lag () =
  let c = Protemp.Basic_dfs.create ~threshold:90.0 ~lag_periods:1 ~fmax:1e9 () in
  (* First epoch hot: no history yet, reacts to the current reading. *)
  let f1 = c.Sim.Policy.decide (obs ~temp:95.0 ~required:1e9) in
  check_float 1e-9 "first epoch shut" 0.0 f1.(0);
  (* Chip cools below threshold, but the lagged reading is still hot:
     the shutdown persists one extra window. *)
  let f2 = c.Sim.Policy.decide (obs ~temp:60.0 ~required:1e9) in
  check_float 1e-9 "lagged shutdown" 0.0 f2.(0);
  (* Now the lagged reading is the cool one: full speed resumes. *)
  let f3 = c.Sim.Policy.decide (obs ~temp:95.0 ~required:1e9) in
  check_float 1e-9 "resumes on stale cool reading" 1e9 f3.(0)

let test_basic_dfs_no_lag () =
  let c = Protemp.Basic_dfs.create ~threshold:90.0 ~lag_periods:0 ~fmax:1e9 () in
  let f = c.Sim.Policy.decide (obs ~temp:95.0 ~required:1e9) in
  check_float 1e-9 "instant shutdown" 0.0 f.(0);
  let f = c.Sim.Policy.decide (obs ~temp:60.0 ~required:5e8) in
  check_float 1e-9 "instant resume" 5e8 f.(0)

let test_no_tc_follows_demand () =
  let c = Protemp.No_tc.create ~fmax:1e9 in
  let f = c.Sim.Policy.decide (obs ~temp:150.0 ~required:7e8) in
  check_float 1e-9 "ignores temperature" 7e8 f.(0)

(* ------------------------------------------------------------------ *)
(* Guarantee *)

let test_guarantee_window_peak_cooling () =
  (* Zero frequency from a hot uniform start: the peak is the start. *)
  let m = Lazy.force machine in
  let peak =
    Protemp.Guarantee.window_peak ~machine:m ~dfs_period:0.1 ~tstart:95.0
      ~frequencies:(Vec.zeros 8)
  in
  check_float 1e-9 "peak is start" 95.0 peak

let test_guarantee_audit_table () =
  let m = Lazy.force machine in
  let audit =
    Protemp.Guarantee.audit_table ~machine:m ~spec:fast_spec
      (Lazy.force small_table)
  in
  check_bool "cells checked" true (audit.Protemp.Guarantee.cells_checked > 0);
  (* Every stored entry honours tmax at full thermal resolution, even
     though the model only constrained every 4th step. *)
  check_bool
    (Printf.sprintf "margin %.4f >= 0" audit.Protemp.Guarantee.worst_margin)
    true
    (audit.Protemp.Guarantee.worst_margin >= -1e-9)

(* ------------------------------------------------------------------ *)
(* Ladder (discrete DVFS) *)

let test_ladder_floor () =
  let l = Protemp.Ladder.make [ 2e8; 6e8; 1e9 ] in
  check_float 1.0 "between levels" 6e8 (Protemp.Ladder.floor l 7e8);
  check_float 1.0 "exact level" 6e8 (Protemp.Ladder.floor l 6e8);
  check_float 1.0 "above top" 1e9 (Protemp.Ladder.floor l 2e9);
  check_float 1.0 "below bottom is off" 0.0 (Protemp.Ladder.floor l 1e8)

let test_ladder_uniform () =
  let l = Protemp.Ladder.uniform ~fmax:1e9 ~levels:4 in
  check_bool "levels" true
    (Vec.approx_equal ~tol:1.0 (Protemp.Ladder.levels l)
       [| 2.5e8; 5e8; 7.5e8; 1e9 |])

let test_ladder_validation () =
  check_bool "empty" true
    (match Protemp.Ladder.make [] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "negative" true
    (match Protemp.Ladder.make [ -1.0 ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_ladder_quantize_table_preserves_guarantee () =
  let m = Lazy.force machine in
  let ladder = Protemp.Ladder.uniform ~fmax:1e9 ~levels:20 in
  let quantized =
    Protemp.Ladder.quantize_table ladder (Lazy.force small_table)
  in
  let levels = Protemp.Ladder.levels ladder in
  let on_ladder f = f = 0.0 || Array.exists (fun l -> l = f) levels in
  let ftargets = Protemp.Table.ftargets quantized in
  let any_feasible = ref false in
  (* Re-labelling contract: every stored cell is on the ladder and
     honours its (possibly demoted) column's throughput promise. *)
  Array.iteri
    (fun i _ ->
      Array.iteri
        (fun j target ->
          match Protemp.Table.cell quantized i j with
          | Protemp.Table.Infeasible -> ()
          | Protemp.Table.Frequencies f ->
              any_feasible := true;
              Array.iter
                (fun fq -> check_bool "value on ladder" true (on_ladder fq))
                f;
              let sum = Array.fold_left ( +. ) 0.0 f in
              let promised = float_of_int (Array.length f) *. target in
              check_bool "column throughput honoured" true
                (sum >= promised -. (1e-6 *. Float.max 1.0 promised)))
        ftargets)
    (Protemp.Table.tstarts quantized);
  check_bool "quantization kept some cells" true !any_feasible;
  (* Every stored vector is elementwise at most a vector certified for
     the same row, so the audit must still pass. *)
  let audit = Protemp.Guarantee.audit_table ~machine:m ~spec:fast_spec quantized in
  check_bool "audit" true (audit.Protemp.Guarantee.worst_margin >= -1e-9)

(* ------------------------------------------------------------------ *)
(* Online (MPC) controller *)

let test_online_keeps_guarantee () =
  let m = Lazy.force machine in
  let spec = { Protemp.Spec.default with Protemp.Spec.constraint_stride = 8 } in
  let online = Protemp.Online.create ~machine:m ~spec () in
  let trace = Workload.Trace.generate ~seed:808L ~n_tasks:1200 Workload.Mix.web in
  let r =
    Sim.Engine.run m (Protemp.Online.controller online) Sim.Policy.first_idle
      trace
  in
  check_int "zero violations" 0 (Sim.Stats.violation_steps r.Sim.Engine.stats);
  check_int "all tasks done" 0 r.Sim.Engine.unfinished;
  check_bool "solved every epoch" true (Protemp.Online.solves online > 0);
  let c = Protemp.Online.counts online in
  check_int "counts sum to solves"
    (Protemp.Online.solves online)
    (c.Protemp.Online.solved + c.Protemp.Online.fallbacks
   + c.Protemp.Online.stops)

(* Hand-crafted observations drive each stage of the degradation
   chain in turn: fresh solve, table fallback, safe stop. *)
let obs_at m temp required =
  let n = m.Sim.Machine.n_cores in
  {
    Sim.Policy.time = 0.0;
    core_temperatures = Vec.create n temp;
    max_core_temperature = temp;
    required_frequency = required;
    core_fmax = Vec.copy m.Sim.Machine.core_fmax;
    utilizations = Vec.create n 1.0;
    queue_length = n;
    queued_work = 1.0;
  }

let counts_testable =
  Alcotest.testable
    (fun fmt c ->
      Format.fprintf fmt "{solved=%d; fallbacks=%d; stops=%d}"
        c.Protemp.Online.solved c.Protemp.Online.fallbacks
        c.Protemp.Online.stops)
    ( = )

let test_online_degradation_chain () =
  let m = Lazy.force machine in
  let spec = { Protemp.Spec.default with Protemp.Spec.constraint_stride = 8 } in
  (* One certified low-frequency row just above the hot observation:
     at 1e8 the cores cool, so the window peak is the start value. *)
  let fallback =
    Protemp.Guarantee.uniform_table ~machine:m ~spec ~tstarts:[| 99.5 |]
      ~ftargets:[| 1e8 |] ()
  in
  (match Protemp.Table.cell fallback 0 0 with
  | Protemp.Table.Frequencies _ -> ()
  | Protemp.Table.Infeasible -> Alcotest.fail "fallback row not certified");
  let online = Protemp.Online.create ~fallback ~machine:m ~spec () in
  let probe, outcomes = Protemp.Online.outcome_probe online in
  ignore probe;
  let decide = (Protemp.Online.controller online).Sim.Policy.decide in
  (* Cool and modest: the fresh solve succeeds. *)
  let f = decide (obs_at m 45.0 2e8) in
  check_bool "solved answer is positive" true (Vec.max f > 0.0);
  Alcotest.check counts_testable "solve first"
    { Protemp.Online.solved = 1; fallbacks = 0; stops = 0 }
    (Protemp.Online.counts online);
  (* Nearly at the cap demanding fmax: infeasible, so the table's
     next-lower-feasible-column rule answers. *)
  let f = decide (obs_at m 99.0 1e9) in
  check_bool "fallback answers the table cell" true
    (Vec.max f <= 1e8 +. 1.0 && Vec.max f > 0.0);
  Alcotest.check counts_testable "then fall back"
    { Protemp.Online.solved = 1; fallbacks = 1; stops = 0 }
    (Protemp.Online.counts online);
  Alcotest.check counts_testable "probe sees the same outcomes"
    (Protemp.Online.counts online)
    (outcomes ());
  (* No fallback table: the chain ends in a safe stop. *)
  let bare = Protemp.Online.create ~machine:m ~spec () in
  let f = (Protemp.Online.controller bare).Sim.Policy.decide (obs_at m 99.0 1e9) in
  check_float 0.0 "stop vector" 0.0 (Vec.max f);
  Alcotest.check counts_testable "last resort stops"
    { Protemp.Online.solved = 0; fallbacks = 0; stops = 1 }
    (Protemp.Online.counts bare)

(* Golden zero-fault check: the hardened path (explicit margin 0.0,
   wrapped in an empty fault list) must reproduce the plain controller
   bit-for-bit — the guard band and fault layer cost nothing when off. *)
let test_online_zero_fault_bit_identical () =
  let m = Lazy.force machine in
  let spec = { Protemp.Spec.default with Protemp.Spec.constraint_stride = 8 } in
  let trace =
    Workload.Trace.generate ~seed:515L ~n_tasks:300 Workload.Mix.web
  in
  let run ctrl = Sim.Engine.run m ctrl Sim.Policy.first_idle trace in
  let plain =
    run (Protemp.Online.controller (Protemp.Online.create ~machine:m ~spec ()))
  in
  let hardened =
    run
      (Sim.Fault.wrap ~faults:[]
         (Protemp.Online.controller
            (Protemp.Online.create ~margin:0.0 ~machine:m ~spec ())))
  in
  check_bool "bit-identical stats" true
    (Sim.Stats.equal plain.Sim.Engine.stats hardened.Sim.Engine.stats);
  check_int "identical unfinished" plain.Sim.Engine.unfinished
    hardened.Sim.Engine.unfinished

let test_online_margin_validation () =
  let m = Lazy.force machine in
  let bad margin =
    match Protemp.Online.create ~margin ~machine:m ~spec:fast_spec () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "negative margin" true (bad (-1.0));
  check_bool "nan margin" true (bad Float.nan);
  check_bool "infinite margin" true (bad Float.infinity);
  check_bool "margin swallows the envelope" true
    (bad fast_spec.Protemp.Spec.tmax);
  check_bool "sane margin accepted" true (not (bad 5.0))

(* The headline property: Pro-Temp never exceeds tmax, on random
   traces. *)
let prop_never_exceeds_tmax =
  QCheck2.Test.make ~name:"pro-temp: zero violations on random traces"
    ~count:6
    QCheck2.Gen.(
      pair (int_range 0 1_000_000)
        (oneofl [ "web"; "multimedia"; "compute"; "mix" ]))
    (fun (seed, mix_name) ->
      let m = Lazy.force machine in
      let table = Lazy.force small_table in
      let trace =
        Workload.Trace.generate ~seed:(Int64.of_int seed) ~n_tasks:2000
          (Workload.Mix.by_name mix_name)
      in
      let controller = Protemp.Controller.create ~table in
      let r = Sim.Engine.run m controller Sim.Policy.first_idle trace in
      Sim.Stats.violation_steps r.Sim.Engine.stats = 0
      && Sim.Stats.peak_temperature r.Sim.Engine.stats
         <= fast_spec.Protemp.Spec.tmax)

(* And the contrast: under the same saturating load, the reactive
   baseline does violate. *)
(* The PR's acceptance property, end to end: a certified-but-unguarded
   table breaks the cap under every injected fault severity (stale
   observations plus bounded sensor noise), while the same table built
   with a 5 C guard band absorbs all of them — and with zero faults
   the two reproduce the guarantee exactly. *)
let test_guard_band_absorbs_faults () =
  let m = Lazy.force machine in
  let spec = Protemp.Spec.default in
  let tstarts = Array.init 74 (fun i -> 27.0 +. float_of_int i) in
  let ftargets = Array.init 9 (fun i -> float_of_int (i + 1) *. 1e8) in
  let table margin =
    Protemp.Guarantee.uniform_table ~machine:m ~spec ~margin ~tstarts
      ~ftargets ()
  in
  let trace =
    Workload.Trace.generate ~seed:7L ~n_tasks:2500
      Workload.Mix.compute_intensive
  in
  let severities = [| 0.0; 1.0; 2.0; 3.0 |] in
  let faults_of s =
    if s = 0.0 then []
    else
      [
        Sim.Fault.sensor_noise ~seed:1807L ~magnitude:2.0 ();
        Sim.Fault.stale_observation ~epochs:(int_of_float s);
      ]
  in
  let sweep tbl =
    Protemp.Guarantee.violations_under_faults ~machine:m
      ~controller:(fun () -> Protemp.Controller.create ~table:tbl)
      ~trace ~faults_of ~severities ()
  in
  let unguarded = sweep (table 0.0) in
  let guarded = sweep (table 5.0) in
  Array.iteri
    (fun i (u : Protemp.Guarantee.severity_point) ->
      let g = guarded.(i) in
      check_bool "steps audited" true
        (u.Protemp.Guarantee.thermal.Sim.Probe.audited_steps > 0);
      if u.Protemp.Guarantee.severity = 0.0 then
        check_int "zero faults, zero violations (unguarded)" 0
          u.Protemp.Guarantee.thermal.Sim.Probe.violating_steps
      else
        check_bool
          (Printf.sprintf "unguarded violates at severity %.0f"
             u.Protemp.Guarantee.severity)
          true
          (u.Protemp.Guarantee.thermal.Sim.Probe.violating_steps > 0);
      check_int
        (Printf.sprintf "guarded absorbs severity %.0f"
           g.Protemp.Guarantee.severity)
        0 g.Protemp.Guarantee.thermal.Sim.Probe.violating_steps)
    unguarded

let test_basic_dfs_violates_under_load () =
  let m = Lazy.force machine in
  let trace =
    Workload.Trace.generate ~seed:4242L ~n_tasks:6000
      Workload.Mix.compute_intensive
  in
  let basic = Protemp.Basic_dfs.create ~fmax:1e9 () in
  let r = Sim.Engine.run m basic Sim.Policy.first_idle trace in
  check_bool "violations happen" true
    (Sim.Stats.violation_steps r.Sim.Engine.stats > 0)

(* Lookup semantics on random synthetic tables: the result always
   comes from the covering row, and when the ideal column (smallest
   target at or above the requirement) is feasible, it is chosen. *)
let prop_table_lookup_semantics =
  QCheck2.Test.make ~name:"table: lookup picks the ideal feasible column"
    ~count:200
    QCheck2.Gen.(
      triple (int_range 0 1_000_000)
        (float_range 20.0 120.0)
        (float_range 0.0 1.1e9))
    (fun (seed, temperature, required) ->
      let st = Random.State.make [| seed |] in
      let tstarts = [| 40.0; 70.0; 100.0 |] in
      let ftargets = [| 2e8; 5e8; 8e8 |] in
      let cells =
        Array.map
          (fun _ ->
            Array.map
              (fun f ->
                if Random.State.bool st then
                  Protemp.Table.Frequencies (Vec.create 8 f)
                else Protemp.Table.Infeasible)
              ftargets)
          tstarts
      in
      let table = Protemp.Table.make ~tstarts ~ftargets cells in
      match Protemp.Table.lookup table ~temperature ~required with
      | None ->
          (* Legal only when the chip is hotter than every row, or
             every cell of the covering row at or below the ideal
             column is infeasible. *)
          temperature > 100.0
          ||
          let row = Option.get (Protemp.Table.row_for_temperature table temperature) in
          let ideal =
            let rec go j =
              if j < 2 && ftargets.(j) < required then go (j + 1) else j
            in
            go 0
          in
          Array.for_all
            (fun j -> cells.(row).(j) = Protemp.Table.Infeasible)
            (Array.init (ideal + 1) Fun.id)
      | Some f ->
          temperature <= 100.0
          &&
          let row = Option.get (Protemp.Table.row_for_temperature table temperature) in
          let ideal =
            let rec go j =
              if j < 2 && ftargets.(j) < required then go (j + 1) else j
            in
            go 0
          in
          (* the result is a feasible cell of the covering row at or
             below the ideal column, and the highest such one *)
          let rec highest j =
            if j < 0 then None
            else
              match cells.(row).(j) with
              | Protemp.Table.Frequencies g -> Some g
              | Protemp.Table.Infeasible -> highest (j - 1)
          in
          (match highest ideal with
          | Some g -> Vec.approx_equal ~tol:1.0 f g
          | None -> false))

(* ------------------------------------------------------------------ *)
(* Thermal-row filter: the model leaves out the Eq. 3 rows the power
   box already implies; test/model_reference.ml is the builder that
   emits them all. *)

let biglittle = lazy (Sim.Machine.biglittle ())

(* Thermal rows are what follows the power-law and box rows (five per
   frequency variable) and the floor, in a spec without gradient. *)
let emitted_thermal_rows (built : Protemp.Model.built) =
  Array.length built.Protemp.Model.problem.Convex.Barrier.constraints
  - ((5 * built.Protemp.Model.layout.Protemp.Model.n_f) + 1)

let holds (problem : Convex.Barrier.problem) x =
  Array.for_all
    (fun c -> Convex.Quad.eval c x <= 0.0)
    problem.Convex.Barrier.constraints

let prop_filter_keeps_feasible_set =
  QCheck2.Test.make
    ~name:"model: filtered rows hold iff every thermal row holds on the box"
    ~count:40
    QCheck2.Gen.(
      triple bool (float_range 27.0 100.0)
        (array_size (pure 8) (pair (float_range 0.0 1.0) (float_range 0.0 1.005))))
    (fun (big, tstart, point) ->
      let machine = Lazy.force (if big then biglittle else machine) in
      let built =
        Protemp.Model.build ~machine ~spec:fast_spec ~tstart ~ftarget:1e8
      in
      let reference =
        Model_reference.build ~machine ~spec:fast_spec ~tstart ~ftarget:1e8 ()
      in
      let layout = built.Protemp.Model.layout in
      let x = Vec.zeros layout.Protemp.Model.dim in
      (* Points on the power law's feasible side ([fhat <= sqrt phat]),
         so the thermal rows alone decide. *)
      Array.iteri
        (fun j (u, p) ->
          x.(layout.Protemp.Model.f_offset + j) <- u *. Float.min 1.0 (sqrt p);
          x.(layout.Protemp.Model.p_offset + j) <- p)
        point;
      holds built.Protemp.Model.problem x
      = holds reference.Protemp.Model.problem x)

let test_filter_pinned_counts () =
  let m = Lazy.force machine in
  List.iter
    (fun (tstart, kept) ->
      let built =
        Protemp.Model.build ~machine:m ~spec:fast_spec ~tstart ~ftarget:5e8
      in
      check_int "reference rows" 1071
        (emitted_thermal_rows
           (Model_reference.build ~machine:m ~spec:fast_spec ~tstart
              ~ftarget:5e8 ()));
      check_int
        (Printf.sprintf "rows kept at %.0f C" tstart)
        kept (emitted_thermal_rows built))
    [ (27.0, 144); (100.0, 504) ]

let test_filter_same_optimum () =
  List.iter
    (fun (machine, tstart, ftarget) ->
      let machine = Lazy.force machine in
      let solve built =
        match Protemp.Model.solve built with
        | Protemp.Model.Feasible s -> s
        | Protemp.Model.Infeasible -> Alcotest.fail "expected feasible"
      in
      let s =
        solve (Protemp.Model.build ~machine ~spec:fast_spec ~tstart ~ftarget)
      in
      let r =
        solve (Model_reference.build ~machine ~spec:fast_spec ~tstart ~ftarget ())
      in
      let obj (s : Protemp.Model.solution) =
        s.Protemp.Model.raw.Convex.Solve.objective_value
      in
      let rel = Float.abs (obj s -. obj r) /. Float.abs (obj r) in
      check_bool
        (Printf.sprintf "objective %.9g vs %.9g (rel %.2g) at %.0f C"
           (obj s) (obj r) rel tstart)
        true (rel <= 2e-6);
      let peak =
        Protemp.Guarantee.window_peak ~machine
          ~dfs_period:fast_spec.Protemp.Spec.dfs_period ~tstart
          ~frequencies:s.Protemp.Model.frequencies
      in
      (* Rows hold to the conic's feasibility tolerance (1e-7, in
         units of tmax), so a binding cell may overshoot by a few 1e-5
         C: the unfiltered solve at 85 C peaks at 100.0000244 C, the
         filtered one at 100.0000264 C. *)
      let tmax = fast_spec.Protemp.Spec.tmax in
      check_bool
        (Printf.sprintf "window peak %.7f C within tmax" peak)
        true (peak <= tmax +. (1e-6 *. tmax)))
    [
      (* A slack cell, then cells just inside the frontier, where the
         thermal rows bind. *)
      (machine, 40.0, 5e8);
      (machine, 85.0, 8.6e8);
      (machine, 95.0, 8.2e8);
      (biglittle, 45.0, 6e8);
      (biglittle, 70.0, 7.3e8);
      (biglittle, 90.0, 7.1e8);
    ]

(* Core-column recurrence: [Model.prepare] builds the thermal rows from
   the core columns of A^k alone; test/model_reference.ml still forms
   every A^k with [Mat.matmul]. *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_row a b =
  let open Convex.Quad in
  dim a = dim b
  && is_affine a = is_affine b
  && Array.for_all2 same_bits (Mat.data (hess a)) (Mat.data (hess b))
  && Array.for_all2 same_bits (linear_part a) (linear_part b)
  && same_bits (constant_part a) (constant_part b)

let test_prepare_bit_identical () =
  let niagara = Lazy.force machine and big = Lazy.force biglittle in
  let stride n spec = { spec with Protemp.Spec.constraint_stride = n } in
  let gradient = Protemp.Spec.with_gradient ~weight:0.5 ~cap:20.0 in
  let uniform spec = { spec with Protemp.Spec.variant = Protemp.Spec.Uniform } in
  let d = Protemp.Spec.default in
  List.iter
    (fun (name, machine, spec) ->
      List.iter
        (fun tstart ->
          let built =
            Protemp.Model.instantiate
              (Protemp.Model.prepare ~machine ~spec ~tstart)
              ~ftarget:5e8
          in
          let reference =
            Model_reference.build ~filter:true ~machine ~spec ~tstart
              ~ftarget:5e8 ()
          in
          let rows (b : Protemp.Model.built) =
            b.Protemp.Model.problem.Convex.Barrier.constraints
          in
          let label = Printf.sprintf "%s at %.0f C" name tstart in
          check_int (label ^ ": rows") (Array.length (rows reference))
            (Array.length (rows built));
          Array.iteri
            (fun i r ->
              if not (same_row r (rows reference).(i)) then
                Alcotest.failf "%s: row %d differs from the matmul oracle"
                  label i)
            (rows built))
        [ 27.0; 60.0; 85.0; 100.0 ])
    [
      ("niagara variable stride 1", niagara, d);
      ("niagara variable stride 4", niagara, stride 4 d);
      ("niagara uniform stride 1", niagara, uniform d);
      ("niagara uniform stride 4", niagara, stride 4 (uniform d));
      ("niagara gradient stride 4", niagara, stride 4 (gradient d));
      ("biglittle variable stride 1", big, d);
      ("biglittle variable stride 4", big, stride 4 d);
      ("biglittle gradient stride 1", big, gradient d);
    ]

(* Words allocated by [f ()], minor and major: an 18x18 matrix is
   allocated straight on the major heap, which [Gc.minor_words] alone
   would miss.  The counters also pick up words the collector itself
   allocates when a slice happens to run inside [f], which only ever
   adds, so the least of five runs is taken. *)
let allocated_words f =
  let once () =
    let minor0, promoted0, major0 = Gc.counters () in
    ignore (Sys.opaque_identity (f ()));
    let minor1, promoted1, major1 = Gc.counters () in
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  List.fold_left Float.min infinity (List.init 5 (fun _ -> once ()))

let test_prepare_allocation_flat () =
  let machine = Lazy.force machine in
  let thermal = machine.Sim.Machine.thermal in
  let dt = thermal.Thermal.Rc_model.dt in
  let t0 = Vec.create machine.Sim.Machine.n_nodes 60.0 in
  (* One constrained step (the window's end) and a tmax no row can
     reach, so every window emits the same rows — none — and what is
     left besides the base trajectory is the recurrence's own cost. *)
  let words steps =
    let spec =
      {
        Protemp.Spec.default with
        Protemp.Spec.tmax = 1e9;
        dfs_period = float_of_int steps *. dt;
        constraint_stride = 1_000_000;
      }
    in
    let prepared =
      allocated_words (fun () ->
          Protemp.Model.prepare_with_profile ~machine ~spec ~t0)
    in
    let trajectory =
      allocated_words (fun () ->
          Thermal.Transient.simulate thermal ~t0 ~steps ~power:(fun _ ->
              machine.Sim.Machine.fixed_power))
    in
    prepared -. trajectory
  in
  (* Forming A^k with [Mat.matmul] costs ~1400 words a step; one
     boxed float a step would add ~2900 words by 1000 steps. *)
  let short = words 50 in
  List.iter
    (fun steps ->
      check_float 64.0
        (Printf.sprintf "words besides the trajectory, %d vs 50 steps" steps)
        short (words steps))
    [ 250; 1000 ]

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_never_exceeds_tmax;
      prop_table_lookup_semantics;
      prop_table_csv_roundtrip_exact;
      prop_filter_keeps_feasible_set;
    ]

let () =
  Alcotest.run "protemp"
    [
      ( "spec",
        [
          Alcotest.test_case "validation" `Quick test_spec_validation;
          Alcotest.test_case "with_gradient" `Quick test_spec_with_gradient;
        ] );
      ( "table",
        [
          Alcotest.test_case "validation" `Quick test_table_validation;
          Alcotest.test_case "row selection" `Quick test_table_row_selection;
          Alcotest.test_case "lookup rounds up" `Quick
            test_table_lookup_rounds_up_frequency;
          Alcotest.test_case "lookup falls back" `Quick
            test_table_lookup_falls_back_down;
          Alcotest.test_case "lookup too hot" `Quick
            test_table_lookup_none_when_too_hot;
          Alcotest.test_case "binary search vs linear" `Quick
            test_table_binary_search_matches_linear;
          Alcotest.test_case "lookup_into agrees" `Quick
            test_table_lookup_into_agrees;
          Alcotest.test_case "frontier" `Quick test_table_frontier;
          Alcotest.test_case "csv roundtrip" `Quick test_table_csv_roundtrip;
          Alcotest.test_case "csv rejects duplicates" `Quick
            test_table_csv_rejects_duplicates;
          Alcotest.test_case "cell dimension validation" `Quick
            test_table_make_validates_cell_dimensions;
          Alcotest.test_case "non-finite input rejected" `Quick
            test_table_rejects_non_finite;
        ] );
      ( "model",
        [
          Alcotest.test_case "easy instance" `Slow test_model_easy_instance;
          Alcotest.test_case "infeasible when too hot" `Slow
            test_model_infeasible_when_too_hot;
          Alcotest.test_case "throughput satisfied" `Slow
            test_model_throughput_satisfied;
          Alcotest.test_case "uniform expands" `Slow test_model_uniform_expands;
          Alcotest.test_case "frontier beats uniform" `Slow
            test_model_frontier_beats_uniform;
          Alcotest.test_case "gradient variant" `Slow
            test_model_gradient_variant_reports_spread;
          Alcotest.test_case "rejects bad ftarget" `Quick
            test_model_rejects_bad_ftarget;
        ] );
      ( "offline",
        [
          Alcotest.test_case "sweep shape" `Slow test_offline_sweep_shape;
          Alcotest.test_case "monotone infeasibility" `Slow
            test_offline_monotone_infeasibility;
          Alcotest.test_case "frontier vs sweep" `Slow
            test_offline_frontier_consistent_with_sweep;
        ] );
      ( "controllers",
        [
          Alcotest.test_case "pro-temp uses table" `Quick
            test_controller_uses_table;
          Alcotest.test_case "pro-temp stops when too hot" `Quick
            test_controller_stops_when_too_hot;
          Alcotest.test_case "basic-dfs lag" `Quick test_basic_dfs_lag;
          Alcotest.test_case "basic-dfs no lag" `Quick test_basic_dfs_no_lag;
          Alcotest.test_case "no-tc follows demand" `Quick
            test_no_tc_follows_demand;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "floor" `Quick test_ladder_floor;
          Alcotest.test_case "uniform" `Quick test_ladder_uniform;
          Alcotest.test_case "validation" `Quick test_ladder_validation;
          Alcotest.test_case "quantized table keeps guarantee" `Slow
            test_ladder_quantize_table_preserves_guarantee;
        ] );
      ( "online",
        [
          Alcotest.test_case "keeps the guarantee" `Slow
            test_online_keeps_guarantee;
          Alcotest.test_case "degradation chain" `Quick
            test_online_degradation_chain;
          Alcotest.test_case "zero-fault bit identical" `Slow
            test_online_zero_fault_bit_identical;
          Alcotest.test_case "margin validation" `Quick
            test_online_margin_validation;
        ] );
      ( "row_filter",
        [
          Alcotest.test_case "pinned counts" `Quick test_filter_pinned_counts;
          Alcotest.test_case "same optimum" `Slow test_filter_same_optimum;
        ] );
      ( "prepare",
        [
          Alcotest.test_case "bit-identical to the matmul oracle" `Quick
            test_prepare_bit_identical;
          Alcotest.test_case "allocation flat in window length" `Quick
            test_prepare_allocation_flat;
        ] );
      ( "guarantee",
        [
          Alcotest.test_case "window peak cooling" `Quick
            test_guarantee_window_peak_cooling;
          Alcotest.test_case "table audit" `Slow test_guarantee_audit_table;
          Alcotest.test_case "guard band absorbs faults" `Slow
            test_guard_band_absorbs_faults;
          Alcotest.test_case "basic-dfs violates" `Slow
            test_basic_dfs_violates_under_load;
        ] );
      ("properties", props);
    ]
