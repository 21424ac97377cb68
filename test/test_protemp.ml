(* Tests for the Pro-Temp core: specs, convex model construction and
   solving, the offline sweep, the table, the online controllers, and
   the headline never-exceeds-tmax guarantee as a property. *)

open Linalg

let check_bool = Alcotest.(check bool)
let check_float tol = Alcotest.(check (float tol))
let check_int = Alcotest.(check int)

let machine = lazy (Sim.Machine.niagara ())
let biglittle = lazy (Sim.Machine.biglittle ())

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

(* The served rule: the table's in-memory store image, as
   Controller.create serves it. *)
let served table ~temperature ~required =
  let store = Protemp.Table_store.of_table table in
  let into = Vec.zeros (Protemp.Table_store.n_cores store) in
  if Protemp.Table_store.lookup_into store ~temperature ~required ~into then
    Some into
  else None

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
  let ts = Protemp.Table.tstarts (synthetic_table ()) in
  check_int "below first" 0 (Protemp.Table.covering ts 30.0);
  check_int "exact" 1 (Protemp.Table.covering ts 80.0);
  check_int "between" 2 (Protemp.Table.covering ts 81.0);
  check_int "too hot" (-1) (Protemp.Table.covering ts 101.0)

let test_table_lookup_rounds_up_frequency () =
  let t = synthetic_table () in
  (* required 3e8 at a cool chip: smallest column >= required is 5e8 *)
  match served t ~temperature:40.0 ~required:3e8 with
  | Some f -> check_float 1.0 "rounded up" 5e8 f.(0)
  | None -> Alcotest.fail "expected entry"

let test_table_lookup_falls_back_down () =
  let t = synthetic_table () in
  (* hot row 100: the 5e8 and 8e8 columns are infeasible; fall back to
     the next lower feasible point, 2e8. *)
  match served t ~temperature:95.0 ~required:7e8 with
  | Some f -> check_float 1.0 "fell back" 2e8 f.(0)
  | None -> Alcotest.fail "expected fallback entry"

let test_table_lookup_none_when_too_hot () =
  let t = synthetic_table () in
  check_bool "none" true
    (served t ~temperature:120.0 ~required:1e8 = None)

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
      check_int "covering row" linear_row
        (Protemp.Table.covering (Protemp.Table.tstarts t) temperature);
      check_int "round-up column" linear_col
        (Protemp.Table.round_up (Protemp.Table.ftargets t) required)
    done
  done

(* The served lookup_into against the reference rule
   (test/table_reference.ml): same hit/miss decisions, same vector,
   written into the caller's buffer. *)
let test_table_lookup_into_agrees () =
  let t = synthetic_table () in
  let store = Protemp.Table_store.of_table t in
  let buf = Vec.zeros 8 in
  for it = 0 to 299 do
    let temperature = 20.0 +. (float_of_int (it mod 30) *. 3.7) in
    let required = float_of_int (it mod 12) *. 0.8e8 in
    match Table_reference.lookup t ~temperature ~required with
    | Some f ->
        check_bool "hit agrees" true
          (Protemp.Table_store.lookup_into store ~temperature ~required
             ~into:buf
          && Vec.approx_equal ~tol:0.0 f buf)
    | None ->
        check_bool "miss agrees" true
          (not
             (Protemp.Table_store.lookup_into store ~temperature ~required
                ~into:buf))
  done;
  check_bool "core_count" true (Protemp.Table.core_count t = Some 8)

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

(* A dropped line of a table of at least 2x2 leaves its row and its
   column on other lines, so the hole is detectable: it must fail
   closed, never read back as an infeasible cell. *)
let test_table_csv_rejects_missing_cell () =
  let lines =
    String.split_on_char '\n' (Protemp.Table.to_csv (synthetic_table ()))
    |> List.filter (fun l -> l <> "")
  in
  List.iteri
    (fun k _ ->
      let csv = String.concat "\n" (List.filteri (fun k' _ -> k' <> k) lines) in
      check_bool (Printf.sprintf "line %d dropped" k) true
        (match Protemp.Table.of_csv csv with
        | _ -> false
        | exception Failure m ->
            String.starts_with ~prefix:"Table.of_csv: missing cell" m))
    lines

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
        (Protemp.Guarantee.window_peak ~machine:m
           ~dfs_period:fast_spec.Protemp.Spec.dfs_period ~tstart:40.0
           ~frequencies:s.Protemp.Model.frequencies
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

(* A non-finite start temperature or target must fail at construction:
   every comparison with NaN is false, so a NaN left in would pass the
   range checks, and the solver's row checks, unnoticed. *)
let test_model_rejects_non_finite () =
  let m = Lazy.force machine in
  let rejected f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  List.iter
    (fun x ->
      let label what = Printf.sprintf "%s %h" what x in
      check_bool (label "tstart") true
        (rejected (fun () ->
             Protemp.Model.build ~machine:m ~spec:fast_spec ~tstart:x
               ~ftarget:5e8));
      check_bool (label "prepare tstart") true
        (rejected (fun () ->
             Protemp.Model.prepare ~machine:m ~spec:fast_spec ~tstart:x));
      let t0 = Vec.create m.Sim.Machine.n_nodes 60.0 in
      t0.(3) <- x;
      check_bool (label "profile entry") true
        (rejected (fun () ->
             Protemp.Model.prepare_with_profile ~machine:m ~spec:fast_spec ~t0)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* A table's starts are checked before any row is read, at any
     position, searchable columns or not, and the refusal names the
     non-finite start. *)
  let big = Lazy.force biglittle in
  List.iter
    (fun (name, machine, ftargets) ->
      let cs = Protemp.Model.columns ~machine ~spec:fast_spec ftargets in
      List.iter
        (fun x ->
          for at = 0 to 2 do
            let tstarts = [| 27.0; 30.0; 33.0 |] in
            tstarts.(at) <- x;
            check_bool
              (Printf.sprintf "%s: rows with %h at %d" name x at)
              true
              (match ignore (Protemp.Model.rows cs tstarts : int -> _) with
              | () -> false
              | exception Invalid_argument msg ->
                  msg = "Model.rows: non-finite tstart")
          done)
        [ Float.nan; Float.infinity; Float.neg_infinity ])
    [
      ("Niagara", m, [| 1e8; 3e8 |]);
      ("big.LITTLE", big, [| 1e8; 7e8 |]);
      ("Niagara descending", m, [| 3e8; 1e8 |]);
    ];
  let cs = Protemp.Model.columns ~machine:big ~spec:fast_spec [| 1e8; 7e8 |] in
  check_bool "tied starts are ascending" true
    (match ignore (Protemp.Model.rows cs [| 27.0; 27.0; 33.0 |] : int -> _) with
    | () -> true
    | exception Invalid_argument _ -> false);
  let p = Protemp.Model.prepare ~machine:m ~spec:fast_spec ~tstart:40.0 in
  check_bool "nan ftarget" true
    (rejected (fun () -> Protemp.Model.instantiate p ~ftarget:Float.nan));
  check_bool "nan ftarget through build" true
    (rejected (fun () ->
         Protemp.Model.build ~machine:m ~spec:fast_spec ~tstart:40.0
           ~ftarget:Float.nan))

(* ------------------------------------------------------------------ *)
(* Phase 1: the design-time table *)

let small_table =
  lazy
    (Protemp.Dense_table.to_table
       (Protemp.Dense_table.create ~machine:(Lazy.force machine)
          ~spec:fast_spec ~tstarts:[| 40.0; 70.0; 100.0 |]
          ~ftargets:[| 3e8; 6e8; 9e8 |] ()))

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
    Protemp.Model.solve_frontier
      (Protemp.Model.build_frontier ~machine:m ~spec:fast_spec ~tstart:70.0)
  with
  | Protemp.Model.Infeasible -> Alcotest.fail "expected a frontier"
  | Protemp.Model.Feasible s ->
      let f = Vec.mean s.Protemp.Model.frequencies in
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

(* Controller.create serves through the table's store image: after the
   first call, every table hit reuses the controller's buffer and
   allocates nothing. *)
let test_controller_decide_allocation_free () =
  let c = Protemp.Controller.create ~table:(synthetic_table ()) in
  let o = obs ~temp:40.0 ~required:3e8 in
  ignore (c.Sim.Policy.decide o);
  let hits = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to hits do
    ignore (c.Sim.Policy.decide o)
  done;
  let words = Gc.minor_words () -. before in
  check_float 0.0 "minor words per hit" 0.0 (words /. float_of_int hits)

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

(* One window length: [Model.build]'s [steps], a simulated chip's
   epoch (steps between DFS boundaries, counted by a probe) and
   [Guarantee.window_peak] all take [Sim.Machine.window_steps], also
   for periods that are not a whole number of thermal steps; each
   still rejects a window below one step. *)
let test_window_steps_shared () =
  let m = Lazy.force machine in
  let thermal = m.Sim.Machine.thermal in
  let dt = thermal.Thermal.Rc_model.dt in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let chip period probes =
    Sim.Chip.create
      ~config:{ Sim.Chip.default_config with Sim.Chip.dfs_period = period }
      ~probes ~machine:m
      ~controller:(Protemp.No_tc.create ~fmax:m.Sim.Machine.fmax)
      ~assignment:Sim.Policy.first_idle ()
  in
  check_bool "0.1002 s is not a whole number of steps" false
    (Float.is_integer (0.1002 /. dt));
  List.iter
    (fun period ->
      let steps = Sim.Machine.window_steps m ~period in
      let name what = Printf.sprintf "%s at %g s" what period in
      check_int (name "round (period / dt)")
        (int_of_float (Float.round (period /. dt)))
        steps;
      let spec = { fast_spec with Protemp.Spec.dfs_period = period } in
      let built =
        Protemp.Model.build ~machine:m ~spec ~tstart:60.0 ~ftarget:5e8
      in
      check_int (name "model window") steps built.Protemp.Model.steps;
      let n = ref 0 and marks = ref [] in
      let probe =
        Sim.Probe.make
          ~on_step:(fun _ -> incr n)
          ~on_epoch:(fun _ -> marks := !n :: !marks)
          "count"
      in
      Sim.Chip.advance (chip period [ probe ]) ~until:(3.5 *. period);
      (match !marks with
      | last :: before :: _ ->
          check_int (name "chip epoch") steps (last - before)
      | _ -> Alcotest.fail (name "expected two DFS boundaries"));
      (* The certified window is [steps] steps long: its peak is the
         peak of exactly that many steps, bit for bit. *)
      let frequencies = Vec.create m.Sim.Machine.n_cores 9e8 in
      let power =
        Sim.Machine.power_vector m ~frequencies
          ~busy:(Array.make m.Sim.Machine.n_cores true)
      in
      let t0 = Vec.create m.Sim.Machine.n_nodes 60.0 in
      check_bool (name "guarantee window") true
        (Int64.equal
           (Int64.bits_of_float
              (Protemp.Guarantee.window_peak ~machine:m ~dfs_period:period
                 ~tstart:60.0 ~frequencies))
           (Int64.bits_of_float
              (Thermal.Transient.peak_const thermal ~t0 ~steps power))))
    (* 0.1002 s is 250.49999... steps and 0.1003 s 250.75: rounding,
       not truncation or ceiling, sets each window. *)
    [ 0.1; 0.1002; 0.1003 ];
  let short = 0.25 *. dt in
  check_int "below one step" 0 (Sim.Machine.window_steps m ~period:short);
  check_bool "model rejects" true
    (raises (fun () ->
         Protemp.Model.build ~machine:m
           ~spec:{ fast_spec with Protemp.Spec.dfs_period = short }
           ~tstart:60.0 ~ftarget:5e8));
  check_bool "chip rejects" true (raises (fun () -> chip short []));
  check_bool "guarantee rejects" true
    (raises (fun () ->
         Protemp.Guarantee.window_peak ~machine:m ~dfs_period:short
           ~tstart:60.0
           ~frequencies:(Vec.zeros m.Sim.Machine.n_cores)))

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
    Guarantee_reference.uniform_table ~machine:m ~spec ~tstarts:[| 99.5 |]
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

(* A NaN margin used to pass [margin < 0.0] and [margin >= tmax] and
   silently certify nothing: every cell came out infeasible. *)
let test_guarantee_margin_validation () =
  let m = Lazy.force machine in
  let bad margin =
    match
      Guarantee_reference.uniform_table ~machine:m ~spec:fast_spec ~margin
        ~tstarts:[| 60.0 |] ~ftargets:[| 1e8 |] ()
    with
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
    Guarantee_reference.uniform_table ~machine:m ~spec ~margin ~tstarts
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
    Guarantee_reference.violations_under_faults ~machine:m
      ~controller:(fun () -> Protemp.Controller.create ~table:tbl)
      ~trace ~faults_of ~severities ()
  in
  let unguarded = sweep (table 0.0) in
  let guarded = sweep (table 5.0) in
  Array.iteri
    (fun i (u : Guarantee_reference.severity_point) ->
      let g = guarded.(i) in
      check_bool "steps audited" true
        (u.Guarantee_reference.thermal.Sim.Probe.audited_steps > 0);
      if u.Guarantee_reference.severity = 0.0 then
        check_int "zero faults, zero violations (unguarded)" 0
          u.Guarantee_reference.thermal.Sim.Probe.violating_steps
      else
        check_bool
          (Printf.sprintf "unguarded violates at severity %.0f"
             u.Guarantee_reference.severity)
          true
          (u.Guarantee_reference.thermal.Sim.Probe.violating_steps > 0);
      check_int
        (Printf.sprintf "guarded absorbs severity %.0f"
           g.Guarantee_reference.severity)
        0 g.Guarantee_reference.thermal.Sim.Probe.violating_steps)
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
      match served table ~temperature ~required with
      | None ->
          (* Legal only when the chip is hotter than every row, or
             every cell of the covering row at or below the ideal
             column is infeasible. *)
          temperature > 100.0
          ||
          let row = Protemp.Table.covering tstarts temperature in
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
          let row = Protemp.Table.covering tstarts temperature in
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

(* Thermal rows are what follows the power-law and box rows and the
   floor, in a spec without gradient: of [n] constraints in all, in a
   reference problem or in the dual of a solved cell. *)
let thermal_rows (built : Protemp.Model.built) n =
  n - Protemp.Model.first_thermal_index built.Protemp.Model.layout

(* Whether {!Protemp.Model.solve} settles the cell in closed form: its
   first check, the column's point against the thermal rows that take
   part, holds on the cell's start.  Seed-free, so the cell is solved
   cold. *)
let closes built =
  match Protemp.Model.solve built with
  | Protemp.Model.Feasible s -> s.Protemp.Model.settled_by = `Closed_form
  | Protemp.Model.Infeasible -> false

let holds (problem : Quad.problem) x =
  Array.for_all (fun c -> Quad.eval c x <= 0.0) problem.Quad.constraints

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
      let layout = built.Protemp.Model.layout in
      let x = Vec.zeros layout.Protemp.Model.dim in
      (* Points on the power law's feasible side ([fhat <= sqrt phat]),
         so the thermal rows alone decide. *)
      Array.iteri
        (fun j (u, p) ->
          x.(layout.Protemp.Model.f_offset + j) <- u *. Float.min 1.0 (sqrt p);
          x.(layout.Protemp.Model.p_offset + j) <- p)
        point;
      (* The filtered reference from the affine base is the model's
         instance row for row (prop_conic_rows_bit_identical). *)
      holds (Model_reference.problem ~filter:true ~base:`Affine built) x
      = holds (Model_reference.problem built) x)

let test_filter_pinned_counts () =
  let m = Lazy.force machine in
  List.iter
    (fun (tstart, kept) ->
      let built =
        Protemp.Model.build ~machine:m ~spec:fast_spec ~tstart ~ftarget:5e8
      in
      check_int "reference rows" 1071
        (thermal_rows built
           (Array.length (Model_reference.problem built).Quad.constraints));
      match Protemp.Model.solve built with
      | Protemp.Model.Feasible s ->
          check_int
            (Printf.sprintf "rows kept at %.0f C" tstart)
            kept
            (thermal_rows built
               (Array.length s.Protemp.Model.raw.Convex.Solve.dual))
      | Protemp.Model.Infeasible -> Alcotest.fail "expected feasible")
    [ (27.0, 144); (100.0, 504) ]

(* The all-rows oracle: one conic solve of every row of [problem], an
   instance of [built]'s layout, at once, with no working set — what
   [Model.solve] computed before it solved on the rows that bind. *)
let all_rows_solve (built : Protemp.Model.built) problem =
  let t = Conic_reference.of_problem problem in
  let ws =
    Convex.Conic.make_workspace
      ~kkt:(`Blocks (Protemp.Model.conic_blocks built.Protemp.Model.layout))
      t
  in
  Convex.Conic.solve ~ws t

(* The filtered model, solved by [Model.solve] on its working set,
   against the all-rows solve of the unfiltered reference. *)
let test_filter_same_optimum () =
  List.iter
    (fun (machine, tstart, ftarget) ->
      let machine = Lazy.force machine in
      let built = Protemp.Model.build ~machine ~spec:fast_spec ~tstart ~ftarget in
      let s =
        match Protemp.Model.solve built with
        | Protemp.Model.Feasible s -> s
        | Protemp.Model.Infeasible -> Alcotest.fail "expected feasible"
      in
      let r =
        match all_rows_solve built (Model_reference.problem built) with
        | Convex.Conic.Optimal r -> r.Convex.Conic.objective_value
        | st ->
            Alcotest.failf "all-rows reference: %a" Convex.Conic.pp_status st
      in
      let obj = s.Protemp.Model.raw.Convex.Solve.objective_value in
      let rel = Float.abs (obj -. r) /. Float.abs r in
      check_bool
        (Printf.sprintf "objective %.9g vs %.9g (rel %.2g) at %.0f C" obj r
           rel tstart)
        true (rel <= 2e-6);
      let peak =
        Protemp.Guarantee.window_peak ~machine
          ~dfs_period:fast_spec.Protemp.Spec.dfs_period ~tstart
          ~frequencies:s.Protemp.Model.frequencies
      in
      (* Rows hold to the conic's feasibility tolerance (1e-7, in
         units of tmax), so a binding cell may overshoot by a few 1e-5
         C. *)
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

(* [Model.solve]'s outcome on [built] against the all-rows oracle.
   The two must reach the same verdict and objective.  The thermal and
   gradient rows — the ones the working set may leave out, and the
   ones the floor-only closed form ignores — must hold at the returned
   point to 1e-7 (in units of tmax), and the returned dual, zero off
   the working set, must be a KKT certificate for the full problem.

   The rows that are always in the set (box, floor) get the bound the
   conic itself accepts a solution at, the same for the oracle: a
   residual of [feas_tol] relative to [max(1, |h|_inf)], relaxed 100x
   when the endgame stalls (Conic.finish_unknown).  The floor constant
   is up to [n_cores], so on an 8-core chip that is up to 8e-5
   absolute.  Stationarity
   of [Kkt.residuals] also carries the epigraph lift's complementarity
   defect (about 3e-4 at worst for the oracle on these cells), so it
   gets the 1e-3 the barrier's KKT tests use. *)
let agrees_with_all_rows (built : Protemp.Model.built) outcome =
  let problem = Model_reference.problem ~filter:true built in
  let rows = problem.Quad.constraints in
  match (outcome, all_rows_solve built problem) with
  | Protemp.Model.Infeasible, Convex.Conic.Primal_infeasible _ -> true
  | Protemp.Model.Feasible s, Convex.Conic.Optimal r ->
      let raw = s.Protemp.Model.raw in
      let x = raw.Convex.Solve.x in
      let obj = raw.Convex.Solve.objective_value in
      let ref_obj = r.Convex.Conic.objective_value in
      let first_post =
        Protemp.Model.first_thermal_index built.Protemp.Model.layout
      in
      let worst ~from =
        let w = ref neg_infinity in
        Array.iteri
          (fun j c ->
            if j >= from && Quad.is_affine c then
              w := Float.max !w (Quad.eval c x))
          rows;
        !w
      in
      let h_max =
        Array.fold_left
          (fun acc c -> Float.max acc (Float.abs (Quad.constant_part c)))
          1.0 rows
      in
      let accepted = 100.0 *. Convex.Conic.feas_tol *. h_max in
      let k = Kkt.residuals problem x raw.Convex.Solve.dual in
      if Float.abs (obj -. ref_obj) > 2e-6 *. Float.max 1.0 (Float.abs obj) then
        QCheck2.Test.fail_reportf "objective %.12g, all-rows %.12g" obj ref_obj
      else if worst ~from:first_post > 1e-7 then
        QCheck2.Test.fail_reportf "a thermal or gradient row is at %.3g"
          (worst ~from:first_post)
      else if worst ~from:0 > accepted then
        QCheck2.Test.fail_reportf "an affine row is at %.3g > %.3g"
          (worst ~from:0) accepted
      else if
        not
          (k.Kkt.primal_infeasibility <= accepted
          && k.Kkt.dual_infeasibility <= 0.0
          && k.Kkt.complementarity
             <= 100.0 *. Convex.Conic.gap_rel_tol
                *. Float.max 1.0 (Float.abs obj)
          && k.Kkt.stationarity <= 1e-3)
      then QCheck2.Test.fail_reportf "KKT residuals: %a" Kkt.pp k
      else true
  | _, (Convex.Conic.Unknown _ | Convex.Conic.Dual_infeasible _) ->
      (* The oracle stalled and has no verdict to compare with. *)
      QCheck2.assume_fail ()
  | Protemp.Model.Feasible _, st | Protemp.Model.Infeasible, st ->
      QCheck2.Test.fail_reportf "verdicts differ: all-rows %a"
        Convex.Conic.pp_status st

let working_set_spec ~big ~variant ~stride =
  let d = { Protemp.Spec.default with Protemp.Spec.constraint_stride = stride } in
  match variant with
  | 0 -> d
  | 1 when not big -> { d with Protemp.Spec.variant = Protemp.Spec.Uniform }
  | 1 -> d (* big.LITTLE has no uniform variant *)
  | 2 -> Protemp.Spec.with_gradient ~weight:0.5 ~cap:20.0 d
  | _ -> Protemp.Spec.with_gradient ~weight:0.5 d

(* Working set: random cells of every variant, cold or warm from the
   cell one column down. *)
let prop_working_set =
  QCheck2.Test.make ~name:"working_set: same optimum as the all-rows solve"
    ~count:40
    ~print:(fun (big, variant, stride, tstart, frac, warm) ->
      Printf.sprintf "%s variant %d stride %d tstart %.3f ftarget %.4f fmax %s"
        (if big then "biglittle" else "niagara")
        variant stride tstart frac
        (if warm then "warm" else "cold"))
    QCheck2.Gen.(
      tup6 bool (int_range 0 3) (oneofl [ 1; 4 ]) (float_range 27.0 100.0)
        (float_range 0.05 1.0) bool)
    (fun (big, variant, stride, tstart, frac, warm) ->
      let machine = Lazy.force (if big then biglittle else machine) in
      let spec = working_set_spec ~big ~variant ~stride in
      let fmax = machine.Sim.Machine.fmax in
      let prepared = Protemp.Model.prepare ~machine ~spec ~tstart in
      let start =
        if not warm then None
        else
          match
            Protemp.Model.solve
              (Protemp.Model.instantiate prepared
                 ~ftarget:(Float.max 0.0 (frac -. 0.05) *. fmax))
          with
          | Protemp.Model.Feasible n -> Some n.Protemp.Model.raw.Convex.Solve.x
          | Protemp.Model.Infeasible -> None
      in
      let built = Protemp.Model.instantiate prepared ~ftarget:(frac *. fmax) in
      agrees_with_all_rows built (Protemp.Model.solve ?start built))

(* Closed form: random cells of the variants without a gradient term,
   where [Model.solve] first forms the floor-only optimum and serves it
   when no thermal row is violated.  The cell must agree with the
   all-rows oracle whichever way it was settled; hot cells and high
   targets violate rows and go to the conic method, and big.LITTLE's
   little cores saturate their box at high targets, so the draw covers
   the row check and the box duals. *)
let prop_closed_form =
  QCheck2.Test.make ~name:"closed_form: same optimum as the all-rows solve"
    ~count:60
    ~print:(fun (big, uniform, stride, tstart, frac) ->
      Printf.sprintf "%s %s stride %d tstart %.3f ftarget %.4f fmax"
        (if big then "biglittle" else "niagara")
        (if uniform && not big then "uniform" else "variable")
        stride tstart frac)
    QCheck2.Gen.(
      tup5 bool bool (oneofl [ 1; 4 ]) (float_range 27.0 100.0)
        (float_range 0.05 1.0))
    (fun (big, uniform, stride, tstart, frac) ->
      let machine = Lazy.force (if big then biglittle else machine) in
      let spec =
        working_set_spec ~big ~variant:(if uniform then 1 else 0) ~stride
      in
      let built =
        Protemp.Model.build ~machine ~spec ~tstart
          ~ftarget:(frac *. machine.Sim.Machine.fmax)
      in
      agrees_with_all_rows built (Protemp.Model.solve built))

(* Settled in closed form: the optimum is served with no interior-point
   iteration, counted as one optimal solve. *)
let closed_form_solution ~machine ~spec ~tstart ~ftarget =
  let stats = ref Convex.Conic.stats_zero in
  match
    Protemp.Model.solve ~conic_stats_into:stats
      (Protemp.Model.build ~machine ~spec ~tstart ~ftarget)
  with
  | Protemp.Model.Infeasible -> Alcotest.fail "expected feasible"
  | Protemp.Model.Feasible s ->
      check_bool "settled in closed form" true
        (s.Protemp.Model.settled_by = `Closed_form);
      check_int "no iteration" 0 s.Protemp.Model.raw.Convex.Solve.iterations;
      check_int "no conic iteration counted" 0 !stats.Convex.Conic.iterations;
      check_int "one optimal outcome" 1 !stats.Convex.Conic.optimal;
      s

(* big.LITTLE at 27 C and 700 MHz: the little cores (600 MHz ceiling,
   0.3 of the big cores' peak power) are the cheaper throughput, so the
   floor-only optimum runs them at their box and the big cores above
   700 MHz.  Their upper-box duals carry the difference between the
   floor's price and their marginal power, and must be >= 0 (positive
   here); every other box dual is zero.  The floor is met to rounding
   in normalized units (the reported frequencies clamp the little
   cores back to their ceiling). *)
(* A cell's closed form is its column's: on cool and hot starts of
   both platforms and both variants, every cell {!Protemp.Model.solve}
   settles in closed form at one [ftarget] has the same point and
   frequencies, bit for bit, whatever its start, and the row of
   {!Protemp.Model.rows} over those starts serves exactly those cells
   in closed form, with the same frequencies, each cell a vector of its
   own.  An [ftarget] outside [0, fmax] raises in
   {!Protemp.Model.columns} as [instantiate] does, the gradient variant
   settles no cell in closed form, and the check on a start's rows
   ({!Convex.Conic.holds}) allocates nothing. *)
let test_column_is_closed_form () =
  let bits a b =
    Vec.dim a = Vec.dim b
    && Array.for_all2
         (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
         a b
  in
  let uniform = { fast_spec with Protemp.Spec.variant = Protemp.Spec.Uniform } in
  let tstarts = [| 27.0; 70.0; 95.0 |] in
  let fractions = [| 0.1; 0.5; 0.8; 0.95; 1.0 |] in
  let settled = ref 0 and solved = ref 0 in
  List.iter
    (fun (name, machine, spec) ->
      let ftargets =
        Array.map (fun f -> f *. machine.Sim.Machine.fmax) fractions
      in
      let row =
        Protemp.Model.rows (Protemp.Model.columns ~machine ~spec ftargets) tstarts
      in
      (* The first closed-form solution of each column. *)
      let column = Array.make (Array.length ftargets) None in
      Array.iteri
        (fun i tstart ->
          let p = Protemp.Model.prepare ~machine ~spec ~tstart in
          let r = row i and closed = ref 0 in
          Array.iteri
            (fun j ftarget ->
              let label =
                Printf.sprintf "%s at %g C, %g fmax" name tstart fractions.(j)
              in
              match Protemp.Model.solve (Protemp.Model.instantiate p ~ftarget) with
              | Protemp.Model.Feasible s
                when s.Protemp.Model.settled_by = `Closed_form ->
                  incr settled;
                  incr closed;
                  let first = Option.value column.(j) ~default:s in
                  column.(j) <- Some first;
                  check_bool (label ^ ": the column's point") true
                    (bits first.Protemp.Model.raw.Convex.Solve.x
                       s.Protemp.Model.raw.Convex.Solve.x);
                  check_bool (label ^ ": the column's frequencies") true
                    (bits first.Protemp.Model.frequencies
                       s.Protemp.Model.frequencies);
                  check_bool (label ^ ": served by the row") true
                    (match r.Protemp.Model.cells.(j) with
                    | Protemp.Table.Frequencies f ->
                        bits f s.Protemp.Model.frequencies
                    | Protemp.Table.Infeasible -> false)
              | _ -> incr solved)
            ftargets;
          check_int (name ^ ": the row's closed-form cells") !closed
            r.Protemp.Model.closed_form;
          match ((row i).Protemp.Model.cells.(0), r.Protemp.Model.cells.(0)) with
          | Protemp.Table.Frequencies a, Protemp.Table.Frequencies b ->
              check_bool (name ^ ": a vector of its own") true (a != b)
          | _ -> ())
        tstarts)
    [
      ("Niagara", Lazy.force machine, fast_spec);
      ("Niagara uniform", Lazy.force machine, uniform);
      ("big.LITTLE", Lazy.force biglittle, fast_spec);
    ];
  check_bool "both outcomes met" true (!settled > 0 && !solved > 0);
  let m = Lazy.force machine in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  List.iter
    (fun ftarget ->
      check_bool (Printf.sprintf "ftarget %h raises" ftarget) true
        (raises (fun () ->
             Protemp.Model.columns ~machine:m ~spec:fast_spec [| ftarget |])))
    [ Float.nan; -1.0; 1.5 *. m.Sim.Machine.fmax ];
  check_bool "gradient variant: no closed form" false
    (closes
       (Protemp.Model.build ~machine:m
          ~spec:(Protemp.Spec.with_gradient fast_spec)
          ~tstart:27.0 ~ftarget:1e8));
  let x =
    (closed_form_solution ~machine:m ~spec:fast_spec ~tstart:27.0
       ~ftarget:5e8)
      .Protemp.Model.raw.Convex.Solve.x
  in
  let built =
    Protemp.Model.instantiate
      (Protemp.Model.prepare ~machine:m ~spec:fast_spec ~tstart:95.0)
      ~ftarget:5e8
  in
  let t = Lazy.force built.Protemp.Model.conic in
  let check () = Convex.Conic.holds t x in
  ignore (check ());
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (check ()))
  done;
  check_float 0.0 "the check allocates nothing" 0.0 (Gc.minor_words () -. w0)

let test_closed_form_saturated_little_cores () =
  let machine = Lazy.force biglittle in
  let ftarget = 7e8 in
  let s =
    closed_form_solution ~machine ~spec:fast_spec ~tstart:27.0 ~ftarget
  in
  let raw = s.Protemp.Model.raw in
  let x = raw.Convex.Solve.x and dual = raw.Convex.Solve.dual in
  let n = machine.Sim.Machine.n_cores in
  let core_fmax = machine.Sim.Machine.core_fmax in
  let fref = machine.Sim.Machine.fmax in
  let served = ref 0.0 and saturated = ref 0 in
  for j = 0 to n - 1 do
    let box = dual.(Protemp.Model.upper_f_box_index j) in
    check_bool
      (Printf.sprintf "core %d box dual %g >= 0" j box)
      true (box >= 0.0);
    if core_fmax.(j) < fref then begin
      incr saturated;
      check_float 0.0
        (Printf.sprintf "little core %d at its box" j)
        1.002 x.(j);
      check_bool
        (Printf.sprintf "little core %d box dual > 0" j)
        true (box > 0.0)
    end
    else check_float 0.0 (Printf.sprintf "big core %d box dual" j) 0.0 box;
    served := !served +. (core_fmax.(j) /. fref *. x.(j))
  done;
  check_int "four little cores saturate" 4 !saturated;
  let floor = float_of_int n *. (ftarget /. fref) in
  check_bool
    (Printf.sprintf "floor %.17g met by %.17g" floor !served)
    true
    (Float.abs (!served -. floor) <= 1e-12 *. floor);
  let k =
    Kkt.residuals
      (Model_reference.build ~filter:true ~machine ~spec:fast_spec
         ~tstart:27.0 ~ftarget ())
      x dual
  in
  check_bool
    (Format.asprintf "exact KKT certificate: %a" Kkt.pp k)
    true
    (Kkt.max_residual k <= 1e-12)

(* A cell on which [prop_working_set] failed about one run in twenty
   (Niagara, uniform, stride 1, 54 C, 0.8286 and 0.8287 fmax): its
   conic optimum carried a stationarity of 1.001e-3, above the
   property's 1e-3.  The floor-only optimum passes every thermal row
   there, so it is now settled in closed form with an exact dual. *)
let test_closed_form_pinned_working_set_cell () =
  let machine = Lazy.force machine in
  let spec = working_set_spec ~big:false ~variant:1 ~stride:1 in
  List.iter
    (fun frac ->
      let ftarget = frac *. machine.Sim.Machine.fmax in
      let raw =
        (closed_form_solution ~machine ~spec ~tstart:54.0 ~ftarget)
          .Protemp.Model.raw
      in
      let k =
        Kkt.residuals
          (Model_reference.build ~filter:true ~machine ~spec ~tstart:54.0
             ~ftarget ())
          raw.Convex.Solve.x raw.Convex.Solve.dual
      in
      check_bool
        (Format.asprintf "%.4f fmax: %a" frac Kkt.pp k)
        true
        (k.Kkt.stationarity <= 1e-3))
    [ 0.8286; 0.8287 ]

(* The gradient variant has no closed form: its grids must be the ones
   the conic working-set path builds, byte for byte.  The golden CSV
   was written by the CLI's [table --gradient 0.5 --stride 4] over
   these axes, last when the thermal constants of a uniform start
   became affine in it (DESIGN.md 6z): every entry moved by at most
   2.6e-5 relative, interior-point digits, and the infeasible cells
   stayed the same. *)
let test_gradient_grid_golden () =
  let machine = Lazy.force machine in
  let spec = Protemp.Spec.with_gradient ~weight:0.5 fast_spec in
  let dense =
    Protemp.Dense_table.create ~machine ~spec
      ~tstarts:[| 27.0; 45.0; 60.0; 75.0; 90.0; 100.0 |]
      ~ftargets:[| 150e6; 350e6; 550e6; 700e6; 800e6; 950e6 |]
      ()
  in
  let csv = Protemp.Table.to_csv (Protemp.Dense_table.to_table dense) in
  let golden =
    (* Beside this executable in the build tree (a test/dune dep). *)
    In_channel.with_open_bin
      (Filename.concat (Filename.dirname Sys.executable_name) "gradient_grid.golden")
      In_channel.input_all
  in
  check_bool "gradient grid byte-identical to the golden" true (csv = golden);
  check_int "no cell in closed form" 0
    (Protemp.Dense_table.closed_form_cells dense)

(* The stall path of [Model.solve]: a working set that ends without a
   certificate is re-solved once, cold, on every row.  Four Niagara
   gradient-cap cells (stride 4) on which the working-set solve stalls
   from a cold start: a former fallback to the log-barrier path
   answered [Infeasible] on each, because no start it tried satisfied
   the 20 C cap.  The all-rows solve finds their optimum. *)
let test_stall_path_serves_optimum () =
  let machine = Lazy.force machine in
  let spec = working_set_spec ~big:false ~variant:2 ~stride:4 in
  List.iter
    (fun (tstart, ftarget) ->
      let built = Protemp.Model.build ~machine ~spec ~tstart ~ftarget in
      let stats = ref Convex.Conic.stats_zero in
      let label = Printf.sprintf "%g C, %g MHz" tstart (ftarget /. 1e6) in
      match
        ( Protemp.Model.solve ~conic_stats_into:stats built,
          all_rows_solve built (Model_reference.problem ~filter:true built) )
      with
      | Protemp.Model.Feasible s, Convex.Conic.Optimal r ->
          let obj = s.Protemp.Model.raw.Convex.Solve.objective_value in
          let ref_obj = r.Convex.Conic.objective_value in
          check_bool
            (Printf.sprintf "%s: objective %.10g, all-rows %.10g" label obj
               ref_obj)
            true
            (Float.abs (obj -. ref_obj) <= 2e-6 *. Float.max 1.0 (Float.abs obj));
          check_int (label ^ ": one outcome, optimal") 1
            !stats.Convex.Conic.optimal;
          check_int (label ^ ": no unknown") 0 !stats.Convex.Conic.unknown
      | Protemp.Model.Infeasible, _ ->
          Alcotest.failf "%s: reported infeasible" label
      | _, st -> Alcotest.failf "%s: all-rows %a" label Convex.Conic.pp_status st)
    [ (67.26, 736.3e6); (67.28, 735.4e6); (67.32, 731.8e6); (67.42075, 736.98e6) ]

(* The seed's one job since the floor-only closed form: it picks the
   retry set of a stalled run.  A start given as a profile gets no
   frontier ladder, so its cells still reach that retry.  On
   table.niagara's axes (27-100 C x 100-1000 MHz, 100 x 100, stride 4,
   margin 0) the cell at row 54 and column 88, (66.82 C, 900 MHz),
   violates hundreds of thermal rows at its floor-only optimum, and
   the run started cold on all of them stalls.  Posed from the uniform
   profile at 66.82 C and seeded with column 87's optimum, the re-run
   from the rows that optimum binds ends in a primal-infeasibility
   certificate.  Without the seed the re-run starts from no optional
   row and stalls too, and the call falls through to the frontier of
   the cell's own start (its row's frontier is 899.92 MHz), which
   refutes the floor after more iterations; without the re-run both
   calls take that same path and cost the same.  test_parallel's
   seeded-vs-cold gate guards the rest. *)
let test_stall_path_seed_picks_retry_set () =
  let machine = Lazy.force machine in
  let spec = working_set_spec ~big:false ~variant:0 ~stride:4 in
  let axis lo hi n i =
    lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1))
  in
  let t0 = Vec.create machine.Sim.Machine.n_nodes (axis 27.0 100.0 100 54) in
  let cell col =
    Protemp.Model.build_with_profile ~machine ~spec ~t0
      ~ftarget:(axis 1e8 1e9 100 col)
  in
  let seed =
    match Protemp.Model.solve (cell 87) with
    | Protemp.Model.Feasible s -> s.Protemp.Model.raw.Convex.Solve.x
    | Protemp.Model.Infeasible -> Alcotest.fail "column 87 is feasible"
  in
  let solve label start =
    let stats = ref Convex.Conic.stats_zero in
    (match Protemp.Model.solve ~conic_stats_into:stats ?start (cell 88) with
    | Protemp.Model.Infeasible -> ()
    | Protemp.Model.Feasible _ -> Alcotest.failf "%s: served" label);
    check_int (label ^ ": no unknown") 0 !stats.Convex.Conic.unknown;
    check_int (label ^ ": one certificate") 1
      !stats.Convex.Conic.primal_infeasible;
    !stats.Convex.Conic.iterations
  in
  let seeded = solve "seeded" (Some seed) and cold = solve "no seed" None in
  check_bool
    (Printf.sprintf
       "the seeded retry settles it in %d iterations, fewer than the %d \
        of the path through the own frontier"
       seeded cold)
    true (seeded < cold)

(* A cell of the table.niagara grid (row 98 and column 74 of its
   100 x 100 axes, stride 4; 99.26 C, 772.73 MHz) on which both the
   working set and the re-run from the seed's rows end without a
   certificate, and which lies too close to its row's frontier for the
   ladder's tangents to refute (its floor is 9.4e-5 above the
   frontier; the ladder's are at 95.13 and 100 C).  The frontier of its
   own start refutes it: it is served as infeasible, counted as one
   primal-infeasibility outcome after the conic runs, and the frontier
   lies below its floor. *)
let test_stall_path_own_frontier () =
  let machine = Lazy.force machine in
  let spec = working_set_spec ~big:false ~variant:0 ~stride:4 in
  let axis lo hi n i =
    lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1))
  in
  let tstart = axis 27.0 100.0 100 98 and ftarget = axis 1e8 1e9 100 74 in
  let stats = ref Convex.Conic.stats_zero in
  (match
     Protemp.Model.solve ~conic_stats_into:stats
       (Protemp.Model.build ~machine ~spec ~tstart ~ftarget)
   with
  | Protemp.Model.Infeasible -> ()
  | Protemp.Model.Feasible _ -> Alcotest.fail "expected infeasible");
  check_int "no unknown" 0 !stats.Convex.Conic.unknown;
  check_int "one certificate" 1 !stats.Convex.Conic.primal_infeasible;
  check_int "and nothing else" 0
    (!stats.Convex.Conic.optimal + !stats.Convex.Conic.dual_infeasible);
  check_bool "after conic runs, not by the ladder" true
    (!stats.Convex.Conic.iterations > 0);
  match
    Protemp.Model.solve_frontier
      (Protemp.Model.build_frontier ~machine ~spec ~tstart)
  with
  | Protemp.Model.Feasible s ->
      let mean = Vec.mean s.Protemp.Model.frequencies in
      check_bool
        (Printf.sprintf "frontier %.6f MHz below the %.6f MHz floor" (mean /. 1e6)
           (ftarget /. 1e6))
        true (mean < ftarget)
  | Protemp.Model.Infeasible -> Alcotest.fail "the row's frontier is feasible"

(* Core-column recurrence: [Model.prepare] builds the thermal rows from
   the core columns of A^k alone; test/model_reference.ml still forms
   every A^k with [Mat.matmul]. *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_vec a b = Vec.dim a = Vec.dim b && Array.for_all2 same_bits a b

(* Two cold solves agree bit for bit: status, x, s, z and iterations. *)
let same_solve (a : Convex.Conic.status) (b : Convex.Conic.status) =
  match (a, b) with
  | Convex.Conic.Optimal a, Convex.Conic.Optimal b
  | Convex.Conic.Unknown a, Convex.Conic.Unknown b ->
      same_vec a.Convex.Conic.x b.Convex.Conic.x
      && same_vec a.Convex.Conic.s b.Convex.Conic.s
      && same_vec a.Convex.Conic.z b.Convex.Conic.z
      && a.Convex.Conic.iterations = b.Convex.Conic.iterations
  | Convex.Conic.Primal_infeasible a, Convex.Conic.Primal_infeasible b ->
      same_vec a.z b.z
  | Convex.Conic.Dual_infeasible a, Convex.Conic.Dual_infeasible b ->
      same_vec a.x b.x
  | _ -> false

(* The conic instance [Model] writes for [built] against the
   reference's statement of it, packed by the test-side [of_problem]:
   the rows of [built.conic] that take part, in order and with the
   power laws after them, are the reference's rows with the same
   constants.  So the shapes agree, and a cold solve of the model's
   instance on those rows alone is the reference's cold solve bit for
   bit. *)
let same_instance (built : Protemp.Model.built) problem =
  let t = Lazy.force built.Protemp.Model.conic in
  let reference = Conic_reference.of_problem problem in
  Convex.Conic.dim t = Convex.Conic.dim reference
  && Convex.Conic.n_part t + (3 * built.Protemp.Model.layout.Protemp.Model.n_f)
     = Convex.Conic.n_rows reference
  && same_solve (Convex.Conic.solve t) (Convex.Conic.solve reference)

(* The three instance kinds [Model] writes from one machine and spec:
   a cell, the frontier and a cell from a non-uniform start profile. *)
let instances ~machine ~spec ~tstart ~ftarget =
  let t0 =
    Vec.init machine.Sim.Machine.n_nodes (fun i ->
        tstart -. float_of_int (i mod 5))
  in
  ( Protemp.Model.build ~machine ~spec ~tstart ~ftarget,
    Protemp.Model.build_frontier ~machine ~spec ~tstart,
    Protemp.Model.build_with_profile ~machine ~spec ~t0 ~ftarget )

(* A uniform start's instance against the matmul oracle.  The model
   writes its thermal and gradient constants from the affine base
   [tstart a_k + c_k] (DESIGN.md 6z), so the instance must be
   - bit for bit the oracle's from that base: [G], its stripes, the
     cone layout, [c] and every constant give identical cold solves;
   - the oracle's from the stepped base, up to the bound on the two
     bases ([Model_reference.base_bounds]): the same kept rows, except
     a row whose stepped base lies within the bound of its threshold,
     and every thermal and gradient constant, of every row, kept or
     not, within that bound carried through [(base - tmax)/tmax] or
     [base/tmax].
   [state] is [Model_reference.problem] or [frontier].  Returns the
   number of rows whose stepped base lies within the bound of their
   threshold, or the first check that fails. *)
let uniform_instance_check (built : Protemp.Model.built) state =
  let affine = ref [] and stepped = ref [] in
  let instance = state ~report:affine ~filter:true ~base:`Affine built in
  ignore (state ~report:stepped ~filter:true ~base:`Stepped built);
  let bounds = Model_reference.base_bounds built in
  let near (r : Model_reference.thermal_row) =
    Float.abs (r.base -. r.threshold) <= bounds.(r.k)
  in
  let n_near = List.length (List.filter near !stepped) in
  let tmax = built.Protemp.Model.spec.Protemp.Spec.tmax in
  let largest traj =
    let m = ref 0.0 in
    for k = 0 to Mat.rows traj - 1 do
      for i = 0 to Mat.cols traj - 1 do
        m := Float.max !m (Float.abs (Mat.get traj k i))
      done
    done;
    !m
  in
  let magnitude =
    Float.max
      (largest (Model_reference.base_trajectory ~base:`Affine built))
      (largest (Model_reference.base_trajectory ~base:`Stepped built))
  in
  let constant_bound =
    (Array.fold_left Float.max 0.0 bounds
    +. (Model_reference.gamma 2 *. 2.0 *. (magnitude +. tmax)))
    /. tmax
  in
  let constants base =
    Array.map Quad.constant_part
      (state ~report:(ref []) ~filter:false ~base built).Quad.constraints
  in
  let ca = constants `Affine and cs = constants `Stepped in
  if not (same_instance built instance) then
    Error "differs from the oracle's instance from the affine base"
  else if
    not
      (List.for_all2
         (fun (a : Model_reference.thermal_row) s ->
           a.kept = s.Model_reference.kept || near s)
         !affine !stepped)
  then Error "a row away from its threshold is kept from one base only"
  else
    match
      List.find_opt
        (fun i -> not (Float.abs (ca.(i) -. cs.(i)) <= constant_bound))
        (List.init (Array.length ca) Fun.id)
    with
    | Some i ->
        Error
          (Printf.sprintf "constant %d: %.17g vs %.17g, bound %.3g" i ca.(i)
             cs.(i) constant_bound)
    | None -> Ok n_near

let problem_state ~report ~filter ~base built =
  Model_reference.problem ~report ~filter ~base built

let frontier_state ~report ~filter ~base built =
  Model_reference.frontier ~report ~filter ~base built

(* [Model.prepare]'s instance at [tstart] against the matmul oracle's
   rows (uniform_instance_check), with no row near its threshold. *)
let check_prepare_matches_oracle name ~machine ~spec ~tstart =
  let built =
    Protemp.Model.instantiate
      (Protemp.Model.prepare ~machine ~spec ~tstart)
      ~ftarget:5e8
  in
  match uniform_instance_check built problem_state with
  | Ok near ->
      check_int
        (Printf.sprintf "%s at %.0f C: rows within the bound of their threshold"
           name tstart)
        0 near
  | Error msg -> Alcotest.failf "%s at %.0f C: %s" name tstart msg

(* Every variant on both platforms at [tmax] and at a 5 C guard band,
   cells at random start temperatures and targets and their frontiers
   against the oracle (uniform_instance_check), and cells built from a
   start profile, whose base is stepped, bit for bit. *)
let prop_conic_rows_bit_identical =
  QCheck2.Test.make
    ~name:"model: conic rows bit-identical to the packed reference"
    ~count:30
    ~print:(fun (big, variant, stride, margin, tstart, frac) ->
      Printf.sprintf
        "%s variant %d stride %d margin %.0f tstart %.3f ftarget %.4f fmax"
        (if big then "biglittle" else "niagara")
        variant stride margin tstart frac)
    QCheck2.Gen.(
      tup6 bool (int_range 0 3) (oneofl [ 1; 4 ]) (oneofl [ 0.0; 5.0 ])
        (float_range 27.0 100.0) (float_range 0.0 1.0))
    (fun (big, variant, stride, margin, tstart, frac) ->
      let machine = Lazy.force (if big then biglittle else machine) in
      let spec =
        Protemp.Spec.guard_band ~margin (working_set_spec ~big ~variant ~stride)
      in
      let ftarget = frac *. machine.Sim.Machine.fmax in
      let check label built state =
        match uniform_instance_check built state with
        | Ok _ -> true
        | Error msg -> QCheck2.Test.fail_reportf "%s: %s" label msg
      in
      let cell, frontier, profile = instances ~machine ~spec ~tstart ~ftarget in
      check "cell" cell problem_state
      && check "frontier" frontier frontier_state
      && (same_instance profile
            (Model_reference.problem ~filter:true ~base:`Stepped profile)
         || QCheck2.Test.fail_reportf "profile: differs from the reference"))

let with_stride n spec = { spec with Protemp.Spec.constraint_stride = n }
let gradient_spec = Protemp.Spec.with_gradient ~weight:0.5 ~cap:20.0

let uniform_spec spec =
  { spec with Protemp.Spec.variant = Protemp.Spec.Uniform }

let test_prepare_bit_identical () =
  let niagara = Lazy.force machine and big = Lazy.force biglittle in
  let d = Protemp.Spec.default in
  List.iter
    (fun (name, machine, spec) ->
      List.iter
        (fun tstart -> check_prepare_matches_oracle name ~machine ~spec ~tstart)
        [ 27.0; 60.0; 85.0; 100.0 ])
    [
      ("niagara variable stride 1", niagara, d);
      ("niagara variable stride 4", niagara, with_stride 4 d);
      ("niagara uniform stride 1", niagara, uniform_spec d);
      ("niagara uniform stride 4", niagara, with_stride 4 (uniform_spec d));
      ("niagara gradient stride 4", niagara, with_stride 4 (gradient_spec d));
      ("biglittle variable stride 1", big, d);
      ("biglittle variable stride 4", big, with_stride 4 d);
      ("biglittle gradient stride 1", big, gradient_spec d);
    ]

(* The window response of a (machine, steps, stride): the stride points
   of its window, and sums that are a function of the machine's data
   alone — bit for bit the same on every request and on a second
   machine of the same model, and other sums on another model.  The
   response itself is not cached; the row sets built from it are
   (see "fresh machine rows published once"). *)
let test_window_response_shape () =
  let niagara = Sim.Machine.niagara () and big = Sim.Machine.biglittle () in
  let dt = niagara.Sim.Machine.thermal.Thermal.Rc_model.dt in
  let steps_of period = int_of_float (Float.round (period /. dt)) in
  let steps = steps_of Protemp.Spec.default.Protemp.Spec.dfs_period in
  let response m ~steps ~stride =
    Sim.Machine.window_response m ~steps ~stride
  in
  let same (a : Sim.Machine.window_response) (b : Sim.Machine.window_response)
      =
    a.Sim.Machine.ks = b.Sim.Machine.ks
    && Array.length a.Sim.Machine.sums = Array.length b.Sim.Machine.sums
    && Array.for_all2 same_bits a.Sim.Machine.sums b.Sim.Machine.sums
  in
  let r = response niagara ~steps ~stride:4 in
  check_bool "a second request: the same bits" true
    (same r (response niagara ~steps ~stride:4));
  check_int "stride 1 keeps every step" steps
    (Array.length (response niagara ~steps ~stride:1).Sim.Machine.ks);
  check_int "stride 4 keeps every 4th step and the last" 63
    (Array.length r.Sim.Machine.ks);
  let other_window = response niagara ~steps:(steps_of 0.05) ~stride:4 in
  check_int "a half window ends at its own last step" (steps_of 0.05)
    other_window.Sim.Machine.ks.(Array.length other_window.Sim.Machine.ks - 1);
  check_bool "another machine: other sums" false
    (same r (response big ~steps ~stride:4));
  check_bool "a fresh machine of the model: the same bits" true
    (same r (response (Sim.Machine.niagara ()) ~steps ~stride:4));
  check_int "nothing is cached" 0 (Sim.Machine.cached_slots niagara)

(* With the machines' rows warm, prepares that alternate between two
   machines must each read their own machine's rows for their own
   spec: every cell and frontier instance matches the oracle
   (uniform_instance_check, no row near its threshold) and every
   profile instance stays bit-identical to it, for every variant (the
   gradient one with and without its cap) at stride 1 and 4, at [tmax]
   and at a 5 C guard band. *)
let test_prepare_alternating_machines () =
  let niagara = Lazy.force machine and big = Lazy.force biglittle in
  let d = Protemp.Spec.default in
  let uncapped = Protemp.Spec.with_gradient ~weight:0.5 d in
  let check name ~machine ~spec =
    let cell, frontier, profile =
      instances ~machine ~spec ~tstart:60.0 ~ftarget:5e8
    in
    List.iter
      (fun (kind, built, state) ->
        match uniform_instance_check built state with
        | Ok near ->
            check_int
              (Printf.sprintf "%s %s: rows within the bound of their threshold"
                 name kind)
              0 near
        | Error msg -> Alcotest.failf "%s %s: %s" name kind msg)
      [ ("cell", cell, problem_state); ("frontier", frontier, frontier_state) ];
    if
      not
        (same_instance profile
           (Model_reference.problem ~filter:true ~base:`Stepped profile))
    then
      Alcotest.failf "%s profile: the instance differs from the matmul oracle"
        name
  in
  List.iter
    (fun (stride, margin) ->
      List.iter
        (fun pair ->
          for round = 1 to 2 do
            List.iter
              (fun (name, machine, spec) ->
                check
                  (Printf.sprintf "%s stride %d margin %.0f, round %d" name
                     stride margin round)
                  ~machine
                  ~spec:
                    (Protemp.Spec.guard_band ~margin (with_stride stride spec)))
              pair
          done)
        [
          [
            ("niagara variable", niagara, d); ("biglittle variable", big, d);
          ];
          [
            ("niagara gradient", niagara, gradient_spec d);
            ("biglittle gradient", big, gradient_spec d);
          ];
          [
            ("niagara uncapped gradient", niagara, uncapped);
            ("biglittle uncapped gradient", big, uncapped);
          ];
          (* The uniform variant needs a single-class platform, so
             big.LITTLE's variable rows alternate with it. *)
          [
            ("niagara uniform", niagara, uniform_spec d);
            ("biglittle variable", big, d);
          ];
        ])
    [ (1, 0.0); (4, 0.0); (1, 5.0); (4, 5.0) ]

(* A fresh machine's first prepares, made at once from two domains,
   race to build its rows: the loser's copy is dropped, so the machine
   ends with one row set, as a one-domain run does, and the instances
   are bit for bit the one-domain ones. *)
let test_rows_published_once () =
  let spec = gradient_spec (with_stride 4 Protemp.Spec.default) in
  let tstarts = [| 45.0; 60.0; 75.0; 90.0 |] in
  let run domains =
    let machine = Sim.Machine.niagara () in
    let ready = Atomic.make 0 in
    let work k () =
      Atomic.incr ready;
      while Atomic.get ready < domains do
        Domain.cpu_relax ()
      done;
      List.init (Array.length tstarts / domains) (fun i ->
          let tstart = tstarts.((k * (Array.length tstarts / domains)) + i) in
          Protemp.Model.build ~machine ~spec ~tstart ~ftarget:5e8)
    in
    let builts =
      if domains = 1 then work 0 ()
      else
        List.concat_map Domain.join
          (List.init domains (fun k -> Domain.spawn (work k)))
    in
    check_int
      (Printf.sprintf "%d domain(s): one row set" domains)
      1
      (Sim.Machine.cached_slots machine);
    builts
  in
  let one = run 1 and two = run 2 in
  List.iter2
    (fun (a : Protemp.Model.built) (b : Protemp.Model.built) ->
      let ta = Lazy.force a.Protemp.Model.conic
      and tb = Lazy.force b.Protemp.Model.conic in
      check_bool "2 domains: the 1-domain instance" true
        (Convex.Conic.n_rows ta = Convex.Conic.n_rows tb
        && same_solve (Convex.Conic.solve ta) (Convex.Conic.solve tb)))
    one two

(* A fresh machine's rows are built on the calling domain, with the
   fill's columns; two domains filling its rows then race for what the
   machine caches on first use past them, its ladder tangents.  The
   loser's copy is dropped, and the grid is byte for byte the
   one-domain grid. *)
let test_fill_fresh_machine_domains () =
  let csv domains =
    let machine = Sim.Machine.niagara () in
    let dt =
      Protemp.Dense_table.create ~machine ~spec:fast_spec
        ~tstarts:[| 40.0; 60.0; 85.0; 95.0 |]
        ~ftargets:[| 3e8; 6e8; 9e8 |] ()
    in
    ignore (Protemp.Dense_table.fill ~domains dt);
    Protemp.Table.to_csv (Protemp.Dense_table.to_table dt)
  in
  Alcotest.(check string) "fresh machine: 2 domains = 1 domain" (csv 1)
    (csv 2)

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

(* One constrained step (the window's end) and a tmax no row can
   reach, so every window emits the same rows — none.  With the
   machine's rows warm (the first of the five runs builds them), what
   is left of a profile's prepare is the base trajectory's step loop,
   which stores nothing per step, and of a uniform start's prepare the
   affine base at the one stride point, which takes no step at all.
   Storing the trajectory costs n_nodes + 1 words a step, forming A^k
   with [Mat.matmul] ~1400 and one boxed float a step would add ~2900
   words by 1000 steps. *)
let check_prepare_flat name prepare =
  let machine = Lazy.force machine in
  let dt = machine.Sim.Machine.thermal.Thermal.Rc_model.dt in
  let prepared steps =
    let spec =
      {
        Protemp.Spec.default with
        Protemp.Spec.tmax = 1e9;
        dfs_period = float_of_int steps *. dt;
        constraint_stride = 1_000_000;
      }
    in
    allocated_words (fun () -> prepare ~machine ~spec)
  in
  let short = prepared 50 in
  List.iter
    (fun steps ->
      check_float 64.0
        (Printf.sprintf "%s, %d vs 50 steps" name steps)
        short (prepared steps))
    [ 250; 1000 ]

let test_prepare_allocation_flat () =
  let t0 = Vec.create (Lazy.force machine).Sim.Machine.n_nodes 60.0 in
  check_prepare_flat "prepare words" (fun ~machine ~spec ->
      Protemp.Model.prepare_with_profile ~machine ~spec ~t0);
  (* The response itself, on a fresh machine every time: the
     recurrence allocates its buffers once, plus one snapshot. *)
  let response steps =
    allocated_words (fun () ->
        Sim.Machine.window_response (Sim.Machine.niagara ()) ~steps
          ~stride:1_000_000)
  in
  let short = response 50 in
  List.iter
    (fun steps ->
      check_float 64.0
        (Printf.sprintf "response words, %d vs 50 steps" steps)
        short (response steps))
    [ 250; 1000 ]

let test_uniform_prepare_allocation_flat () =
  check_prepare_flat "uniform prepare words" (fun ~machine ~spec ->
      Protemp.Model.prepare ~machine ~spec ~tstart:60.0)

(* A start writes its constants and names the rows that take part; it
   copies none.  On Niagara at stride 4 a prepare at 27 C keeps 144 of
   the 1071 thermal rows and one at 100 C keeps 504, and both allocate
   the same words (with the machine's rows warm: the first of the five
   runs builds them). *)
let test_start_copies_no_row () =
  let machine = Lazy.force machine in
  let start tstart = Protemp.Model.prepare ~machine ~spec:fast_spec ~tstart in
  let kept tstart =
    let built = Protemp.Model.instantiate (start tstart) ~ftarget:5e8 in
    let layout = built.Protemp.Model.layout in
    Convex.Conic.n_part (Lazy.force built.Protemp.Model.conic)
    - (Protemp.Model.first_thermal_index layout - layout.Protemp.Model.n_f)
  in
  check_int "rows kept at 27 C" 144 (kept 27.0);
  check_int "rows kept at 100 C" 504 (kept 100.0);
  let words tstart = allocated_words (fun () -> start tstart) in
  check_float 0.0 "the same words at 27 C and 100 C" (words 27.0)
    (words 100.0)

(* The affine base of a uniform start against the base stepped from
   it, on both platforms at strides 1 and 4 and margins 0 and 5: at
   every stride point and node they lie within the bound derived in
   [Model_reference.base_bounds], and every [a_k] is positive. *)
let prop_affine_base_within_bound =
  QCheck2.Test.make ~name:"model: affine base within bound" ~count:40
    ~print:(fun (big, stride, margin, tstart) ->
      Printf.sprintf "%s stride %d margin %.0f tstart %.17g"
        (if big then "biglittle" else "niagara")
        stride margin tstart)
    QCheck2.Gen.(
      quad bool (oneofl [ 1; 4 ]) (oneofl [ 0.0; 5.0 ]) (float_range 27.0 100.0))
    (fun (big, stride, margin, tstart) ->
      let machine = Lazy.force (if big then biglittle else machine) in
      let spec =
        Protemp.Spec.guard_band ~margin (with_stride stride Protemp.Spec.default)
      in
      let built = Protemp.Model.build ~machine ~spec ~tstart ~ftarget:5e8 in
      let affine = Model_reference.base_trajectory ~base:`Affine built
      and stepped = Model_reference.base_trajectory ~base:`Stepped built
      and a, _ = Model_reference.affine_parts built
      and bounds = Model_reference.base_bounds built in
      List.for_all
        (fun k ->
          List.for_all
            (fun node ->
              let d = Mat.get affine k node -. Mat.get stepped k node in
              (Float.abs d <= bounds.(k)
              || QCheck2.Test.fail_reportf
                   "step %d node %d: |affine - stepped| = %.3g > %.3g" k node
                   (Float.abs d) bounds.(k))
              && (Mat.get a k node > 0.0
                 || QCheck2.Test.fail_reportf "a_%d at node %d is %.17g" k
                      node (Mat.get a k node)))
            (List.init machine.Sim.Machine.n_nodes Fun.id))
        (Model_reference.stride_steps ~steps:built.Protemp.Model.steps ~stride))

(* Every thermal coefficient of both machines' rows, at strides 1 and
   4, is >= 0, which makes closed form monotone along a table row
   ({!Protemp.Model.searchable}, which checks the model's own rows).
   The coefficients are read from the matmul oracle, whose rows are the
   model's bit for bit. *)
let test_thermal_coefficients_nonnegative () =
  List.iter
    (fun (name, machine) ->
      List.iter
        (fun stride ->
          let spec = with_stride stride Protemp.Spec.default in
          let label = Printf.sprintf "%s stride %d" name stride in
          let built =
            Protemp.Model.build ~machine ~spec ~tstart:60.0 ~ftarget:1e8
          in
          let constraints =
            (Model_reference.problem ~filter:false built).Quad.constraints
          in
          let first =
            Protemp.Model.first_thermal_index built.Protemp.Model.layout
          in
          let least = ref infinity and least_nonzero = ref infinity in
          for i = first to Array.length constraints - 1 do
            Array.iter
              (fun q ->
                least := Float.min !least q;
                if q <> 0.0 then least_nonzero := Float.min !least_nonzero q)
              (Quad.linear_part constraints.(i))
          done;
          check_bool
            (Printf.sprintf "%s: least coefficient %.3g (nonzero %.3g) >= 0"
               label !least !least_nonzero)
            true (!least >= 0.0);
          check_bool (label ^ ": searchable") true
            (Protemp.Model.searchable
               (Protemp.Model.columns ~machine ~spec
                  [| 1e8; 3e8; 5e8; 7e8 |])))
        [ 1; 4 ])
    [ ("niagara", Lazy.force machine); ("biglittle", Lazy.force biglittle) ]

(* The closed rows of {!Protemp.Model.rows} over the [cols] columns
   [cs] of [machine] and [spec]: the leading rows whose every cell it
   settles in closed form with no start, which shows as fewer words
   than one {!Protemp.Model.prepare}.  A row that is prepared may
   settle every cell in closed form too, but not in so few words. *)
let closed_rows ~machine ~spec ~cols cs tstarts =
  let prepare =
    allocated_words (fun () ->
        Protemp.Model.prepare ~machine ~spec ~tstart:tstarts.(0))
  in
  let row = Protemp.Model.rows cs tstarts and r = ref 0 in
  let closed i =
    (row i).Protemp.Model.closed_form = cols
    && allocated_words (fun () -> row i) < prepare
  in
  while !r < Array.length tstarts && closed !r do
    incr r
  done;
  !r

(* The rows whose last column holds on their own start ([closes],
   {!Protemp.Model.solve}'s check) are a prefix of ascending starts,
   and {!Protemp.Model.rows} closes exactly that prefix.  Two kinds of
   draw:
   - on both platforms, the variable variant and Niagara's uniform one,
     strides 1 and 4 and margins 0 and 5, random ascending starts (ties
     included) and a random pair of ascending columns; [prefix_shapes]
     counts those drawn with no, some and every start closed;
   - the benchmark's row blocks at stride 4: every 10th start of the
     150-start big.LITTLE axis under its 8 ftargets, or of the margin-5
     74-start Niagara axis under its 9, from a random offset (the
     first two big.LITTLE offsets, whose blocks close every row, drawn
     more often); [block_shapes] counts those drawn with no, some and
     every start closed.
   The case fails unless every shape of the first kind, and blocks
   with some and with every start closed, were drawn. *)
let prefix_shapes = Array.make 3 0
let block_shapes = Array.make 3 0

(* The benchmark's axes: [n] evenly spaced values from [lo] to [hi]. *)
let axis lo hi n =
  Array.init n (fun i ->
      lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

type closed_columns = Fraction of float | Ftargets of float array

let prop_closed_rows =
  QCheck2.Test.make ~name:"model: closed rows are a prefix of the starts"
    ~count:80
    ~print:(fun (platform, stride, margin, tstarts, columns) ->
      Printf.sprintf "%s stride %d margin %.0f %s tstarts %s" platform stride
        margin
        (match columns with
        | Fraction f -> Printf.sprintf "ftarget %h fmax" f
        | Ftargets a ->
            "ftargets "
            ^ String.concat " "
                (Array.to_list (Array.map (Printf.sprintf "%h") a)))
        (String.concat " " (List.map (Printf.sprintf "%h") tstarts)))
    QCheck2.Gen.(
      let random =
        let* platform = oneofl [ "niagara"; "niagara uniform"; "biglittle" ] in
        let* stride = oneofl [ 1; 4 ] in
        let* margin = oneofl [ 0.0; 5.0 ] in
        let* tstarts = list_size (int_range 1 12) (float_range 27.0 100.0) in
        let+ fraction = float_range 0.05 1.0 in
        ( platform,
          stride,
          margin,
          List.sort Float.compare tstarts,
          Fraction fraction )
      in
      let block =
        let* big = bool in
        let+ offset =
          if big then frequency [ (1, int_range 0 1); (3, int_range 0 9) ]
          else int_range 0 9
        in
        let rows = if big then 150 else 74 in
        let starts = axis 27.0 100.0 rows in
        ( (if big then "biglittle" else "niagara"),
          4,
          (if big then 0.0 else 5.0),
          List.filter_map
            (fun i -> if i mod 10 = offset then Some starts.(i) else None)
            (List.init rows Fun.id),
          Ftargets
            (if big then axis 1e8 7e8 8
             else axis 1e8 9e8 9) )
      in
      frequency [ (1, random); (1, block) ])
    (fun (platform, stride, margin, tstarts, columns) ->
      let machine =
        Lazy.force (if platform = "biglittle" then biglittle else machine)
      in
      let spec =
        let s = with_stride stride Protemp.Spec.default in
        Protemp.Spec.guard_band ~margin
          (if platform = "niagara uniform" then uniform_spec s else s)
      in
      let ftargets =
        match columns with
        | Fraction f ->
            let ftarget = f *. machine.Sim.Machine.fmax in
            [| 0.5 *. ftarget; ftarget |]
        | Ftargets a -> a
      in
      let cols = Array.length ftargets in
      let cs = Protemp.Model.columns ~machine ~spec ftargets in
      let tstarts = Array.of_list tstarts in
      let holds =
        Array.map
          (fun tstart ->
            closes
              (Protemp.Model.build ~machine ~spec ~tstart
                 ~ftarget:ftargets.(cols - 1)))
          tstarts
      in
      let prefix = ref 0 in
      while !prefix < Array.length holds && holds.(!prefix) do
        incr prefix
      done;
      let rest = Array.sub holds !prefix (Array.length holds - !prefix) in
      let closed = closed_rows ~machine ~spec ~cols cs tstarts in
      let shapes =
        match columns with
        | Fraction _ -> prefix_shapes
        | Ftargets _ -> block_shapes
      in
      let shape =
        if !prefix = 0 then 0 else if !prefix < Array.length holds then 1 else 2
      in
      shapes.(shape) <- shapes.(shape) + 1;
      (Protemp.Model.searchable cs
      || QCheck2.Test.fail_report "columns not searchable")
      && (not (Array.exists Fun.id rest)
         || QCheck2.Test.fail_reportf "a start holds after row %d" !prefix)
      && (closed = !prefix
         || QCheck2.Test.fail_reportf "closed rows %d, prefix %d" closed !prefix
         ))

(* Every cell {!Protemp.Model.solve} settles by its active-set step is
   a KKT point of the full problem as [Model_reference] states it (the
   rows that take part, with the model's affine constants), checked on
   the problem data, not on the solver's own residuals.  Rows are drawn
   from the benchmark's Niagara 100x100, big.LITTLE 150x8 and Niagara
   margin-5 74x9 grids and a Niagara uniform 60x60 grid (stride 4; the
   uniform variant has no active-set step), and each is replayed as a
   fill replays it: every cell up to its first infeasible one, seeded
   with the previous cell's point.  The bounds:
   - every thermal row holds exactly ([<= 0]): the step aims its
     binding rows 1e-12 tmax inside, far above rounding;
   - every other row (boxes, power laws, floor) within 1e-12: the
     floor is met to Newton's 1e-13 max(1, F) and the power laws to
     the rounding of [fhat^2];
   - every dual [>= 0] exactly ([z] in the dual cone of the orthant
     rows, and each power law's [W_j >= 0]);
   - stationarity [G'z + c] within 1e-12: the dual is formed from the
     point's own multipliers, so only rounding is left;
   - complementary slackness within 1e-10: a binding row's slack is at
     most 1.1e-12 (aim plus Newton's tolerance) and its multiplier
     below 100 on these grids.
   [active_set_drawn] counts the cells checked; the test fails unless
   some were drawn, among them a big.LITTLE cell at or above 96.5 C
   (where the step's sets change most) and a cell accepted after a
   variable reached or left its box during the step.  Half the draws
   take one of a grid's hottest sixteenth of rows, where the step's
   cells are.  A cell's box pattern (its variables at [f_box]) that
   differs from both the one the step can start from — its start's,
   from which the step recovers its multipliers, and its column's
   closed form's (the cell at 27 C, where every column closes) — shows
   such a move. *)
let active_set_drawn = ref 0
let active_set_hot_biglittle = ref 0
let active_set_box_moved = ref 0

let active_set_grids =
  let axis lo hi n =
    Array.init n (fun i ->
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))
  in
  [|
    ("niagara 100x100", machine, fast_spec, axis 27.0 100.0 100, axis 1e8 1e9 100);
    ( "biglittle 150x8",
      biglittle,
      fast_spec,
      axis 27.0 100.0 150,
      axis 1e8 7e8 8 );
    ( "niagara margin 5 74x9",
      machine,
      Protemp.Spec.guard_band ~margin:5.0 fast_spec,
      axis 27.0 100.0 74,
      axis 1e8 9e8 9 );
    ( "niagara uniform 60x60",
      machine,
      uniform_spec fast_spec,
      axis 27.0 100.0 60,
      axis 1e8 1e9 60 );
  |]

let active_set_kkt (built : Protemp.Model.built) (raw : Convex.Solve.solution) =
  let problem = Model_reference.problem ~filter:true ~base:`Affine built in
  let first_thermal =
    Protemp.Model.first_thermal_index built.Protemp.Model.layout
  in
  let worst ~thermal =
    let w = ref neg_infinity in
    Array.iteri
      (fun i c ->
        if (i >= first_thermal) = thermal then
          w := Float.max !w (Quad.eval c raw.Convex.Solve.x))
      problem.Quad.constraints;
    !w
  in
  let k = Kkt.residuals problem raw.Convex.Solve.x raw.Convex.Solve.dual in
  if not (worst ~thermal:true <= 0.0) then
    QCheck2.Test.fail_reportf "a thermal row is at %.3g" (worst ~thermal:true)
  else if not (worst ~thermal:false <= 1e-12) then
    QCheck2.Test.fail_reportf "a box, power-law or floor row is at %.3g"
      (worst ~thermal:false)
  else if
    not
      (k.Kkt.dual_infeasibility <= 0.0
      && k.Kkt.stationarity <= 1e-12
      && k.Kkt.complementarity <= 1e-10)
  then QCheck2.Test.fail_reportf "KKT residuals: %a" Kkt.pp k
  else true

let prop_active_set_kkt =
  QCheck2.Test.make ~name:"active_set: every settled cell is a KKT point"
    ~count:100
    ~print:(fun (g, row) ->
      let name, _, _, tstarts, _ = active_set_grids.(g) in
      Printf.sprintf "%s row %d (%g C)" name row tstarts.(row))
    QCheck2.Gen.(
      let* g = int_bound (Array.length active_set_grids - 1) in
      let _, _, _, tstarts, _ = active_set_grids.(g) in
      let n = Array.length tstarts in
      let* hot = bool in
      let+ row =
        if hot then int_range (n - 1 - (n / 16)) (n - 1) else int_bound (n - 1)
      in
      (g, row))
    (fun (g, row) ->
      let name, machine, spec, tstarts, ftargets = active_set_grids.(g) in
      let machine = Lazy.force machine in
      let p = Protemp.Model.prepare ~machine ~spec ~tstart:tstarts.(row) in
      let cool = Protemp.Model.prepare ~machine ~spec ~tstart:27.0 in
      let at_box (built : Protemp.Model.built) x =
        let l = built.Protemp.Model.layout in
        List.init l.Protemp.Model.n_f (fun j ->
            not (x.(l.Protemp.Model.f_offset + j) < Protemp.Model.f_box))
      in
      let rec go j start =
        j = Array.length ftargets
        ||
        let built = Protemp.Model.instantiate p ~ftarget:ftargets.(j) in
        match Protemp.Model.solve ?start built with
        | Protemp.Model.Infeasible -> true
        | Protemp.Model.Feasible s ->
            let raw = s.Protemp.Model.raw in
            (match s.Protemp.Model.settled_by with
            | `Active_set ->
                incr active_set_drawn;
                if name = "biglittle 150x8" && tstarts.(row) >= 96.5 then
                  incr active_set_hot_biglittle;
                let column =
                  match
                    Protemp.Model.solve
                      (Protemp.Model.instantiate cool ~ftarget:ftargets.(j))
                  with
                  | Protemp.Model.Feasible c
                    when c.Protemp.Model.settled_by = `Closed_form ->
                      Some (at_box built c.Protemp.Model.raw.Convex.Solve.x)
                  | Protemp.Model.Feasible _ | Protemp.Model.Infeasible -> None
                in
                let moved = at_box built raw.Convex.Solve.x in
                if
                  column <> None && column <> Some moved
                  && Option.map (at_box built) start <> Some moved
                then incr active_set_box_moved
            | `Closed_form | `Interior_point -> ());
            (s.Protemp.Model.settled_by <> `Active_set || active_set_kkt built raw)
            && go (j + 1) (Some raw.Convex.Solve.x)
      in
      go 0 None)

(* Columns that are not monotone along a row are not searchable, and
   a row of {!Protemp.Model.rows} then checks every cell itself: it
   settles in closed form exactly the cells {!Protemp.Model.solve}
   does up to its first infeasible one, also where a column holds after
   one that does not (where bisection would be wrong).  Descending and
   unsorted ftargets on Niagara (9.4e8 fails its closed form but is
   feasible at 27 C, so a cell after it closes within the row), and a
   big.LITTLE ftarget above what its boxes allow (no column) before
   ones they do.  Ascending columns
   are searchable, and the row's closed-form cells are then the
   leading cells [solve] settles in closed form ([closes]), every
   column included.  Not searchable columns close no row. *)
let test_closed_prefix_fallback () =
  let niagara = Lazy.force machine and big = Lazy.force biglittle in
  let tstarts = [| 27.0; 50.0; 70.0; 85.0; 95.0 |] in
  let held_after_failure = ref false in
  List.iter
    (fun (name, machine, ftargets, searchable) ->
      let cs = Protemp.Model.columns ~machine ~spec:fast_spec ftargets in
      check_bool (name ^ ": searchable") searchable
        (Protemp.Model.searchable cs);
      let row = Protemp.Model.rows cs tstarts in
      Array.iteri
        (fun i tstart ->
          let label = Printf.sprintf "%s at %g C" name tstart in
          let r = row i in
          let feasible = r.Protemp.Model.feasible in
          let holds =
            Array.init feasible (fun j ->
                closes
                  (Protemp.Model.build ~machine ~spec:fast_spec ~tstart
                     ~ftarget:ftargets.(j)))
          in
          let scan = ref 0 in
          while !scan < feasible && holds.(!scan) do
            incr scan
          done;
          let rest = Array.sub holds !scan (feasible - !scan) in
          if Array.exists Fun.id rest then held_after_failure := true;
          check_bool (label ^ ": a prefix") true
            (not (searchable && Array.exists Fun.id rest));
          check_int
            (label ^ ": the cells solve settles in closed form")
            (Array.fold_left (fun n h -> if h then n + 1 else n) 0 holds)
            r.Protemp.Model.closed_form)
        tstarts;
      if not searchable then
        check_int (name ^ ": no closed row") 0
          (closed_rows ~machine ~spec:fast_spec ~cols:(Array.length ftargets)
             cs tstarts))
    [
      ("Niagara descending", niagara, [| 9.4e8; 9e8; 6e8; 3e8; 1e8 |], false);
      ("Niagara unsorted", niagara, [| 1e8; 9.4e8; 2e8; 9e8; 5e8 |], false);
      ( "big.LITTLE no column first",
        big,
        [| big.Sim.Machine.fmax; 1e8; 3e8 |],
        false );
      ("Niagara ascending", niagara, [| 1e8; 3e8; 6e8; 9e8; 9.5e8 |], true);
      ("big.LITTLE ascending", big, [| 1e8; 3e8; 5e8; 6e8; 7e8 |], true);
    ];
  check_bool "a column held after one that did not" true !held_after_failure

(* Where a column stops closing, to the last float: for each column
   that closes at 27 C and not at 150 C, on both platforms at margins 0
   and 5, the last start [lo] whose cell {!Protemp.Model.solve} settles
   in closed form is found by bisection over the floats, and
   {!Protemp.Model.rows} must close the row of [lo] and not that of the
   next float.  At ftarget 0 the column's point is 0, and at [lo] the
   hottest row's base is [tmax] exactly: its value equals its
   constant, which holds. *)
let test_closed_rows_at_the_float_boundary () =
  let boundaries = ref 0 in
  List.iter
    (fun (name, machine, ftargets) ->
      List.iter
        (fun margin ->
          let spec = Protemp.Spec.guard_band ~margin fast_spec in
          Array.iter
            (fun ftarget ->
              let closes_at tstart =
                closes (Protemp.Model.build ~machine ~spec ~tstart ~ftarget)
              in
              if closes_at 27.0 && not (closes_at 150.0) then begin
                let lo = ref (Int64.bits_of_float 27.0)
                and hi = ref (Int64.bits_of_float 150.0) in
                while Int64.sub !hi !lo > 1L do
                  let mid = Int64.add !lo (Int64.div (Int64.sub !hi !lo) 2L) in
                  if closes_at (Int64.float_of_bits mid) then lo := mid
                  else hi := mid
                done;
                incr boundaries;
                let lo = Int64.float_of_bits !lo in
                check_int
                  (Printf.sprintf "%s margin %.0f at %g Hz: closes at %h, not \
                                   at the next float"
                     name margin ftarget lo)
                  1
                  (closed_rows ~machine ~spec ~cols:1
                     (Protemp.Model.columns ~machine ~spec [| ftarget |])
                     [| lo; Int64.float_of_bits !hi |])
              end)
            ftargets)
        [ 0.0; 5.0 ])
    [
      ("Niagara", Lazy.force machine, [| 0.0; 4e8; 6e8; 8e8; 9e8 |]);
      ("big.LITTLE", Lazy.force biglittle, [| 0.0; 3e8; 5e8; 7e8 |]);
    ];
  check_bool (Printf.sprintf "%d boundaries >= 12" !boundaries) true
    (!boundaries >= 12)

(* Frontier tangents.  A tangent is a safe upper bound on the frontier
   of every start, whatever dual it is built from: the frontier [F] at
   a random start must not lie above the bound by more than the
   frontier solve's gap tolerance, both for the ladder's own tangent at
   a random point and for one built from a perturbed dual of the
   frontier at another random start.  The perturbation scales the dual
   down (so [G'z + c] is far from 0 and the residual charge carries the
   bound), pushes some orthant entries below zero (the clip) and
   replaces some power-law blocks [(u, v, w)] by points far outside
   their cone (the projection).  The refutation is read through
   {!Protemp.Model.tangent_refutes} on a cell whose floor is [F] less
   the tolerance.  And no cell near the frontier that [Model.solve]
   refutes with a ladder tangent (one primal-infeasibility outcome, no
   iteration) is optimal under the all-rows solve. *)
let perturbed_dual rng ~n_cones (z : Vec.t) =
  let scale = Float.max 1.0 (Vec.norm_inf z) in
  let alpha = Random.State.float rng 1.0 in
  let n = Vec.dim z in
  let mo = n - (3 * n_cones) in
  let z' =
    Vec.init n (fun i ->
        if i < mo && Random.State.int rng 4 = 0 then
          -.scale *. Random.State.float rng 1.0
        else alpha *. z.(i))
  in
  for k = 0 to n_cones - 1 do
    if Random.State.int rng 4 = 0 then begin
      let e = mo + (3 * k) in
      z'.(e) <- 0.01 *. Random.State.float rng 1.0;
      z'.(e + 1) <- 0.01 *. Random.State.float rng 1.0;
      z'.(e + 2) <- scale *. (Random.State.float rng 2.0 -. 1.0)
    end
  done;
  z'

let prop_frontier_tangent_sound =
  QCheck2.Test.make
    ~name:"model: frontier tangents bound the frontier of every start"
    ~count:40
    ~print:(fun ((big, uniform, stride, margin), (tstart, point, t_dual, seed, u))
           ->
      Printf.sprintf
        "%s %s stride %d margin %.0f tstart %.3f point %d dual from %.3f \
         seed %d ftarget %+.4f"
        (if big then "biglittle" else "niagara")
        (if uniform && not big then "uniform" else "variable")
        stride margin tstart point t_dual seed u)
    QCheck2.Gen.(
      pair
        (tup4 bool bool (oneofl [ 1; 4 ]) (oneofl [ 0.0; 5.0 ]))
        (tup5 (float_range 20.0 105.0)
           (int_range 0 (Protemp.Model.ladder_points - 1))
           (float_range 20.0 105.0) int (float_range (-0.03) 0.03)))
    (fun ((big, uniform, stride, margin), (tstart, point, t_dual, seed, u)) ->
      let machine = Lazy.force (if big then biglittle else machine) in
      let spec =
        Protemp.Spec.guard_band ~margin
          (working_set_spec ~big ~variant:(if uniform then 1 else 0) ~stride)
      in
      let fmax = machine.Sim.Machine.fmax in
      let n = float_of_int machine.Sim.Machine.n_cores in
      let cell floor =
        Protemp.Model.build ~machine ~spec ~tstart
          ~ftarget:(Float.min fmax (Float.max 0.0 (floor /. n *. fmax)))
      in
      let frontier =
        match
          Protemp.Model.solve_frontier
            (Protemp.Model.build_frontier ~machine ~spec ~tstart)
        with
        | Protemp.Model.Feasible s ->
            Some (-.s.Protemp.Model.raw.Convex.Solve.objective_value)
        | Protemp.Model.Infeasible -> None
      in
      (match frontier with
      | None -> ()
      | Some f ->
          let below =
            cell (f -. (Convex.Conic.gap_rel_tol *. Float.max 1.0 f))
          in
          let sound name = function
            | Some tg when Protemp.Model.tangent_refutes tg below ->
                QCheck2.Test.fail_reportf
                  "%s tangent refutes a floor below the frontier %.9g" name f
            | Some _ | None -> ()
          in
          sound "the ladder's" (Protemp.Model.frontier_tangent below ~point);
          let other =
            Protemp.Model.build_frontier ~machine ~spec ~tstart:t_dual
          in
          let t = Lazy.force other.Protemp.Model.conic in
          let ws =
            Convex.Conic.make_workspace
              ~kkt:
                (`Blocks
                  (Protemp.Model.conic_blocks other.Protemp.Model.layout))
              t
          in
          match Convex.Conic.solve ~ws t with
          | Convex.Conic.Optimal s ->
              let rng = Random.State.make [| seed |] in
              sound "a perturbed dual's"
                (Protemp.Model.tangent other
                   (perturbed_dual rng
                      ~n_cones:other.Protemp.Model.layout.Protemp.Model.n_f
                      s.Convex.Conic.z))
          | _ -> ());
      let near = cell (Option.value frontier ~default:n *. (1.0 +. u)) in
      let stats = ref Convex.Conic.stats_zero in
      (match Protemp.Model.solve ~conic_stats_into:stats near with
      | Protemp.Model.Infeasible
        when !stats.Convex.Conic.primal_infeasible = 1
             && !stats.Convex.Conic.iterations = 0 -> (
          match all_rows_solve near (Model_reference.problem near) with
          | Convex.Conic.Optimal _ ->
              QCheck2.Test.fail_reportf
                "a cell the ladder refutes is optimal on every row"
          | _ -> ())
      | Protemp.Model.Infeasible | Protemp.Model.Feasible _ -> ());
      true)

(* The per-cell evaluation of a tangent, the one call a first
   infeasible cell now costs, allocates nothing (lint.manifest lists
   it too). *)
let test_tangent_refutes_allocation_free () =
  let machine = Lazy.force machine in
  let built =
    Protemp.Model.build ~machine ~spec:fast_spec ~tstart:66.0 ~ftarget:9.5e8
  in
  match Protemp.Model.frontier_tangent built ~point:8 with
  | None -> Alcotest.fail "the ladder point has a tangent"
  | Some tg ->
      let evaluations = 1000 and refuted = ref true in
      ignore (Protemp.Model.tangent_refutes tg built);
      let before = Gc.minor_words () in
      for _ = 1 to evaluations do
        refuted := Protemp.Model.tangent_refutes tg built && !refuted
      done;
      let words = Gc.minor_words () -. before in
      check_bool "950 MHz at 66 C is refuted" true !refuted;
      check_float 0.0 "minor words per evaluation" 0.0
        (words /. float_of_int evaluations)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_never_exceeds_tmax;
      prop_table_lookup_semantics;
      prop_table_csv_roundtrip_exact;
      prop_filter_keeps_feasible_set;
      prop_conic_rows_bit_identical;
      prop_working_set;
      prop_closed_form;
      prop_frontier_tangent_sound;
      prop_affine_base_within_bound;
    ]
  @ [
      (let name, speed, run = QCheck_alcotest.to_alcotest prop_closed_rows in
       ( name,
         speed,
         fun () ->
           Array.fill prefix_shapes 0 3 0;
           Array.fill block_shapes 0 3 0;
           run ();
           check_bool "no, some and every start closed all drawn" true
             (Array.for_all (fun n -> n > 0) prefix_shapes);
           check_bool "blocks with some and with every start closed drawn"
             true
             (block_shapes.(1) > 0 && block_shapes.(2) > 0) ));
      (let name, speed, run = QCheck_alcotest.to_alcotest prop_active_set_kkt in
       ( name,
         speed,
         fun () ->
           active_set_drawn := 0;
           active_set_hot_biglittle := 0;
           active_set_box_moved := 0;
           run ();
           check_bool
             (Printf.sprintf
                "%d cells settled by the active set drawn, %d of them \
                 big.LITTLE at or above 96.5 C, %d after a box move"
                !active_set_drawn !active_set_hot_biglittle
                !active_set_box_moved)
             true
             (!active_set_drawn > 0
             && !active_set_hot_biglittle > 0
             && !active_set_box_moved > 0) ));
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
          Alcotest.test_case "csv roundtrip" `Quick test_table_csv_roundtrip;
          Alcotest.test_case "csv rejects duplicates" `Quick
            test_table_csv_rejects_duplicates;
          Alcotest.test_case "csv rejects a missing cell" `Quick
            test_table_csv_rejects_missing_cell;
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
          Alcotest.test_case "rejects non-finite inputs" `Quick
            test_model_rejects_non_finite;
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
          Alcotest.test_case "pro-temp decide allocation-free" `Quick
            test_controller_decide_allocation_free;
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
      ( "closed_form",
        [
          Alcotest.test_case "saturated little cores" `Quick
            test_closed_form_saturated_little_cores;
          Alcotest.test_case "column is the closed form" `Quick
            test_column_is_closed_form;
          Alcotest.test_case "closed prefix fallback" `Quick
            test_closed_prefix_fallback;
          Alcotest.test_case "closed rows at the float boundary" `Quick
            test_closed_rows_at_the_float_boundary;
          Alcotest.test_case "pinned working-set cell" `Quick
            test_closed_form_pinned_working_set_cell;
          Alcotest.test_case "gradient grid golden" `Quick
            test_gradient_grid_golden;
        ] );
      ( "stall_path",
        [
          Alcotest.test_case "gradient-cap cells served" `Quick
            test_stall_path_serves_optimum;
          Alcotest.test_case "settled by its own frontier" `Quick
            test_stall_path_own_frontier;
          Alcotest.test_case "seed picks the retry set" `Quick
            test_stall_path_seed_picks_retry_set;
        ] );
      ( "tangent",
        [
          Alcotest.test_case "evaluation allocates nothing" `Quick
            test_tangent_refutes_allocation_free;
        ] );
      ( "prepare",
        [
          Alcotest.test_case "bit-identical to the matmul oracle" `Quick
            test_prepare_bit_identical;
          Alcotest.test_case "allocation flat in window length" `Quick
            test_prepare_allocation_flat;
          Alcotest.test_case "window response shape" `Quick
            test_window_response_shape;
          Alcotest.test_case "alternating machines bit-identical" `Quick
            test_prepare_alternating_machines;
          Alcotest.test_case "fresh machine, 1 vs 2 domains" `Quick
            test_fill_fresh_machine_domains;
          Alcotest.test_case "fresh machine rows published once" `Quick
            test_rows_published_once;
          Alcotest.test_case "uniform prepare allocation flat" `Quick
            test_uniform_prepare_allocation_flat;
          Alcotest.test_case "a start copies no row" `Quick
            test_start_copies_no_row;
          Alcotest.test_case "thermal coefficients non-negative" `Quick
            test_thermal_coefficients_nonnegative;
        ] );
      ( "guarantee",
        [
          Alcotest.test_case "window peak cooling" `Quick
            test_guarantee_window_peak_cooling;
          Alcotest.test_case "one window length" `Quick
            test_window_steps_shared;
          Alcotest.test_case "margin validation" `Quick
            test_guarantee_margin_validation;
          Alcotest.test_case "table audit" `Slow test_guarantee_audit_table;
          Alcotest.test_case "guard band absorbs faults" `Slow
            test_guard_band_absorbs_faults;
          Alcotest.test_case "basic-dfs violates" `Slow
            test_basic_dfs_violates_under_load;
        ] );
      ("properties", props);
    ]
