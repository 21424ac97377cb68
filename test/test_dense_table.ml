(* Tests for the dense-grid pipeline: on-demand memoized cells against
   the one-shot solver, warm-start and frontier-pruning accounting,
   domain-count-invariant fills, agreement with cold per-cell solves,
   the certified-interpolation safety property, and the release of
   each row's solver state. *)

open Linalg
module D = Protemp.Dense_table

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine = lazy (Sim.Machine.niagara ())
let fast_spec = { Protemp.Spec.default with Protemp.Spec.constraint_stride = 4 }

let axis lo hi n =
  Array.init n (fun i ->
      lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

(* A cool, mostly-feasible grid: exercises warm starts and
   interpolation without fighting the thermal cap. *)
let cool_tstarts = [| 60.0; 80.0; 95.0 |]
let cool_ftargets = [| 2e8; 5e8; 8e8 |]

let cool_dense () =
  D.create ~machine:(Lazy.force machine) ~spec:fast_spec
    ~tstarts:cool_tstarts ~ftargets:cool_ftargets ()

(* Shared across the lookup tests: cells memoize, so the 9 solves are
   paid once. *)
let shared = lazy (cool_dense ())

let test_create_validation () =
  let m = Lazy.force machine in
  let bad f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "negative margin" true
    (bad (fun () ->
         D.create ~margin:(-1.0) ~machine:m ~spec:fast_spec
           ~tstarts:cool_tstarts ~ftargets:cool_ftargets ()));
  check_bool "nan margin" true
    (bad (fun () ->
         D.create ~margin:Float.nan ~machine:m ~spec:fast_spec
           ~tstarts:cool_tstarts ~ftargets:cool_ftargets ()));
  check_bool "margin swallows envelope" true
    (bad (fun () ->
         D.create ~margin:fast_spec.Protemp.Spec.tmax ~machine:m
           ~spec:fast_spec ~tstarts:cool_tstarts ~ftargets:cool_ftargets ()));
  check_bool "unsorted tstarts" true
    (bad (fun () ->
         D.create ~machine:m ~spec:fast_spec ~tstarts:[| 80.0; 60.0 |]
           ~ftargets:cool_ftargets ()));
  check_bool "empty axis" true
    (bad (fun () ->
         D.create ~machine:m ~spec:fast_spec ~tstarts:cool_tstarts
           ~ftargets:[||] ()));
  (* Every comparison with NaN is false: a NaN between two increasing
     values would pass an [a.(i) <= a.(i-1)] test. *)
  List.iter
    (fun x ->
      let label what = Printf.sprintf "%s %h" what x in
      check_bool (label "tstarts holding") true
        (bad (fun () ->
             D.create ~machine:m ~spec:fast_spec ~tstarts:[| 60.0; x; 95.0 |]
               ~ftargets:cool_ftargets ()));
      check_bool (label "ftargets holding") true
        (bad (fun () ->
             D.create ~machine:m ~spec:fast_spec ~tstarts:cool_tstarts
               ~ftargets:[| 1e8; x; 5e8 |] ())))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  check_bool "infinite last ftarget" true
    (bad (fun () ->
         D.create ~machine:m ~spec:fast_spec ~tstarts:cool_tstarts
           ~ftargets:[| 1e8; 5e8; Float.infinity |] ()))

(* One cell solved cold, from scratch. *)
let cold_solve i j =
  Protemp.Model.solve
    (Protemp.Model.build ~machine:(Lazy.force machine) ~spec:fast_spec
       ~tstart:cool_tstarts.(i) ~ftarget:cool_ftargets.(j))

let test_cell_matches_cold_solve () =
  let dt = cool_dense () in
  (* First touch of a fresh grid is a cold solve of the same problem. *)
  let c = D.cell dt 1 1 in
  let direct = cold_solve 1 1 in
  (match (c, direct) with
  | Protemp.Table.Frequencies f, Protemp.Model.Feasible s ->
      check_bool "frequencies agree" true
        (Vec.approx_equal ~tol:1e4 f s.Protemp.Model.frequencies)
  | Protemp.Table.Infeasible, Protemp.Model.Infeasible -> ()
  | _ -> Alcotest.fail "on-demand cell disagrees with a cold solve");
  (* Memoized: a second read is free. *)
  let solves = (D.stats dt).D.solves in
  ignore (D.cell dt 1 1);
  check_int "memoized" solves (D.stats dt).D.solves;
  check_int "computed" 1 (D.computed dt)

let test_fill_stats_and_warm_rate () =
  let dt = cool_dense () in
  let s = D.fill ~domains:2 dt in
  check_int "all cells" 9 s.D.cells;
  check_int "accounted" 9 (s.D.solves + s.D.pruned);
  check_bool "mostly feasible grid" true (s.D.feasible >= 6);
  (* Within each row every solve after the first feasible column is
     warm-seeded: on this grid the warm rate must clear the serving
     gate. *)
  check_bool
    (Printf.sprintf "warm rate %d/%d > 0.5" s.D.warm_hits s.D.solves)
    true
    (float_of_int s.D.warm_hits > 0.5 *. float_of_int s.D.solves);
  (* fill is idempotent. *)
  let again = D.fill dt in
  check_int "nothing left" 0 again.D.cells

let test_fill_domain_invariance () =
  let csv_at domains =
    let dt = cool_dense () in
    ignore (D.fill ~domains dt);
    Protemp.Table.to_csv (D.to_table dt)
  in
  (* Bit-identical grids at 1 vs 4 domains (CSV is %.17g, i.e. exact). *)
  Alcotest.(check string) "domains 1 = domains 4" (csv_at 1) (csv_at 4)

(* The seeded, pruned fill against every cell solved cold and from
   scratch. *)
let test_fill_matches_offline_sweep () =
  let dt = cool_dense () in
  ignore (D.fill dt);
  let dense = D.to_table dt in
  for i = 0 to 2 do
    for j = 0 to 2 do
      match (Protemp.Table.cell dense i j, cold_solve i j) with
      | Protemp.Table.Infeasible, Protemp.Model.Infeasible -> ()
      | Protemp.Table.Frequencies a, Protemp.Model.Feasible b ->
          check_bool (Printf.sprintf "cell (%d,%d)" i j) true
            (Vec.approx_equal ~tol:1e4 a b.Protemp.Model.frequencies)
      | _ -> Alcotest.fail (Printf.sprintf "feasibility differs at (%d,%d)" i j)
    done
  done

let test_frontier_prunes_across_rows () =
  let m = Lazy.force machine in
  (* Full speed from a hair under the cap: the window peak must blow
     through tmax, so the cool row's infeasibility certificate is
     available to prune the hotter row without touching the solver. *)
  let dt =
    D.create ~machine:m ~spec:fast_spec ~tstarts:[| 99.0; 99.5 |]
      ~ftargets:[| 9.5e8; 1e9 |] ()
  in
  (match D.cell dt 0 1 with
  | Protemp.Table.Infeasible -> ()
  | Protemp.Table.Frequencies _ ->
      Alcotest.fail "full speed at 99C should be infeasible");
  let solves = (D.stats dt).D.solves in
  (match D.cell dt 1 1 with
  | Protemp.Table.Infeasible -> ()
  | Protemp.Table.Frequencies _ -> Alcotest.fail "pruned cell must be infeasible");
  let s = D.stats dt in
  check_int "no extra solve" solves s.D.solves;
  check_bool "counted as pruned" true (s.D.pruned >= 1);
  (* And a fill of the remainder keeps the books balanced. *)
  let f = D.fill ~domains:2 dt in
  check_int "remaining cells" 2 f.D.cells;
  check_int "grid complete" 4 (D.computed dt)

let test_lookup_at_grid_point () =
  let dt = Lazy.force shared in
  (* At the cool corner both axis weights collapse to 1.0, so the blend
     is bit-for-bit the corner cell. *)
  let corner =
    match D.cell dt 0 0 with
    | Protemp.Table.Frequencies f -> f
    | Protemp.Table.Infeasible -> Alcotest.fail "cool corner infeasible"
  in
  (match
     D.lookup dt ~temperature:cool_tstarts.(0) ~required:cool_ftargets.(0)
   with
  | `Interpolated v | `Clamped v ->
      check_bool "corner exact" true (Vec.approx_equal ~tol:0.0 corner v)
  | `None -> Alcotest.fail "corner lookup served nothing");
  (* Hotter than every row: the discrete rule's miss. *)
  check_bool "too hot" true
    (match D.lookup dt ~temperature:96.0 ~required:2e8 with
    | `None -> true
    | _ -> false)

let test_lookup_beyond_grid_clamps () =
  let dt = Lazy.force shared in
  (* Requirement above the fastest column: no corner to blend toward,
     so the discrete round-down must serve. *)
  match D.lookup dt ~temperature:70.0 ~required:9.9e8 with
  | `Clamped v ->
      check_bool "discrete agrees" true
        (match D.discrete dt ~temperature:70.0 ~required:9.9e8 with
        | Some d -> Vec.approx_equal ~tol:0.0 d v
        | None -> false)
  | `Interpolated _ -> Alcotest.fail "nothing to interpolate beyond the grid"
  | `None -> Alcotest.fail "grid should still serve its fastest column"

let test_audit_certifies_grid () =
  let dt = Lazy.force shared in
  let a = D.audit dt in
  check_bool "cells checked" true (a.Protemp.Guarantee.cells_checked > 0);
  check_bool
    (Printf.sprintf "worst margin %g >= 0" a.Protemp.Guarantee.worst_margin)
    true
    (a.Protemp.Guarantee.worst_margin >= 0.0)

(* The served floor.  A feasible cell's optimum meets the throughput
   floor [sum_j fhat_j core_fmax_j >= n ftarget] over the model's box
   [fhat_j <= f_box], and the served vector clamps each [fhat_j] to 1,
   so a core can lose at most [(f_box - 1) core_fmax_j]; an
   interior-point optimum may also miss the floor and the box rows by
   its accepted residual, at most [100 feas_tol max(1, |h|_inf)] in
   units of fmax, where [|h|_inf <= n_cores] on these grids.  The
   bound that Dense_table.mli states is the sum. *)
let floor_shortfall_bound machine =
  let n = machine.Sim.Machine.n_cores in
  let eps =
    100.0 *. Convex.Conic.feas_tol *. Float.max 2.0 (float_of_int n)
  in
  let sum_fmax = Array.fold_left ( +. ) 0.0 machine.Sim.Machine.core_fmax in
  ((Protemp.Model.f_box -. 1.0 +. eps) *. sum_fmax)
  +. (eps *. machine.Sim.Machine.fmax)

let test_served_floor_bound () =
  List.iter
    (fun (name, machine, tstarts, ftargets) ->
      let dt = D.create ~machine ~spec:fast_spec ~tstarts ~ftargets () in
      let table = D.to_table ~domains:1 dt in
      let bound = floor_shortfall_bound machine in
      let n = float_of_int machine.Sim.Machine.n_cores in
      let worst = ref neg_infinity and feasible = ref 0 in
      Array.iteri
        (fun i _ ->
          Array.iteri
            (fun j ftarget ->
              match Protemp.Table.cell table i j with
              | Protemp.Table.Infeasible -> ()
              | Protemp.Table.Frequencies f ->
                  incr feasible;
                  worst := Float.max !worst ((n *. ftarget) -. Vec.sum f))
            ftargets)
        tstarts;
      check_bool (name ^ ": feasible cells") true (!feasible > 0);
      check_bool
        (Printf.sprintf "%s: worst shortfall %.6g Hz <= bound %.6g Hz" name
           !worst bound)
        true (!worst <= bound))
    [
      ( "big.LITTLE 150x8",
        Sim.Machine.biglittle (),
        axis 27.0 100.0 150,
        axis 1e8 7e8 8 );
      ( "Niagara 100x100",
        Lazy.force machine,
        axis 27.0 100.0 100,
        axis 1e8 1e9 100 );
    ]

(* ------------------------------------------------------------------ *)
(* Solver-state release *)

(* Words a table holds beyond its machine.  The machine is shared with
   every caller, and its cache of row sets grows on the first prepare,
   so it is measured at the same moment and taken out. *)
let table_words dt =
  Obj.reachable_words (Obj.repr dt)
  - Obj.reachable_words (Obj.repr (Lazy.force machine))

(* The serving grid of the fleet benchmark's smoke: margin 5, 19x9. *)
let served_dense () =
  D.create ~margin:5.0 ~machine:(Lazy.force machine) ~spec:fast_spec
    ~tstarts:(axis 27.0 100.0 19) ~ftargets:(axis 1e8 9e8 9) ()

let test_fill_releases_contexts () =
  let dt = served_dense () in
  let rows = Array.length (D.tstarts dt) in
  (* One cell a row: every row now holds its prepared context and
     workspace, as every row of a filled table used to. *)
  for i = 0 to rows - 1 do
    ignore (D.cell dt i 0)
  done;
  let held = table_words dt in
  ignore (D.fill ~domains:2 dt);
  let filled = table_words dt in
  check_bool
    (Printf.sprintf "filled %d words < 1/10 of the %d with every context"
       filled held)
    true
    (filled * 10 < held)

let test_on_demand_row_releases () =
  let dt = cool_dense () in
  let base = table_words dt in
  ignore (D.cell dt 0 0);
  let one = table_words dt in
  check_int "the first cell is cold" 0 (D.stats dt).D.warm_hits;
  ignore (D.cell dt 0 1);
  let two = table_words dt in
  (* The partial row keeps its context: the second cell reuses it (no
     second prepare), and it is seeded from the first. *)
  check_int "a later cell of the row is warm" 1 (D.stats dt).D.warm_hits;
  check_bool
    (Printf.sprintf "context held: %d words after one cell, %d before" one
       base)
    true
    (one - base > 4 * (two - one));
  ignore (D.cell dt 0 2);
  check_int "the last cell is warm too" 2 (D.stats dt).D.warm_hits;
  let complete = table_words dt in
  check_bool
    (Printf.sprintf "row complete: %d words, %d while partial" complete two)
    true
    (4 * (complete - base) < two - base)

let test_serving_after_release () =
  let dt = cool_dense () in
  let points =
    List.concat_map
      (fun temperature ->
        List.map (fun required -> (temperature, required)) [ 1.5e8; 3e8; 5e8; 7.5e8 ])
      [ 55.0; 62.0; 81.0; 90.0 ]
  in
  let serve () =
    List.map
      (fun (temperature, required) ->
        (D.lookup dt ~temperature ~required, D.discrete dt ~temperature ~required))
      points
  in
  (* Served on demand while rows are partial and hold their contexts,
     then again after a fill has completed and released every row. *)
  let before = serve () in
  ignore (D.fill dt);
  let solves = (D.stats dt).D.solves and words = table_words dt in
  let after = serve () in
  check_bool "lookup and discrete unchanged" true (before = after);
  check_int "no solve after the fill" solves (D.stats dt).D.solves;
  check_int "no context re-created" words (table_words dt);
  let table = D.to_table dt in
  List.iter
    (fun (temperature, required) ->
      check_bool "discrete is the exported table's rule" true
        (D.discrete dt ~temperature ~required
        = Table_reference.lookup table ~temperature ~required))
    points;
  check_bool "audit is the exported table's" true
    (D.audit dt
    = Protemp.Guarantee.audit_table ~machine:(Lazy.force machine)
        ~spec:fast_spec table)

(* The tentpole safety property: whenever the paper's discrete rule
   would serve a cap-honouring vector, the interpolating lookup's
   served vector honours the cap too — the repair pass may clamp, but
   never serves something less safe. *)
let prop_interpolation_never_less_safe =
  QCheck2.Test.make ~name:"dense: interpolated lookups never violate tmax"
    ~count:40
    QCheck2.Gen.(pair (float_range 50.0 100.0) (float_range 1e8 9e8))
    (fun (temperature, required) ->
      let m = Lazy.force machine in
      let dt = Lazy.force shared in
      let peak_of v =
        Protemp.Guarantee.window_peak ~machine:m
          ~dfs_period:fast_spec.Protemp.Spec.dfs_period ~tstart:temperature
          ~frequencies:v
      in
      let tmax = fast_spec.Protemp.Spec.tmax in
      match D.lookup dt ~temperature ~required with
      | `None -> D.discrete dt ~temperature ~required = None
      | `Interpolated v | `Clamped v -> (
          match D.discrete dt ~temperature ~required with
          | None -> false (* a served vector implies a discrete fallback *)
          | Some d ->
              (* Only constrained when the discrete rule itself is safe
                 at this (between-grid-point) temperature. *)
              peak_of d > tmax +. 1e-9 || peak_of v <= tmax +. 1e-9))

let () =
  Alcotest.run "dense_table"
    [
      ( "cells",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "on-demand cell" `Slow
            test_cell_matches_cold_solve;
          Alcotest.test_case "frontier pruning" `Slow
            test_frontier_prunes_across_rows;
        ] );
      ( "fill",
        [
          Alcotest.test_case "stats and warm rate" `Slow
            test_fill_stats_and_warm_rate;
          Alcotest.test_case "domain invariance" `Slow
            test_fill_domain_invariance;
          Alcotest.test_case "matches offline sweep" `Slow
            test_fill_matches_offline_sweep;
        ] );
      ( "serving",
        [
          Alcotest.test_case "grid-point lookup" `Slow test_lookup_at_grid_point;
          Alcotest.test_case "beyond-grid clamp" `Slow
            test_lookup_beyond_grid_clamps;
          Alcotest.test_case "whole-grid audit" `Slow test_audit_certifies_grid;
          QCheck_alcotest.to_alcotest prop_interpolation_never_less_safe;
          Alcotest.test_case "served floor within the stated bound" `Slow
            test_served_floor_bound;
        ] );
      ( "release",
        [
          Alcotest.test_case "fill releases row contexts" `Slow
            test_fill_releases_contexts;
          Alcotest.test_case "on-demand row releases" `Slow
            test_on_demand_row_releases;
          Alcotest.test_case "serving after release" `Slow
            test_serving_after_release;
        ] );
    ]
