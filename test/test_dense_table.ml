(* Tests for the Phase-1 table fill: validation, fill accounting and
   idempotence, domain-count-invariant grids, agreement of every cell
   with the same cell solved cold on random small grids (the in-row
   pruning rule included), the thermal audit of a filled table, the
   served throughput bound, and what a filled grid keeps alive. *)

open Linalg
module D = Protemp.Dense_table

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine = lazy (Sim.Machine.niagara ())
let fast_spec = { Protemp.Spec.default with Protemp.Spec.constraint_stride = 4 }

let axis lo hi n =
  Array.init n (fun i ->
      lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

(* A cool, mostly-feasible grid: exercises warm starts without
   fighting the thermal cap. *)
let cool_tstarts = [| 60.0; 80.0; 95.0 |]
let cool_ftargets = [| 2e8; 5e8; 8e8 |]

let cool_dense () =
  D.create ~machine:(Lazy.force machine) ~spec:fast_spec
    ~tstarts:cool_tstarts ~ftargets:cool_ftargets ()

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
  let table = D.to_table dt in
  let again = D.fill dt in
  check_int "nothing left" 0 again.D.cells;
  check_int "no solve" 0 again.D.solves;
  check_bool "the same table" true (D.to_table dt == table)

let test_fill_domain_invariance () =
  let csv_at domains =
    let dt = cool_dense () in
    ignore (D.fill ~domains dt);
    Protemp.Table.to_csv (D.to_table dt)
  in
  (* Bit-identical grids at 1 vs 4 domains (CSV is %.17g, i.e. exact). *)
  Alcotest.(check string) "domains 1 = domains 4" (csv_at 1) (csv_at 4)

(* Random small grids: the platform, 2-5 rows and 3-8 columns, margin
   0 or 5, at stride 4.  The axes are sorted draws; a repeated draw
   drops out, so an axis may come out a value shorter. *)
let gen_grid =
  let open QCheck2.Gen in
  let axis n lo hi =
    map
      (fun xs -> Array.of_list (List.sort_uniq Float.compare xs))
      (list_size (return n) (float_range lo hi))
  in
  let* big = bool in
  let* rows = int_range 2 5 in
  let* cols = int_range 3 8 in
  let* margin = oneofl [ 0.0; 5.0 ] in
  let* tstarts = axis rows 27.0 100.0 in
  let+ fractions = axis cols 0.1 1.0 in
  (big, margin, tstarts, fractions)

let print_grid (big, margin, tstarts, fractions) =
  let floats a =
    String.concat "; " (Array.to_list (Array.map string_of_float a))
  in
  Printf.sprintf "%s, margin %g, tstarts [%s], ftargets [%s] x fmax"
    (if big then "big.LITTLE" else "Niagara")
    margin (floats tstarts) (floats fractions)

(* The filled table against every cell built and solved cold, on its
   own: the seeded solves agree to 10 kHz, and every cell after a
   row's first infeasible column, which the fill prunes without a
   solve, is infeasible when solved. *)
let prop_fill_matches_cold_cells =
  QCheck2.Test.make ~name:"matches offline sweep" ~count:60 ~print:print_grid
    gen_grid (fun (big, margin, tstarts, fractions) ->
      let machine =
        if big then Sim.Machine.biglittle () else Lazy.force machine
      in
      let ftargets =
        Array.map (fun x -> x *. machine.Sim.Machine.fmax) fractions
      in
      let table =
        D.to_table ~domains:1
          (D.create ~margin ~machine ~spec:fast_spec ~tstarts ~ftargets ())
      in
      let spec = Protemp.Spec.guard_band ~margin fast_spec in
      Array.iteri
        (fun i tstart ->
          Array.iteri
            (fun j ftarget ->
              let cold =
                Protemp.Model.solve
                  (Protemp.Model.build ~machine ~spec ~tstart ~ftarget)
              in
              match (Protemp.Table.cell table i j, cold) with
              | Protemp.Table.Infeasible, Protemp.Model.Infeasible -> ()
              | Protemp.Table.Frequencies a, Protemp.Model.Feasible b ->
                  if
                    not
                      (Vec.approx_equal ~tol:1e4 a b.Protemp.Model.frequencies)
                  then
                    QCheck2.Test.fail_reportf "cell (%d, %d) differs" i j
              | _ ->
                  QCheck2.Test.fail_reportf "feasibility differs at (%d, %d)"
                    i j)
            ftargets)
        tstarts;
      true)

(* The fill against a replay of its rows through the per-cell calls:
   per row one prepare, then per column [instantiate] and [Model.solve]
   (each making its own workspace when it needs one) seeded with the
   previous feasible column's optimum, up to the first infeasible
   column — the fill before columns settled cells without an instance.
   The replay infers each frontier verdict from the solver counters (a
   primal-infeasibility outcome with no iteration), the oracle for the
   verdict a row reports.  Random grids on
   both platforms, the variable and uniform variants and the gradient
   variant (which has no column), margin 0 or 5, stride 1 or 4.  The
   tables must agree byte for byte in [%.17g] CSV, and so must the
   closed-form and active-set counts, the frontier verdicts and the
   solver counters.
   No two served cells share a frequency vector: a cell must own the
   vector it is served.  A big.LITTLE grid also takes a row in
   [98.5, 100] C and a column in [0.55, 0.65] fmax, where the
   active-set step settles cells at margin 0 (its sets change most
   there, boxes included): the property fails unless some row at or
   above 96.5 C settles a cell by the step. *)
type replayed = {
  csv : string;
  closed_form : int;
  active_set : int;
  verdicts : int;
  conic : Convex.Conic.stats;
  row_closed : int array;  (* each row's cells settled in closed form *)
  row_active : int array;  (* each row's cells settled by the active set *)
}

let replay ~machine ~spec ~tstarts ~ftargets =
  let cols = Array.length ftargets in
  let conic = ref Convex.Conic.stats_zero in
  let closed_form = ref 0 and active_set = ref 0 and verdicts = ref 0 in
  let row tstart =
    let before = !closed_form and before_active = !active_set in
    let prepared = Protemp.Model.prepare ~machine ~spec ~tstart in
    let cells = Array.make cols Protemp.Table.Infeasible in
    let rec go j start =
      if j < cols then begin
        let built = Protemp.Model.instantiate prepared ~ftarget:ftargets.(j) in
        let before = !conic in
        match
          Protemp.Model.solve ~conic_stats_into:conic ?start built
        with
        | Protemp.Model.Infeasible ->
            if
              !conic.Convex.Conic.primal_infeasible
              > before.Convex.Conic.primal_infeasible
              && !conic.Convex.Conic.iterations = before.Convex.Conic.iterations
            then incr verdicts
        | Protemp.Model.Feasible s ->
            cells.(j) <- Protemp.Table.Frequencies s.Protemp.Model.frequencies;
            (match s.Protemp.Model.settled_by with
            | `Closed_form -> incr closed_form
            | `Active_set -> incr active_set
            | `Interior_point -> ());
            go (j + 1) (Some s.Protemp.Model.raw.Convex.Solve.x)
      end
    in
    go 0 None;
    (cells, !closed_form - before, !active_set - before_active)
  in
  let rows = Array.map row tstarts in
  let table =
    Protemp.Table.make ~tstarts ~ftargets (Array.map (fun (c, _, _) -> c) rows)
  in
  {
    csv = Protemp.Table.to_csv table;
    closed_form = !closed_form;
    active_set = !active_set;
    verdicts = !verdicts;
    conic = !conic;
    row_closed = Array.map (fun (_, c, _) -> c) rows;
    row_active = Array.map (fun (_, _, a) -> a) rows;
  }

(* [QCheck2.Gen.float_range lo hi] draws [lo + x], [x] uniform in
   [[0, hi - lo]], but its shrinker takes [lo] for an origin inside
   [[0, hi - lo]] and raises once [lo > hi - lo], so a failing grid is
   reported as that exception.  This draws the same values and shrinks
   towards [lo]. *)
let float_between lo hi =
  QCheck2.Gen.(map (fun x -> lo +. x) (float_bound_inclusive (hi -. lo)))

let gen_replay_grid =
  let open QCheck2.Gen in
  let axis n lo hi =
    map
      (fun xs -> Array.of_list (List.sort_uniq Float.compare xs))
      (list_size (return n) (float_between lo hi))
  in
  let* big = bool in
  let* variant =
    if big then oneofl [ `Variable; `Gradient ]
    else oneofl [ `Variable; `Uniform; `Gradient ]
  in
  let* stride = oneofl [ 1; 4 ] in
  let* margin = oneofl [ 0.0; 5.0 ] in
  let* cool = float_between 27.0 50.0 in
  let* hot = float_between 90.0 100.0 in
  let* others = list_size (int_range 0 2) (float_between 27.0 100.0) in
  let* hotter =
    if big then map Option.some (float_between 98.5 100.0) else return None
  in
  let tstarts =
    Array.of_list
      (List.sort_uniq Float.compare
         (cool :: hot :: (Option.to_list hotter @ others)))
  in
  let* cols = int_range 2 (if variant = `Gradient then 6 else 24) in
  let* lo = float_between 0.05 0.9 in
  let* hi = float_between lo 1.0 in
  let* fractions = axis cols lo hi in
  let+ near_frontier =
    if big then map Option.some (float_between 0.55 0.65) else return None
  in
  let fractions =
    Array.of_list
      (List.sort_uniq Float.compare
         (Option.to_list near_frontier @ Array.to_list fractions))
  in
  (big, variant, stride, margin, tstarts, fractions)

let print_replay_grid (big, variant, stride, margin, tstarts, fractions) =
  let floats a =
    String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") a))
  in
  Printf.sprintf "%s %s, stride %d, margin %g, tstarts [%s], ftargets [%s] x fmax"
    (if big then "big.LITTLE" else "Niagara")
    (match variant with
    | `Variable -> "variable"
    | `Uniform -> "uniform"
    | `Gradient -> "gradient")
    stride margin (floats tstarts) (floats fractions)

(* The shapes of the rows of grids with columns (not the gradient
   variant) drawn by the property: every cell settled in closed form
   (the fill prepares no such row), a closed-form prefix the fill
   bisects for, and none. *)
let whole_rows = ref 0
let searched_rows = ref 0
let open_rows = ref 0

(* big.LITTLE variable-variant rows at or above 96.5 C with a cell
   settled by the active set. *)
let hot_biglittle_rows = ref 0

let prop_fill_matches_replay =
  QCheck2.Test.make ~name:"equals per-cell replay" ~count:40
    ~print:print_replay_grid gen_replay_grid
    (fun (big, variant, stride, margin, tstarts, fractions) ->
      let machine =
        if big then Sim.Machine.biglittle () else Sim.Machine.niagara ()
      in
      let spec =
        let s = { Protemp.Spec.default with Protemp.Spec.constraint_stride = stride } in
        match variant with
        | `Variable -> s
        | `Uniform -> { s with Protemp.Spec.variant = Protemp.Spec.Uniform }
        | `Gradient -> Protemp.Spec.with_gradient ~weight:0.5 s
      in
      let ftargets =
        Array.map (fun x -> x *. machine.Sim.Machine.fmax) fractions
      in
      let dt = D.create ~margin ~machine ~spec ~tstarts ~ftargets () in
      let table = D.to_table ~domains:2 dt in
      let r =
        replay ~machine ~spec:(Protemp.Spec.guard_band ~margin spec) ~tstarts
          ~ftargets
      in
      let vectors =
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j ->
                match Protemp.Table.cell table i j with
                | Protemp.Table.Frequencies f -> Some f
                | Protemp.Table.Infeasible -> None)
              (List.init (Array.length ftargets) Fun.id))
          (List.init (Array.length tstarts) Fun.id)
      in
      let rec owned = function
        | [] -> true
        | f :: rest -> List.for_all (fun g -> f != g) rest && owned rest
      in
      if not (String.equal (Protemp.Table.to_csv table) r.csv) then
        QCheck2.Test.fail_report "the tables differ";
      if D.closed_form_cells dt <> r.closed_form then
        QCheck2.Test.fail_reportf "closed-form cells %d, replay %d"
          (D.closed_form_cells dt) r.closed_form;
      if D.active_set_cells dt <> r.active_set then
        QCheck2.Test.fail_reportf "active-set cells %d, replay %d"
          (D.active_set_cells dt) r.active_set;
      if D.frontier_verdicts dt <> r.verdicts then
        QCheck2.Test.fail_reportf "frontier verdicts %d, replay %d"
          (D.frontier_verdicts dt) r.verdicts;
      if D.solver_stats dt <> r.conic then
        QCheck2.Test.fail_report "solver counters differ";
      if not (owned vectors) then
        QCheck2.Test.fail_report "two cells share a frequency vector";
      if variant <> `Gradient then
        Array.iter
          (fun closed ->
            incr
              (if closed = Array.length ftargets then whole_rows
               else if closed > 0 then searched_rows
               else open_rows))
          r.row_closed;
      if big && variant = `Variable then
        Array.iteri
          (fun i active ->
            if tstarts.(i) >= 96.5 && active > 0 then incr hot_biglittle_rows)
          r.row_active;
      true)

(* The property, with a check that it drew every row shape. *)
let fill_matches_replay =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_fill_matches_replay in
  ( name,
    speed,
    fun () ->
      whole_rows := 0;
      searched_rows := 0;
      open_rows := 0;
      hot_biglittle_rows := 0;
      run ();
      Printf.printf
        "rows: %d whole, %d searched, %d open; %d big.LITTLE rows at or \
         above 96.5 C with an active-set cell\n"
        !whole_rows !searched_rows !open_rows !hot_biglittle_rows;
      check_bool "every row shape drawn" true
        (!whole_rows > 0 && !searched_rows > 0 && !open_rows > 0);
      check_bool "a hot big.LITTLE row settled by the active set drawn" true
        (!hot_biglittle_rows > 0) )

(* A grid fails closed.  An [ftarget] outside [0, fmax], NaN included,
   is refused when the grid is made, also where no row would reach
   that column (every row of a start at tmax is infeasible from its
   first column).  A grid the model refuses as a whole (the uniform
   variant on a platform of two core classes) fails its fill before
   any row is solved, and stays unfilled: no cell, counter or table. *)
let test_fill_fails_closed () =
  let m = Lazy.force machine in
  let fmax = m.Sim.Machine.fmax in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  List.iter
    (fun (name, spec, tstarts, ftargets) ->
      check_bool (name ^ ": create raises") true
        (raises (fun () -> D.create ~machine:m ~spec ~tstarts ~ftargets ())))
    [
      ("above fmax", fast_spec, cool_tstarts, [| 2e8; 5e8; 1.5 *. fmax |]);
      ("negative", fast_spec, cool_tstarts, [| -1e8; 5e8 |]);
      ("nan", fast_spec, cool_tstarts, [| 2e8; Float.nan |]);
      ( "beyond every row's first infeasible column",
        fast_spec,
        [| 100.0 |],
        [| 0.9 *. fmax; 2.0 *. fmax |] );
      ( "gradient variant",
        Protemp.Spec.with_gradient ~weight:0.5 fast_spec,
        cool_tstarts,
        [| 2e8; 1.5 *. fmax |] );
    ];
  let name = "uniform on big.LITTLE" in
  let dt =
    D.create ~machine:(Sim.Machine.biglittle ())
      ~spec:{ fast_spec with Protemp.Spec.variant = Protemp.Spec.Uniform }
      ~tstarts:cool_tstarts ~ftargets:[| 2e8; 5e8 |] ()
  in
  check_bool (name ^ ": fill raises") true
    (raises (fun () -> D.fill ~domains:2 dt));
  check_int (name ^ ": no closed-form cell") 0 (D.closed_form_cells dt);
  check_int (name ^ ": no verdict") 0 (D.frontier_verdicts dt);
  check_bool (name ^ ": no solve counted") true
    (D.solver_stats dt = Convex.Conic.stats_zero);
  check_bool (name ^ ": no table") true
    (raises (fun () -> D.to_table ~domains:1 dt))

let test_audit_certifies_grid () =
  let a =
    Protemp.Guarantee.audit_table ~machine:(Lazy.force machine)
      ~spec:fast_spec
      (D.to_table (cool_dense ()))
  in
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

(* The same grids also gate the frontier verdicts: no cell ends
   without a certificate, the ladder's tangents refute 98 of the 100
   first infeasible cells of Niagara's rows and 6 of the 7 of
   big.LITTLE's (the fill goldens stay 8923/8823/1077/8823 and
   1200/1050/0/1193), and a fresh machine filled at 1 and at 2
   domains gives the same table, byte for byte, the same counters and
   the same cache: its thermal rows and each ladder point it used,
   published once whichever domain asked first. *)
let test_served_floor_bound () =
  List.iter
    (fun (name, machine_of, tstarts, ftargets, verdicts) ->
      let machine = machine_of () in
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
        true (!worst <= bound);
      check_int (name ^ ": no unknown") 0
        (D.solver_stats dt).Convex.Conic.unknown;
      check_int (name ^ ": frontier verdicts") verdicts
        (D.frontier_verdicts dt);
      let fresh domains =
        let machine = machine_of () in
        let dt = D.create ~machine ~spec:fast_spec ~tstarts ~ftargets () in
        let stats = D.fill ~domains dt in
        ( Protemp.Table.to_csv (D.to_table dt),
          ( stats,
            D.closed_form_cells dt,
            D.frontier_verdicts dt,
            D.solver_stats dt ),
          Sim.Machine.cached_slots machine )
      in
      let csv1, counts1, slots1 = fresh 1 and csv2, counts2, slots2 = fresh 2 in
      check_bool (name ^ ": a second machine at 1 domain, the same table") true
        (csv1 = Protemp.Table.to_csv table);
      check_bool (name ^ ": 2 domains, the same table") true (csv1 = csv2);
      check_bool (name ^ ": 2 domains, the same counters") true
        (counts1 = counts2);
      check_int
        (Printf.sprintf "%s: 2 domains, the same cache (%d slots)" name slots1)
        slots1 slots2)
    [
      ( "big.LITTLE 150x8",
        Sim.Machine.biglittle,
        axis 27.0 100.0 150,
        axis 1e8 7e8 8,
        6 );
      ( "Niagara 100x100",
        Sim.Machine.niagara,
        axis 27.0 100.0 100,
        axis 1e8 1e9 100,
        98 );
    ]

(* Every feasible cell of the benchmark's three variable-variant grids
   (stride 4) is settled in closed form or by the active-set step: no
   feasible cell reaches the interior-point method, which only the
   first infeasible cells a ladder tangent does not refute may still
   run.  The closed-form counts are the ones the fill goldens pin. *)
let test_no_interior_point_cell () =
  List.iter
    (fun (name, machine_of, margin, tstarts, ftargets, closed_form) ->
      let dt =
        D.create ~margin ~machine:(machine_of ()) ~spec:fast_spec ~tstarts
          ~ftargets ()
      in
      let stats = D.fill ~domains:1 dt in
      check_int (name ^ ": closed-form cells") closed_form
        (D.closed_form_cells dt);
      check_int
        (Printf.sprintf "%s: feasible cells (%d) less closed-form and \
                         active-set ones (%d)"
           name stats.D.feasible (D.active_set_cells dt))
        0
        (stats.D.feasible - D.closed_form_cells dt - D.active_set_cells dt))
    [
      ( "Niagara 100x100",
        Sim.Machine.niagara,
        0.0,
        axis 27.0 100.0 100,
        axis 1e8 1e9 100,
        8617 );
      ( "big.LITTLE 150x8",
        Sim.Machine.biglittle,
        0.0,
        axis 27.0 100.0 150,
        axis 1e8 7e8 8,
        1187 );
      ( "Niagara margin-5 74x9",
        Sim.Machine.niagara,
        5.0,
        axis 27.0 100.0 74,
        axis 1e8 9e8 9,
        549 );
    ]

(* Niagara with one negative step entry: the first node's (not a
   core's) self-coupling at -0.01.  Its [a_1] is then negative, while
   every thermal coefficient at stride 1 stays >= 0 (at stride 4 every
   [a_k] is >= 0 again).  Only a hand-built
   {!Thermal.Rc_model.discrete} can have one: [discretize] refuses a
   step that makes [A] negative anywhere. *)
let negative_step_machine () =
  let m = Sim.Machine.niagara () in
  let d = m.Sim.Machine.thermal in
  let step = Mat.copy d.Thermal.Rc_model.step in
  Mat.set step 0 0 (-0.01);
  Sim.Machine.make_platform
    ~thermal:{ d with Thermal.Rc_model.step }
    ~core_nodes:m.Sim.Machine.core_nodes
    ~fixed_power:m.Sim.Machine.fixed_power ~platform:m.Sim.Machine.platform ()

(* Its columns are not searchable, so no row is closed and no row's
   prefix is searched: every row is prepared, and {!Protemp.Model.solve}
   settles its closed-form cells itself.  The fill equals the per-cell
   replay bit for bit, with the same closed-form count (some), frontier
   verdicts and solver counters. *)
let test_not_searchable_fallback () =
  let machine = negative_step_machine () in
  let spec = { Protemp.Spec.default with Protemp.Spec.constraint_stride = 1 } in
  let tstarts = axis 27.0 100.0 8 and ftargets = axis 1e8 9e8 6 in
  check_bool "not searchable" false
    (Protemp.Model.searchable (Protemp.Model.columns ~machine ~spec ftargets));
  let dt = D.create ~machine ~spec ~tstarts ~ftargets () in
  ignore (D.fill ~domains:1 dt);
  let r = replay ~machine ~spec ~tstarts ~ftargets in
  Alcotest.(check string)
    "the replay's table" r.csv
    (Protemp.Table.to_csv (D.to_table dt));
  check_int "the replay's closed-form cells" r.closed_form
    (D.closed_form_cells dt);
  check_bool "closed-form cells" true (r.closed_form > 0);
  check_int "the replay's frontier verdicts" r.verdicts (D.frontier_verdicts dt);
  check_bool "the replay's solver counters" true (D.solver_stats dt = r.conic)

(* Rows whose every cell is settled in closed form: big.LITTLE from 27
   to 60 C under the benchmark's eight ftargets.  {!Protemp.Model.rows}
   finds them in one pass over the thermal rows at the last column's
   point, with no start, and serves them with none, so
   - a fresh machine filled at 1 and at 2 domains gives the same table,
     byte for byte, and publishes one row set either way (and no ladder
     point: no cell needs a frontier);
   - a row allocates less than one {!Protemp.Model.prepare} of it: a
     fill that prepared every row again would allocate more;
   - every row is closed, and finding the closed rows allocates less
     than one prepare: the search prepares no start. *)
let allocated_words f =
  let once () =
    let minor0, promoted0, major0 = Gc.counters () in
    ignore (Sys.opaque_identity (f ()));
    let minor1, promoted1, major1 = Gc.counters () in
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  List.fold_left Float.min infinity (List.init 5 (fun _ -> once ()))

let test_closed_rows_not_prepared () =
  let tstarts = axis 27.0 60.0 34 and ftargets = axis 1e8 7e8 8 in
  let cells = Array.length tstarts * Array.length ftargets in
  let filled machine domains =
    let dt = D.create ~machine ~spec:fast_spec ~tstarts ~ftargets () in
    ignore (D.fill ~domains dt);
    dt
  in
  let fresh domains =
    let machine = Sim.Machine.biglittle () in
    let dt = filled machine domains in
    check_int
      (Printf.sprintf "%d domain(s): every cell in closed form" domains)
      cells (D.closed_form_cells dt);
    check_int
      (Printf.sprintf "%d domain(s): one row set" domains)
      1
      (Sim.Machine.cached_slots machine);
    Protemp.Table.to_csv (D.to_table dt)
  in
  Alcotest.(check string) "2 domains = 1 domain" (fresh 1) (fresh 2);
  let machine = Sim.Machine.biglittle () in
  ignore (filled machine 1);
  let per_row =
    allocated_words (fun () -> filled machine 1)
    /. float_of_int (Array.length tstarts)
  in
  let prepare =
    allocated_words (fun () ->
        Protemp.Model.prepare ~machine ~spec:fast_spec ~tstart:tstarts.(0))
  in
  check_bool
    (Printf.sprintf "%.0f words a row < %.0f words a prepare" per_row prepare)
    true (per_row < prepare);
  let columns = Protemp.Model.columns ~machine ~spec:fast_spec ftargets in
  let row = Protemp.Model.rows columns tstarts in
  let closed = ref 0 in
  while
    !closed < Array.length tstarts
    && (row !closed).Protemp.Model.closed_form = Array.length ftargets
  do
    incr closed
  done;
  check_int "every row closed" (Array.length tstarts) !closed;
  let search =
    allocated_words (fun () -> Protemp.Model.rows columns tstarts)
  in
  check_bool
    (Printf.sprintf "closed rows in %.0f words < one prepare (%.0f)" search
       prepare)
    true (search < prepare)

(* ------------------------------------------------------------------ *)
(* What a filled grid holds *)

(* Words [dt] holds beyond its machine and its table.  The machine is
   shared with every caller, and its cache of row sets grows on the
   first prepare, so it is measured at the same moment and taken
   out. *)
let words_beyond_table dt =
  Obj.reachable_words (Obj.repr dt)
  - Obj.reachable_words (Obj.repr (D.to_table dt))
  - Obj.reachable_words (Obj.repr (Lazy.force machine))

(* A filled grid keeps its table and nothing that grows with it: no
   solver state, seeds or memo.  What is left is the grid's record,
   its spec and the fill's counters (30 words), the same on a 3x3 grid
   and on the fleet benchmark's 19x9 serving grid (margin 5). *)
let test_filled_grid_holds_only_its_table () =
  let beyond dt =
    ignore (D.fill ~domains:2 dt);
    words_beyond_table dt
  in
  let small = beyond (cool_dense ()) in
  let served =
    beyond
      (D.create ~margin:5.0 ~machine:(Lazy.force machine) ~spec:fast_spec
         ~tstarts:(axis 27.0 100.0 19) ~ftargets:(axis 1e8 9e8 9) ())
  in
  check_int "independent of the grid's size" small served;
  check_bool (Printf.sprintf "%d words < 64" served) true (served < 64)

let () =
  Alcotest.run "dense_table"
    [
      ( "cells",
        [ Alcotest.test_case "create validation" `Quick test_create_validation ]
      );
      ( "fill",
        [
          Alcotest.test_case "stats and warm rate" `Slow
            test_fill_stats_and_warm_rate;
          Alcotest.test_case "domain invariance" `Slow
            test_fill_domain_invariance;
          QCheck_alcotest.to_alcotest prop_fill_matches_cold_cells;
          fill_matches_replay;
          Alcotest.test_case "fails closed" `Quick test_fill_fails_closed;
          Alcotest.test_case "closed rows are not prepared" `Quick
            test_closed_rows_not_prepared;
          Alcotest.test_case "not searchable falls back" `Quick
            test_not_searchable_fallback;
        ] );
      ( "serving",
        [
          Alcotest.test_case "whole-grid audit" `Slow test_audit_certifies_grid;
          Alcotest.test_case "served floor within the stated bound" `Slow
            test_served_floor_bound;
          Alcotest.test_case "no feasible interior-point cell" `Slow
            test_no_interior_point_cell;
        ] );
      ( "release",
        [
          Alcotest.test_case "filled grid holds only its table" `Slow
            test_filled_grid_holds_only_its_table;
        ] );
    ]
