(* Tests for the domain worker pool and the parallel, warm-started
   offline sweep: pool semantics (ordering, reuse, exceptions), the
   domain-count invariance of the table, and the thermal guarantee on
   warm-started cells. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine = lazy (Sim.Machine.niagara ())

(* Solver-bound tests below use a coarse constraint stride; the
   guarantee audit re-checks every cell at full resolution. *)
let fast_spec = { Protemp.Spec.default with Protemp.Spec.constraint_stride = 8 }

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_map_order () =
  List.iter
    (fun domains ->
      let r = Parallel.Pool.map ~domains (fun i -> i * i) 64 in
      check_int "length" 64 (Array.length r);
      Array.iteri (fun i v -> check_int "slot" (i * i) v) r)
    [ 1; 2; 4; 8 ]

let test_pool_reuse_across_batches () =
  Parallel.Pool.with_pool ~domains:3 (fun pool ->
      check_int "size" 3 (Parallel.Pool.size pool);
      let a = Parallel.Pool.map_rows pool (fun i -> i + 1) 10 in
      let b = Parallel.Pool.map_rows pool (fun i -> i * 2) 5 in
      check_bool "first batch" true (a = Array.init 10 (fun i -> i + 1));
      check_bool "second batch" true (b = Array.init 5 (fun i -> i * 2)))

let test_pool_edge_sizes () =
  check_bool "empty" true (Parallel.Pool.map ~domains:4 (fun i -> i) 0 = [||]);
  check_bool "single" true (Parallel.Pool.map ~domains:4 (fun i -> i) 1 = [| 0 |]);
  (* Sizes below 1 clamp to a sequential pool. *)
  check_bool "clamped" true
    (Parallel.Pool.map ~domains:0 (fun i -> i) 3 = [| 0; 1; 2 |])

let test_pool_propagates_first_exception () =
  match
    Parallel.Pool.map ~domains:4
      (fun i -> if i = 2 || i = 5 then failwith (string_of_int i) else i)
      8
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
      (* The batch drains fully, then the smallest failing index is
         re-raised. *)
      check_bool "first failure by index" true (msg = "2")

let test_pool_sequential_when_size_one () =
  (* A size-1 pool must run on the calling domain in index order. *)
  let trace = ref [] in
  let r =
    Parallel.Pool.map ~domains:1
      (fun i ->
        trace := i :: !trace;
        i)
    4
  in
  check_bool "results" true (r = [| 0; 1; 2; 3 |]);
  check_bool "in order on caller" true (!trace = [ 3; 2; 1; 0 ])

let test_parse_domains () =
  check_bool "plain" true (Parallel.Pool.parse_domains "4" = Some 4);
  check_bool "padded" true (Parallel.Pool.parse_domains " 8 " = Some 8);
  check_bool "zero" true (Parallel.Pool.parse_domains "0" = None);
  check_bool "negative" true (Parallel.Pool.parse_domains "-2" = None);
  check_bool "junk" true (Parallel.Pool.parse_domains "many" = None)

(* ------------------------------------------------------------------ *)
(* Parallel sweep *)

let tstarts = [| 40.0; 70.0; 100.0 |]
let ftargets = [| 3e8; 6e8; 9e8 |]

let sweep ?on_progress ~domains ~warm_starts () =
  Protemp.Offline.sweep ~machine:(Lazy.force machine) ~spec:fast_spec ~domains
    ~warm_starts ~tstarts ~ftargets ?on_progress ()

(* Tolerances are in Hz.  [mean_tol] bounds the difference of the cell
   means, [tol] every per-core entry. *)
let tables_equal ?(tol = 1e-9) ?(mean_tol = tol) a b =
  let ta = Protemp.Table.tstarts a and fa = Protemp.Table.ftargets a in
  Protemp.Table.tstarts b = ta
  && Protemp.Table.ftargets b = fa
  && Array.for_all
       (fun i ->
         Array.for_all
           (fun j ->
             match (Protemp.Table.cell a i j, Protemp.Table.cell b i j) with
             | Protemp.Table.Infeasible, Protemp.Table.Infeasible -> true
             | Protemp.Table.Frequencies x, Protemp.Table.Frequencies y ->
                 abs_float (Linalg.Vec.mean x -. Linalg.Vec.mean y) <= mean_tol
                 && Linalg.Vec.approx_equal ~tol x y
             | Protemp.Table.Infeasible, Protemp.Table.Frequencies _
             | Protemp.Table.Frequencies _, Protemp.Table.Infeasible -> false)
           (Array.init (Array.length fa) Fun.id))
       (Array.init (Array.length ta) Fun.id)

let parallel_table = lazy (sweep ~domains:4 ~warm_starts:true ())

let test_sweep_domain_count_invariant () =
  let seq = sweep ~domains:1 ~warm_starts:true () in
  check_bool "domains=4 equals domains=1" true
    (tables_equal seq (Lazy.force parallel_table))

let test_sweep_reports_every_cell () =
  let count = ref 0 in
  let m = Mutex.create () in
  let _ =
    sweep ~domains:4 ~warm_starts:true
      ~on_progress:(fun _ ->
        Mutex.lock m;
        incr count;
        Mutex.unlock m)
      ()
  in
  check_int "one progress report per cell"
    (Array.length tstarts * Array.length ftargets)
    !count

let test_sweep_warm_started_cells_keep_guarantee () =
  let audit =
    Protemp.Guarantee.audit_table ~machine:(Lazy.force machine) ~spec:fast_spec
      (Lazy.force parallel_table)
  in
  check_bool "cells checked" true (audit.Protemp.Guarantee.cells_checked > 0);
  check_bool
    (Printf.sprintf "margin %.4f >= 0" audit.Protemp.Guarantee.worst_margin)
    true
    (audit.Protemp.Guarantee.worst_margin >= -1e-9)

(* A direct warm-start exercise on a thermally tight row: solve a
   column, seed the next solve with its interior optimum, and check
   the warm-started solution still honours the cap and the floor. *)
let test_warm_start_direct () =
  let m = Lazy.force machine in
  let prepared = Protemp.Model.prepare ~machine:m ~spec:fast_spec ~tstart:85.0 in
  let first =
    Protemp.Model.solve (Protemp.Model.instantiate prepared ~ftarget:5e8)
  in
  match first with
  | Protemp.Model.Infeasible -> Alcotest.fail "cold cell expected feasible"
  | Protemp.Model.Feasible s -> (
      let warm = s.Protemp.Model.raw.Convex.Solve.x in
      let built = Protemp.Model.instantiate prepared ~ftarget:6e8 in
      match Protemp.Model.solve ~start:warm built with
      | Protemp.Model.Infeasible ->
          Alcotest.fail "warm-started cell expected feasible"
      | Protemp.Model.Feasible w ->
          let f = w.Protemp.Model.frequencies in
          check_bool "floor met" true (Linalg.Vec.sum f >= 8.0 *. 6e8 -. 8e6);
          let peak =
            Protemp.Guarantee.window_peak ~machine:m
              ~dfs_period:fast_spec.Protemp.Spec.dfs_period ~tstart:85.0
              ~frequencies:f
          in
          check_bool
            (Printf.sprintf "warm peak %.3f <= tmax" peak)
            true
            (peak <= fast_spec.Protemp.Spec.tmax +. 1e-9))

(* The compiled barrier backend must produce the same offline table as
   the reference Quad-walking oracle (to 1e-6 of full scale — the two
   walk different floating-point paths to the same optimum), and the
   reference table must pass the same thermal audit. *)
let test_sweep_backends_agree () =
  let m = Lazy.force machine in
  let run backend =
    Protemp.Offline.sweep ~machine:m ~spec:fast_spec ~domains:1 ~backend
      ~tstarts ~ftargets ()
  in
  let reference = run `Reference and compiled = run `Compiled in
  check_bool "tables agree to 1e-6 fmax" true
    (tables_equal ~tol:(1e-6 *. m.Sim.Machine.fmax) reference compiled);
  let audit =
    Protemp.Guarantee.audit_table ~machine:m ~spec:fast_spec reference
  in
  check_bool "cells checked" true (audit.Protemp.Guarantee.cells_checked > 0);
  check_bool
    (Printf.sprintf "reference margin %.4f >= 0"
       audit.Protemp.Guarantee.worst_margin)
    true
    (audit.Protemp.Guarantee.worst_margin >= -1e-9)

(* Conic against barrier.  The two solvers must agree on the optimum
   — the mean frequency, pinned by the binding throughput floor and
   the strictly convex power objective — to 1e-6 fmax.  The per-core
   split sits in a nearly flat valley (cores couple only through the
   shared floor and thermal rows), where two independent algorithms
   land within 1e-4 fmax of each other. *)
let solver_spec =
  { Protemp.Spec.default with Protemp.Spec.constraint_stride = 4 }

let solvers_agree ~machine ~tstarts ~ftargets =
  let sweep solver =
    Protemp.Offline.sweep ~machine ~spec:solver_spec ~solver ~domains:1
      ~warm_starts:false ~tstarts ~ftargets ()
  in
  let fmax = machine.Sim.Machine.fmax in
  let conic = sweep `Conic and barrier = sweep `Barrier in
  check_bool "conic and barrier tables agree" true
    (tables_equal ~mean_tol:(1e-6 *. fmax) ~tol:(1e-4 *. fmax) barrier conic);
  (conic, barrier)

let test_solvers_agree_niagara () =
  ignore
    (solvers_agree ~machine:(Lazy.force machine) ~tstarts:[| 27.0; 85.0 |]
       ~ftargets:[| 2e8; 5e8; 8e8 |])

(* The README quickstart cell, solved both ways. *)
let test_solvers_agree_quickstart () =
  let conic, _ =
    solvers_agree ~machine:(Lazy.force machine) ~tstarts:[| 85.0 |]
      ~ftargets:[| 600e6 |]
  in
  match Protemp.Table.cell conic 0 0 with
  | Protemp.Table.Frequencies _ -> ()
  | Protemp.Table.Infeasible ->
      Alcotest.fail "quickstart cell expected feasible"

(* The same agreement on the asymmetric big.LITTLE machine, where
   per-core frequency bounds and power laws flow through both solver
   backends: every stored frequency stays under its own core's
   ceiling, and the grid is not trivially all-infeasible. *)
let test_solvers_agree_biglittle () =
  let m = Sim.Machine.biglittle () in
  let conic, barrier =
    solvers_agree ~machine:m ~tstarts:[| 50.0; 80.0 |]
      ~ftargets:[| 1e8; 3e8 |]
  in
  let feasible = ref 0 in
  List.iter
    (fun table ->
      Array.iteri
        (fun i _ ->
          Array.iteri
            (fun j _ ->
              match Protemp.Table.cell table i j with
              | Protemp.Table.Infeasible -> ()
              | Protemp.Table.Frequencies f ->
                  incr feasible;
                  Array.iteri
                    (fun c hz ->
                      check_bool
                        (Printf.sprintf "cell (%d, %d) core %d under its fmax"
                           i j c)
                        true
                        (hz <= m.Sim.Machine.core_fmax.(c) +. 1e-3))
                    f)
            (Protemp.Table.ftargets table))
        (Protemp.Table.tstarts table))
    [ conic; barrier ];
  check_bool "some cell feasible" true (!feasible > 0)

(* The aggregated work counters are a pure function of the grid — the
   same whichever domain count runs it. *)
let test_sweep_stats_domain_invariant () =
  let run domains =
    snd
      (Protemp.Offline.sweep_with_stats ~machine:(Lazy.force machine)
         ~spec:fast_spec ~domains ~tstarts ~ftargets ())
  in
  let s1 = run 1 and s4 = run 4 in
  check_int "solves" s1.Protemp.Offline.solves s4.Protemp.Offline.solves;
  let b1 = s1.Protemp.Offline.barrier and b4 = s4.Protemp.Offline.barrier in
  check_int "centerings" b1.Convex.Barrier.centering_steps
    b4.Convex.Barrier.centering_steps;
  check_int "newton" b1.Convex.Barrier.newton_iterations
    b4.Convex.Barrier.newton_iterations;
  check_int "backtracks" b1.Convex.Barrier.backtracks
    b4.Convex.Barrier.backtracks;
  check_int "factorizations" b1.Convex.Barrier.factorizations
    b4.Convex.Barrier.factorizations;
  let c1 = s1.Protemp.Offline.conic and c4 = s4.Protemp.Offline.conic in
  check_int "conic iterations" c1.Convex.Conic.iterations
    c4.Convex.Conic.iterations;
  check_int "conic factorizations" c1.Convex.Conic.factorizations
    c4.Convex.Conic.factorizations;
  check_int "conic optimal" c1.Convex.Conic.optimal c4.Convex.Conic.optimal;
  check_bool "non-trivial" true (c1.Convex.Conic.iterations > 0)

(* Instantiating from a prepared context must yield the same problem
   as a from-scratch build, so the same optimum. *)
let test_instantiate_matches_build () =
  let m = Lazy.force machine in
  let prepared = Protemp.Model.prepare ~machine:m ~spec:fast_spec ~tstart:55.0 in
  let a = Protemp.Model.solve (Protemp.Model.instantiate prepared ~ftarget:6e8) in
  let b =
    Protemp.Model.solve
      (Protemp.Model.build ~machine:m ~spec:fast_spec ~tstart:55.0 ~ftarget:6e8)
  in
  match (a, b) with
  | Protemp.Model.Feasible x, Protemp.Model.Feasible y ->
      check_bool "same frequencies" true
        (Linalg.Vec.approx_equal ~tol:1e-9 x.Protemp.Model.frequencies
           y.Protemp.Model.frequencies)
  | _, _ -> Alcotest.fail "expected both feasible"

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "reuse across batches" `Quick
            test_pool_reuse_across_batches;
          Alcotest.test_case "edge sizes" `Quick test_pool_edge_sizes;
          Alcotest.test_case "first exception wins" `Quick
            test_pool_propagates_first_exception;
          Alcotest.test_case "sequential fallback" `Quick
            test_pool_sequential_when_size_one;
          Alcotest.test_case "PROTEMP_DOMAINS parsing" `Quick
            test_parse_domains;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "domain-count invariant" `Slow
            test_sweep_domain_count_invariant;
          Alcotest.test_case "progress covers every cell" `Slow
            test_sweep_reports_every_cell;
          Alcotest.test_case "warm-started cells keep the guarantee" `Slow
            test_sweep_warm_started_cells_keep_guarantee;
          Alcotest.test_case "warm start direct" `Slow test_warm_start_direct;
          Alcotest.test_case "backends agree" `Slow test_sweep_backends_agree;
          Alcotest.test_case "solvers agree (niagara)" `Slow
            test_solvers_agree_niagara;
          Alcotest.test_case "solvers agree (quickstart cell)" `Slow
            test_solvers_agree_quickstart;
          Alcotest.test_case "solvers agree (big.LITTLE)" `Slow
            test_solvers_agree_biglittle;
          Alcotest.test_case "stats domain-count invariant" `Slow
            test_sweep_stats_domain_invariant;
          Alcotest.test_case "instantiate matches build" `Slow
            test_instantiate_matches_build;
        ] );
    ]
