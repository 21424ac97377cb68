let default_tstarts = [| 27.0; 30.0; 40.0; 50.0; 60.0; 70.0; 80.0; 90.0; 100.0 |]

let default_ftargets =
  Array.init 10 (fun i -> float_of_int (i + 1) *. 100.0 *. 1e6)

type progress = {
  tstart : float;
  ftarget : float;
  outcome : [ `Feasible | `Infeasible | `Pruned ];
  seconds : float;
}

type sweep_stats = {
  solves : int;
  barrier : Convex.Barrier.stats;
  conic : Convex.Conic.stats;
}

let sweep_stats_zero =
  {
    solves = 0;
    barrier = Convex.Barrier.stats_zero;
    conic = Convex.Conic.stats_zero;
  }

let sweep_stats_add a b =
  {
    solves = a.solves + b.solves;
    barrier = Convex.Barrier.stats_add a.barrier b.barrier;
    conic = Convex.Conic.stats_add a.conic b.conic;
  }

let solve_point ?solver ?options ?backend ~machine ~spec ~tstart ~ftarget () =
  Model.solve ?solver ?options ?backend
    (Model.build ~machine ~spec ~tstart ~ftarget)

(* One table row: prepare the [(machine, spec, tstart)] context once,
   then walk the [ftarget] columns upward, seeding each solve from the
   previous feasible cell's interior optimum and pruning everything
   above the first infeasible target (infeasibility is monotone in
   [ftarget]).  The row is a pure function of its inputs — column
   order is sequential within the row — so the table is the same
   whichever domain runs it, and however many domains run at once. *)
let sweep_row ?solver ?options ?backend ~machine ~spec ~ftargets ~warm_starts
    ~report tstart =
  let prepared = Model.prepare ~machine ~spec ~tstart in
  let infeasible_from = ref None in
  let warm = ref None in
  (* One conic workspace serves the whole row: the per-column
     instances share their structure (only the floor constant moves),
     and it carries each cell's working set (see Model.solve).  Only
     materialized when the conic solver actually runs. *)
  let conic_ws = ref None in
  let bstats = ref Convex.Barrier.stats_zero in
  let cstats = ref Convex.Conic.stats_zero in
  let solves = ref 0 in
  let cells =
    Array.map
      (fun ftarget ->
        match !infeasible_from with
        | Some f0 when ftarget >= f0 ->
            report { tstart; ftarget; outcome = `Pruned; seconds = 0.0 };
            Table.Infeasible
        | Some _ | None -> (
            let t0 = Unix.gettimeofday () in
            let built = Model.instantiate prepared ~ftarget in
            incr solves;
            let ws =
              match (solver, !conic_ws) with
              | Some `Barrier, _ -> None
              | _, (Some _ as w) -> w
              | _, None ->
                  let w =
                    Convex.Conic.make_workspace
                      ~kkt:(`Blocks (Model.conic_blocks built.Model.layout))
                      (Lazy.force built.Model.conic)
                  in
                  conic_ws := Some w;
                  !conic_ws
            in
            match
              Model.solve ?solver ?options ?backend ~stats_into:bstats
                ~conic_stats_into:cstats ?conic_ws:ws ?start:!warm built
            with
            | Model.Feasible s ->
                (* The optimum seeds the next column's working set
                   (Model.solve starts its iterate cold); the
                   multipliers are not passed on. *)
                if warm_starts then warm := Some s.Model.raw.Convex.Solve.x;
                report
                  { tstart; ftarget; outcome = `Feasible;
                    seconds = Unix.gettimeofday () -. t0 };
                Table.Frequencies s.Model.frequencies
            | Model.Infeasible ->
                infeasible_from := Some ftarget;
                report
                  { tstart; ftarget; outcome = `Infeasible;
                    seconds = Unix.gettimeofday () -. t0 };
                Table.Infeasible))
      ftargets
  in
  (cells, { solves = !solves; barrier = !bstats; conic = !cstats })

(* Warm starts default on: the neighbouring column's optimum seeds the
   cell's working set with the thermal rows binding there, and the
   conic iterate starts cold.  On the default 9x10 axes at stride 2
   seeded solves take 820 factorizations against 841 cold; seeding the
   iterate as well took 907 (DESIGN.md 6p).  (On the reference barrier
   path the seed is the barrier's start point, and the effect stays
   within noise — the start hint already skips phase I on almost
   every cell.) *)
let sweep_with_stats ?solver ?options ?backend ?domains ?(warm_starts = true)
    ?(tstarts = default_tstarts) ?(ftargets = default_ftargets) ?on_progress
    ~machine ~spec () =
  let domains =
    match domains with Some d -> d | None -> Parallel.Pool.default_domains ()
  in
  let report =
    match on_progress with
    | None -> fun _ -> ()
    | Some f ->
        if domains <= 1 then f
        else
          (* Rows complete out of order; serialize the callback so
             user code (typically terminal logging) never runs
             concurrently with itself. *)
          let m = Mutex.create () in
          fun p ->
            Mutex.lock m;
            Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> f p)
  in
  let rows =
    Parallel.Pool.map ~domains
      (fun i ->
        sweep_row ?solver ?options ?backend ~machine ~spec ~ftargets
          ~warm_starts ~report tstarts.(i))
      (Array.length tstarts)
  in
  let stats =
    Array.fold_left
      (fun acc (_, s) -> sweep_stats_add acc s)
      sweep_stats_zero rows
  in
  (Table.make ~tstarts ~ftargets (Array.map fst rows), stats)

let sweep ?solver ?options ?backend ?domains ?warm_starts ?tstarts ?ftargets
    ?on_progress ~machine ~spec () =
  fst
    (sweep_with_stats ?solver ?options ?backend ?domains ?warm_starts ?tstarts
       ?ftargets ?on_progress ~machine ~spec ())

let frontier_point ?options ?backend ~machine ~spec ~tstart () =
  Model.solve_frontier ?options ?backend
    (Model.build_frontier ~machine ~spec ~tstart)

let max_feasible_ftarget ?options ?backend ~machine ~spec ~tstart () =
  match frontier_point ?options ?backend ~machine ~spec ~tstart () with
  | Model.Feasible s ->
      Some (Linalg.Vec.mean s.Model.frequencies)
  | Model.Infeasible -> None
