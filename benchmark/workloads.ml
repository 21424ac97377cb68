(* The four workloads.  Each builds its inputs from the seed, times
   repeated runs of one pipeline stage for the requested seconds,
   checks the outputs, and (traced) splits the time across the
   library's layers from outside.  See README.md for why each exists. *)

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  fast : bool;
  domains : int;  (** The host's domain count (nproc). *)
  tmpdir : string;
  calib : Calib.t;
}

type metric = { name : string; unit_ : string; value : float }

type outcome = {
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;  (** Empty unless traced. *)
  detail : (string * Json.t) list;
  spans : Spans.t option;  (** The traced build's spans. *)
}

let m name unit_ value = { name; unit_; value }
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

type checks = { mutable list : (string * bool) list }

let check c name ok =
  log "  [%s] %s" (if ok then " ok " else "FAIL") name;
  c.list <- (name, ok) :: c.list

let peak_rss_mb () =
  match
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | Some l when String.starts_with ~prefix:"VmHWM:" l -> Some l
          | Some _ -> go ()
          | None -> None
        in
        go ())
  with
  | Some l -> Scanf.sscanf l "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
  | None | (exception Sys_error _) -> nan

(* A timing sample: measured seconds and the host-speed factor around
   it (Calib); [calibrated] is what the end-to-end metrics use. *)
let calibrated = Array.map (fun (s, speed) -> s *. speed)
let raw = Array.map fst
let speeds = Array.map snd

(* Set up [k] times from scratch and keep the last; the median of the
   [k] calibrated times is [setup_s].  [timed ()] returns the set-up,
   its seconds and its host-speed factor.  Set-ups of a second or more
   start after a compaction, like the timed repetitions; the table
   workloads' set-up (building the machine) takes tens of
   microseconds, so it runs [k] times back to back instead. *)
let repeat_setup ?(compact = true) k timed =
  let last = ref None in
  let samples =
    Array.init k (fun _ ->
        last := None;
        if compact then Gc.compact ();
        let r, s, speed = timed () in
        last := Some r;
        (s, speed))
  in
  (Option.get !last, samples)

let machine_setups = 21

(* Row blocks per table build (Pipeline.build_table). *)
let table_blocks = 10

let describe_samples name samples =
  [
    (name, Summary.describe (calibrated samples));
    (name ^ "_raw", Summary.describe (raw samples));
    (name ^ "_host_speed", Summary.describe (speeds samples));
  ]

(* Repetitions until [seconds] have passed (at least [min_reps]).  Each
   starts after a compaction, with the previous repetition's grid or
   result dropped; [f k] times its own stage and returns the
   seconds.  Peak RSS is read after repetition [min_reps], a count every
   run reaches: OCaml 5.1's compaction does not hand memory back to the
   system, so each further repetition can raise the peak a little (10 MB
   on table.niagara), and the peak would follow the host's speed. *)
let timed_reps cfg ~min_reps f =
  let stop = Clock.now_ns () + int_of_float (cfg.seconds *. 1e9) in
  let times = ref [] and k = ref 0 in
  while !k < min_reps || Clock.now_ns () < stop do
    Gc.compact ();
    times := f !k :: !times;
    incr k
  done;
  Array.of_list (List.rev !times)

let median = Summary.median
let ms s = s *. 1e3
let pct part whole = 100.0 *. part /. whole
let ns_of_samples s = Summary.to_floats s
let total_s s = float_of_int (Summary.total_ns s) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Per-layer metrics.  Every workload fills a table (timed on table.*,
   as set-up on chip.trace and fleet.serve), so the build layers come
   from the traced replay of that fill; the serving layers come from
   the workload's own serving run, or from a small probe run on the
   table it built when it serves nothing itself. *)

type build_layers = {
  machine_build_s : float;
  fill_s : float;  (** Untraced 1-domain fill, calibrated. *)
  replay_speed : float;  (** Host-speed factor around the replay. *)
  built : Pipeline.built;
  replay : Pipeline.replay;
  replay_spans : Spans.t;
  audit : Pipeline.audit;
  speedup : float;
}

let build_metrics b =
  let layers = Spans.aggregate b.replay_spans in
  let l name = Spans.find layers name in
  let total name = float_of_int (l name).Spans.total_ns *. 1e-9 in
  let pctl name p = Summary.percentile (l name).Spans.durations_ns p *. 1e-6 in
  let replayed =
    List.fold_left
      (fun acc n -> acc +. total n)
      0.0
      [
        "protemp.model.prepare";
        "protemp.model.conic_pack";
        "convex.conic.make_workspace";
        "protemp.model.instantiate";
        "protemp.model.solve";
      ]
  in
  let st = b.replay.Pipeline.r_stats and c = b.replay.Pipeline.conic in
  let warm = st.Protemp.Dense_table.warm_hits in
  let fi = float_of_int in
  [
    m "thermal.machine_build_ms" "ms" (ms b.machine_build_s);
    m "protemp.model.prepare.count" "count" (fi (l "protemp.model.prepare").Spans.count);
    m "protemp.model.prepare.total_s" "s" (total "protemp.model.prepare");
    m "protemp.model.prepare.p90_ms" "ms" (pctl "protemp.model.prepare" 90.0);
    m "protemp.model.conic_pack.total_s" "s" (total "protemp.model.conic_pack");
    m "convex.conic.make_workspace.total_s" "s" (total "convex.conic.make_workspace");
    m "protemp.model.instantiate.total_s" "s" (total "protemp.model.instantiate");
    m "protemp.model.solve.count" "count" (fi (l "protemp.model.solve").Spans.count);
    m "protemp.model.solve.total_s" "s" (total "protemp.model.solve");
    m "protemp.model.solve.p50_ms" "ms" (pctl "protemp.model.solve" 50.0);
    m "protemp.model.solve.p99_ms" "ms" (pctl "protemp.model.solve" 99.0);
    m "protemp.dense_table.fill_s" "s" b.fill_s;
    m "protemp.dense_table.unaccounted_s" "s"
      (b.fill_s -. (replayed *. b.replay_speed));
    m "protemp.dense_table.solves" "count" (fi st.Protemp.Dense_table.solves);
    m "protemp.dense_table.warm_hits" "count" (fi warm);
    m "protemp.dense_table.pruned" "count" (fi st.Protemp.Dense_table.pruned);
    m "protemp.dense_table.feasible" "count" (fi st.Protemp.Dense_table.feasible);
    m "protemp.dense_table.warm_hit_rate" "ratio"
      (fi warm /. fi st.Protemp.Dense_table.solves);
    m "protemp.dense_table.pruned_fraction" "ratio"
      (fi st.Protemp.Dense_table.pruned /. fi st.Protemp.Dense_table.cells);
    m "convex.conic.iterations" "count" (fi c.Convex.Conic.iterations);
    m "convex.conic.factorizations" "count" (fi c.Convex.Conic.factorizations);
    m "convex.conic.jitter_retries" "count" (fi c.Convex.Conic.jitter_retries);
    m "convex.conic.unknown" "count" (fi c.Convex.Conic.unknown);
    m "convex.conic.primal_infeasible" "count" (fi c.Convex.Conic.primal_infeasible);
    m "convex.conic.iterations_per_solve.warm" "count"
      (fi b.replay.Pipeline.warm_iterations /. fi (Stdlib.max 1 warm));
    m "convex.conic.iterations_per_solve.cold" "count"
      (fi b.replay.Pipeline.cold_iterations
      /. fi (Stdlib.max 1 b.replay.Pipeline.cold_solves));
    m "protemp.table_store.write_ms" "ms" (ms b.built.Pipeline.write_s);
    m "protemp.table_store.open_ms" "ms" (ms b.built.Pipeline.open_s);
    m "protemp.table_store.bytes" "bytes" (fi b.built.Pipeline.bytes);
    m "protemp.guarantee.audit_s" "s" b.audit.Pipeline.audit_s;
    m "protemp.guarantee.worst_margin_c" "C" b.audit.Pipeline.worst_margin;
    m "parallel.pool.speedup" "ratio" b.speedup;
  ]

(* The serving layers: [engine] is a one-chip run, [fleet] a cluster
   run; [gen_ns_per_task] the trace generator's cost. *)
let serve_metrics ~machine ~store ~(engine : Pipeline.served)
    ~(fleet : Pipeline.served) ~gen_ns_per_task ~(decide_from : Pipeline.served) =
  let stepper, record, refresh, lookup = Pipeline.isolated ~machine ~store in
  let p50 s = Summary.percentile (ns_of_samples s) 50.0 in
  let p99 s = Summary.percentile (ns_of_samples s) 99.0 in
  let per_step (s : Pipeline.served) =
    Pipeline.loop_self_s s *. 1e9 /. float_of_int s.Pipeline.steps
  in
  [
    m "thermal.stepper_step_ns" "ns" stepper;
    m "sim.stats.record_step_ns" "ns" record;
    m "sim.machine.refresh_core_power_ns" "ns" refresh;
    m "protemp.table_store.lookup_ns" "ns" lookup;
    m "sim.engine.ns_per_step" "ns" (per_step engine);
    m "protemp.controller.decide.p50_ns" "ns" (p50 decide_from.Pipeline.decide);
    m "protemp.controller.decide.p99_ns" "ns" (p99 decide_from.Pipeline.decide);
    m "sim.policy.choose.p50_ns" "ns" (p50 decide_from.Pipeline.choose);
    m "fleet.cluster.ns_per_chip_step" "ns" (per_step fleet);
    m "fleet.balancer.choose.p50_ns" "ns" (p50 fleet.Pipeline.route);
    m "workload.trace_generate_ns_per_task" "ns" gen_ns_per_task;
  ]

(* Self time of the traced repetition by layer, as shares of it. *)
(* [rep_s] is the traced repetition, raw; [speed] its host-speed
   factor; [untraced_s] the untraced repetition, calibrated. *)
let split_metrics ~rep_s ~speed ~untraced_s shares =
  let get k = Option.value ~default:0.0 (List.assoc_opt k shares) in
  let keys =
    [
      "protemp.model.solve";
      "protemp.model.prepare";
      "protemp.model.instantiate";
      "protemp.model.conic_pack";
      "convex.conic.make_workspace";
      "protemp.dense_table";
      "protemp.table_store";
      "sim.engine";
      "protemp.controller";
      "sim.policy";
      "fleet.cluster";
      "fleet.balancer";
    ]
  in
  let named = List.fold_left (fun acc k -> acc +. get k) 0.0 keys in
  List.map (fun k -> m ("split." ^ k ^ "_pct") "%" (pct (get k) rep_s)) keys
  @ [
      m "split.unaccounted_pct" "%" (pct (rep_s -. named) rep_s);
      m "trace.rep_s" "s" rep_s;
      m "trace.overhead" "ratio" (rep_s *. speed /. untraced_s);
    ]

let log_split shares rep_s =
  log "  split of the traced repetition (%.3f s):" rep_s;
  List.iter
    (fun (k, s) -> log "    %-32s %9.4f s  %5.1f%%" k s (pct s rep_s))
    shares;
  let named = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 shares in
  log "    %-32s %9.4f s  %5.1f%%" "unaccounted" (rep_s -. named)
    (pct (rep_s -. named) rep_s)

(* Self seconds of the table-build layers within one span tree. *)
let build_shares sp =
  let layers = Spans.aggregate sp in
  let self n = float_of_int (Spans.find layers n).Spans.self_ns *. 1e-9 in
  [
    ("protemp.model.solve", self "protemp.model.solve");
    ("protemp.model.prepare", self "protemp.model.prepare");
    ("protemp.model.instantiate", self "protemp.model.instantiate");
    ("protemp.model.conic_pack", self "protemp.model.conic_pack");
    ("convex.conic.make_workspace", self "convex.conic.make_workspace");
    ( "protemp.dense_table",
      self "protemp.dense_table.fill" +. self "protemp.dense_table.to_table" );
    ( "protemp.table_store",
      self "protemp.table_store.write" +. self "protemp.table_store.open_file" );
  ]

let serve_shares ~loop (s : Pipeline.served) =
  [
    (loop, Pipeline.loop_self_s s);
    ("protemp.controller", total_s s.Pipeline.decide);
    ("sim.policy", total_s s.Pipeline.choose);
  ]
  @ if s.Pipeline.route.Summary.len > 0 then
      [ ("fleet.balancer", total_s s.Pipeline.route) ]
    else []

(* The probes a workload runs for the serving layers it does not run
   itself: a 6000-task chip and an 8-chip, 4000-task fleet, served from
   the workload's own table. *)
let probe_trace ~seed ~n_cores ~n_tasks =
  Workload.Trace.generate ~n_cores ~seed:(Int64.of_int seed) ~n_tasks
    Workload.Mix.paper_mix

let engine_probe cfg ~machine ~store =
  let trace, gen_s =
    Clock.time (fun () ->
        probe_trace ~seed:cfg.seed ~n_cores:machine.Sim.Machine.n_cores
          ~n_tasks:6000)
  in
  (Pipeline.traced_engine ~machine ~store trace, gen_s *. 1e9 /. 6000.0)

let fleet_probe cfg ~machine ~store =
  let chips = 8 in
  let trace =
    probe_trace ~seed:cfg.seed
      ~n_cores:(chips * machine.Sim.Machine.n_cores / 2)
      ~n_tasks:4000
  in
  Pipeline.traced_fleet ~chips ~machine ~store trace

(* ------------------------------------------------------------------ *)
(* The build-side checks and counts every workload shares: the same
   grid at 1 and nproc domains, the image serving that grid, and the
   audit against the true tmax. *)

let spec_tmax = Pipeline.spec.Protemp.Spec.tmax

let check_build c cfg ~machine ~margin ~tstarts ~ftargets ~reference =
  let par =
    Pipeline.build_table ~calib:cfg.calib ~tmpdir:cfg.tmpdir ~machine ~margin
      ~tstarts ~ftargets ~domains:cfg.domains ()
  in
  check c
    (Printf.sprintf "table grid byte-identical at 1 and %d domains" cfg.domains)
    (Pipeline.grid_digest par.Pipeline.table = reference);
  check c "store image serves the built grid"
    (Pipeline.grid_digest (Protemp.Table_store.to_table par.Pipeline.store) = reference);
  let a = Pipeline.audit ~machine par.Pipeline.table in
  log "  audit: worst margin %.4f C against tmax %.0f C (%.2f s)"
    a.Pipeline.worst_margin spec_tmax a.Pipeline.audit_s;
  check c "audit worst margin >= -0.01 C against the true tmax"
    (a.Pipeline.worst_margin >= Pipeline.margin_tolerance);
  (par, a)

let trace_build cfg c ~machine ~margin ~tstarts ~ftargets ~reference
    ~expected =
  let sp = Spans.create () in
  Gc.compact ();
  let (replay, _store), rep_s =
    Clock.time (fun () ->
        Spans.with_span sp "rep" (fun () ->
            Pipeline.replay_build sp ~calib:cfg.calib ~blocks:table_blocks
              ~tmpdir:cfg.tmpdir ~machine ~margin ~tstarts ~ftargets))
  in
  check c "traced replay grid equals the untraced fill"
    (Pipeline.grid_digest replay.Pipeline.r_table = reference);
  check c "traced replay counts equal the fill's" (replay.Pipeline.r_stats = expected);
  (replay, sp, rep_s, replay.Pipeline.r_speed)

let fill_detail (s : Protemp.Dense_table.fill_stats) =
  Json.Object
    [
      ("cells", Json.Int s.Protemp.Dense_table.cells);
      ("solves", Json.Int s.Protemp.Dense_table.solves);
      ("warm_hits", Json.Int s.Protemp.Dense_table.warm_hits);
      ("pruned", Json.Int s.Protemp.Dense_table.pruned);
      ("feasible", Json.Int s.Protemp.Dense_table.feasible);
    ]

(* ------------------------------------------------------------------ *)
(* table.niagara and table.biglittle: the Phase-1 build on one domain,
   timed in row blocks (Pipeline.build_table), then written as a store
   image and opened. *)

let table_workload cfg ~name ~machine_of ~tstarts ~ftargets ~min_reps ~golden =
  let c = { list = [] } in
  let rows = Array.length tstarts and cols = Array.length ftargets in
  let cells = rows * cols in
  log "%s: %dx%d grid in %d row blocks, stride %d, margin 0" name rows cols
    table_blocks Pipeline.spec.Protemp.Spec.constraint_stride;
  (* Set-up is building the machine: tens of microseconds, so it is
     sampled many times, spread over the whole run (before every
     block) so that a burst of host contention cannot move every
     sample at once. *)
  let machine = machine_of () in
  let setups = ref [] in
  let between () =
    let _, s =
      repeat_setup ~compact:false machine_setups (fun () ->
          Calib.time cfg.calib machine_of)
    in
    setups := Array.to_list s @ !setups
  in
  let reference = ref "" and fill_stats = ref None and identical = ref true in
  let fill_times = ref [] and blocks = ref [] and tails = ref [] in
  let rss = ref nan in
  let reps =
    timed_reps cfg ~min_reps (fun k ->
        let b =
          Pipeline.build_table ~blocks:table_blocks ~between ~calib:cfg.calib
            ~tmpdir:cfg.tmpdir ~machine ~margin:0.0 ~tstarts ~ftargets ~domains:1
            ()
        in
        let grid = Pipeline.grid_digest b.Pipeline.table in
        if k = 0 then begin
          reference := grid;
          fill_stats := Some b.Pipeline.fill_stats
        end
        else if grid <> !reference then identical := false;
        fill_times :=
          (b.Pipeline.fill_s, Pipeline.calibrated_fill b) :: !fill_times;
        blocks :=
          Array.to_list
            (Array.map2 (fun s v -> (s, v)) b.Pipeline.block_s b.Pipeline.block_speed)
          @ !blocks;
        tails := (b.Pipeline.tail_s, b.Pipeline.tail_speed) :: !tails;
        if k = min_reps - 1 then rss := peak_rss_mb ();
        log "  rep %d: %.3f s" k (b.Pipeline.fill_s +. b.Pipeline.tail_s);
        b.Pipeline.fill_s +. b.Pipeline.tail_s)
  in
  let rss = !rss in
  let setups = Array.of_list !setups and blocks = Array.of_list !blocks in
  let tails = Array.of_list !tails in
  (* One build: every block at the median block time, plus the
     merge-write-open tail. *)
  let build_of blocks tails =
    (float_of_int table_blocks *. median blocks) +. median tails
  in
  let build_s = build_of (calibrated blocks) (calibrated tails) in
  let fill_stats = Option.get !fill_stats in
  let fill_times = Array.of_list !fill_times in
  check c "every repetition builds the same grid" !identical;
  let par, audit =
    check_build c cfg ~machine ~margin:0.0 ~tstarts ~ftargets
      ~reference:!reference
  in
  let fs = fill_stats in
  log "  fill: %d solves, %d warm hits, %d pruned, %d feasible" fs.Protemp.Dense_table.solves
    fs.Protemp.Dense_table.warm_hits fs.Protemp.Dense_table.pruned
    fs.Protemp.Dense_table.feasible;
  (match golden with
  | Some (solves, warm_hits, pruned, feasible) ->
      check c
        (Printf.sprintf "fill counts equal the golden %d/%d/%d/%d" solves
           warm_hits pruned feasible)
        (fs.Protemp.Dense_table.solves = solves
        && fs.Protemp.Dense_table.warm_hits = warm_hits
        && fs.Protemp.Dense_table.pruned = pruned
        && fs.Protemp.Dense_table.feasible = feasible)
  | None -> ());
  let table = par.Pipeline.table in
  let per_layer, spans =
    if not cfg.trace then ([], None)
    else begin
      let replay, sp, rep_s, speed =
        trace_build cfg c ~machine ~margin:0.0 ~tstarts ~ftargets
          ~reference:!reference ~expected:fill_stats
      in
      let store = par.Pipeline.store in
      let engine, gen_ns = engine_probe cfg ~machine ~store in
      let fleet = fleet_probe cfg ~machine ~store in
      let shares = build_shares sp in
      log_split shares rep_s;
      ( build_metrics
          {
            machine_build_s = median (raw setups);
            fill_s = median (Array.map snd fill_times);
            replay_speed = speed;
            built = par;
            replay;
            replay_spans = sp;
            audit;
            speedup = median (Array.map fst fill_times) /. par.Pipeline.fill_s;
          }
        @ serve_metrics ~machine ~store ~engine ~fleet ~gen_ns_per_task:gen_ns
            ~decide_from:engine
        @ split_metrics ~rep_s ~speed ~untraced_s:build_s shares,
        Some sp )
    end
  in
  check c "peak RSS readable" (Float.is_finite rss);
  {
    checks = List.rev c.list;
    attempted = cells;
    failed = audit.Pipeline.failed_cells;
    end_to_end =
      [
        m "setup_s" "s" (median (calibrated setups));
        m "throughput_per_s" "1/s" (float_of_int cells /. build_s);
        m "peak_rss_mb" "MB" rss;
      ];
    per_layer;
    detail =
      [
        ("build_s", Json.Float build_s);
        ("build_raw_s", Json.Float (build_of (raw blocks) (raw tails)));
        ("rep_s", Summary.describe reps);
        ("fill_nproc_s", Json.Float par.Pipeline.fill_s);
        ( "simulated",
          Json.Object
            [
              ("fill", fill_detail fill_stats);
              ("mean_cell_power_w", Json.Float (Pipeline.mean_cell_power machine table));
              ("audit_worst_margin_c", Json.Float audit.Pipeline.worst_margin);
            ] );
      ]
      @ describe_samples "block_s" blocks
      @ describe_samples "tail_s" tails
      @ describe_samples "setup_s" setups;
    spans;
  }

(* ------------------------------------------------------------------ *)
(* chip.trace and fleet.serve share their set-up: the guard-banded
   (margin 5 C) 74x9 Niagara table the serving controllers poll (19x9
   at --fast sizes), written and opened as a store image, plus a
   paper_mix trace from the seed. *)

let served_margin = 5.0
let serve_reps = 3

type setup = {
  machine : Sim.Machine.t;
  built : Pipeline.built;
  trace : Workload.Trace.t;
  trace_s : float;
}

(* One set-up, its seconds, and its host-speed factor.  The table is
   built in row blocks like the table workloads', so the calibration
   follows the host at about 0.1 s granularity instead of once per
   second-long set-up. *)
let serve_setup cfg ~tstarts ~ftargets ~n_tasks ~trace_cores () =
  let machine, machine_s, machine_speed =
    Calib.time cfg.calib Sim.Machine.niagara
  in
  let built =
    Pipeline.build_table ~blocks:table_blocks ~calib:cfg.calib
      ~tmpdir:cfg.tmpdir ~machine ~margin:served_margin ~tstarts ~ftargets
      ~domains:1 ()
  in
  let trace, trace_s, trace_speed =
    Calib.time cfg.calib (fun () ->
        Workload.Trace.generate ~n_cores:trace_cores
          ~seed:(Int64.of_int cfg.seed) ~n_tasks Workload.Mix.paper_mix)
  in
  let parts =
    Array.append
      [|
        (machine_s, machine_speed);
        (built.Pipeline.tail_s, built.Pipeline.tail_speed);
        (trace_s, trace_speed);
      |]
      (Array.map2 (fun s v -> (s, v)) built.Pipeline.block_s
         built.Pipeline.block_speed)
  in
  let sum a = Array.fold_left ( +. ) 0.0 a in
  let raw_s = sum (raw parts) in
  ({ machine; built; trace; trace_s }, raw_s, sum (calibrated parts) /. raw_s)

let serving_workload cfg ~name ~n_tasks ~trace_cores ~rep ~work_of
    ~equal ~extra_checks ~traced ~probe =
  let c = { list = [] } in
  log "%s: %d tasks" name n_tasks;
  let served_tstarts = Pipeline.axis 27.0 100.0 (if cfg.fast then 19 else 74) in
  let served_ftargets = Pipeline.axis 1e8 9e8 9 in
  let s, setups =
    repeat_setup
      (if cfg.fast then 2 else 3)
      (serve_setup cfg ~tstarts:served_tstarts ~ftargets:served_ftargets
         ~n_tasks ~trace_cores)
  in
  let store = s.built.Pipeline.store and machine = s.machine in
  let reference = Pipeline.grid_digest s.built.Pipeline.table in
  let first = ref None and identical = ref true and samples = ref [] in
  let rss = ref nan in
  let reps =
    timed_reps cfg ~min_reps:serve_reps (fun k ->
        let r, secs, speed =
          Calib.time cfg.calib (fun () -> rep ~machine ~store s.trace)
        in
        (match !first with
        | None -> first := Some r
        | Some f -> if not (equal f r) then identical := false);
        samples := (secs /. float_of_int (work_of r), speed) :: !samples;
        if k = serve_reps - 1 then rss := peak_rss_mb ();
        secs)
  in
  let rss = !rss in
  (* Per repetition: seconds per unit of work, and its host speed. *)
  let samples = Array.of_list !samples in
  let rates = Array.map (fun s -> 1.0 /. s) (calibrated samples) in
  let first = Option.get !first in
  log "  %d repetitions, median %.4f s, %.4g per second" (Array.length reps)
    (median reps) (median rates);
  check c "every repetition reports identical statistics" !identical;
  let stats, unfinished, parallel_s = extra_checks c ~machine ~store s.trace first in
  let par, audit =
    check_build c cfg ~machine ~margin:served_margin ~tstarts:served_tstarts
      ~ftargets:served_ftargets ~reference
  in
  let violations = Sim.Stats.violation_steps stats in
  check c "zero steps above tmax" (violations = 0);
  check c "every task finishes" (unfinished = 0);
  let p q = Sim.Stats.waiting_percentile stats q *. 1e3 in
  log "  waiting p50 %.3f ms, p99 %.3f ms; energy %.1f J; %d violating steps"
    (p 0.5) (p 0.99) (Sim.Stats.energy stats) violations;
  let per_layer, spans =
    if not cfg.trace then ([], None)
    else begin
      (* The set-up fill, replayed under spans. *)
      let build_sp = Spans.create () in
      let replay, _ =
        Pipeline.replay_build build_sp ~calib:cfg.calib ~blocks:table_blocks
          ~tmpdir:cfg.tmpdir ~machine
          ~margin:served_margin ~tstarts:served_tstarts ~ftargets:served_ftargets
      in
      check c "traced replay grid equals the untraced fill"
        (Pipeline.grid_digest replay.Pipeline.r_table = reference);
      check c "traced replay counts equal the fill's"
        (replay.Pipeline.r_stats = s.built.Pipeline.fill_stats);
      Gc.compact ();
      let served, _, served_speed =
        Calib.time cfg.calib (fun () -> traced ~machine ~store s.trace)
      in
      check c "traced repetition reports the untraced statistics"
        (Sim.Stats.equal served.Pipeline.stats stats);
      let engine, fleet, loop = probe cfg ~machine ~store served in
      let shares = serve_shares ~loop served in
      log_split shares served.Pipeline.run_s;
      let _, machine_builds =
        repeat_setup ~compact:false machine_setups (fun () ->
            Calib.time cfg.calib Sim.Machine.niagara)
      in
      let build =
        {
          machine_build_s = median (raw machine_builds);
          fill_s = Pipeline.calibrated_fill s.built;
          replay_speed = replay.Pipeline.r_speed;
          built = s.built;
          replay;
          replay_spans = build_sp;
          audit;
          speedup =
            (match parallel_s with
            | Some par_s -> median reps /. par_s
            | None -> s.built.Pipeline.fill_s /. par.Pipeline.fill_s);
        }
      in
      ( build_metrics build
        @ serve_metrics ~machine ~store ~engine ~fleet
            ~gen_ns_per_task:(s.trace_s *. 1e9 /. float_of_int n_tasks)
            ~decide_from:served
        @ split_metrics ~rep_s:served.Pipeline.run_s ~speed:served_speed
            ~untraced_s:(float_of_int (work_of first) /. median rates)
            shares,
        Some build_sp )
    end
  in
  check c "peak RSS readable" (Float.is_finite rss);
  {
    checks = List.rev c.list;
    attempted = n_tasks;
    failed = unfinished;
    end_to_end =
      [
        m "setup_s" "s" (median (calibrated setups));
        m "throughput_per_s" "1/s" (median rates);
        m "peak_rss_mb" "MB" rss;
      ];
    per_layer;
    detail =
      [
        ("rep_s", Summary.describe reps);
        ("rate_per_s", Summary.describe rates);
        ( "rate_per_s_raw",
          Summary.describe (Array.map (fun s -> 1.0 /. s) (raw samples)) );
        ("rep_host_speed", Summary.describe (speeds samples));
        ( "simulated",
          Json.Object
            [
              ("steps", Json.Int (Sim.Stats.total_steps stats));
              ("violating_steps", Json.Int violations);
              ("unfinished_tasks", Json.Int unfinished);
              ("waiting_p50_ms", Json.Float (p 0.5));
              ("waiting_p99_ms", Json.Float (p 0.99));
              ("energy_j", Json.Float (Sim.Stats.energy stats));
              ("mean_power_w", Json.Float (Sim.Stats.average_power stats));
              ("fill", fill_detail s.built.Pipeline.fill_stats);
              ("audit_worst_margin_c", Json.Float audit.Pipeline.worst_margin);
            ] );
      ]
      @ describe_samples "setup_s" setups;
    spans;
  }

(* ------------------------------------------------------------------ *)

let table_niagara cfg =
  let n = if cfg.fast then 10 else 100 in
  table_workload cfg ~name:"table.niagara" ~machine_of:Sim.Machine.niagara
    ~tstarts:(Pipeline.axis 27.0 100.0 n)
    ~ftargets:(Pipeline.axis 1e8 1e9 n)
    ~min_reps:(if cfg.fast then 2 else 1)
    ~golden:(if cfg.fast then None else Some (8923, 8823, 1077, 8823))

let table_biglittle cfg =
  table_workload cfg ~name:"table.biglittle" ~machine_of:Sim.Machine.biglittle
    ~tstarts:(Pipeline.axis 27.0 100.0 (if cfg.fast then 15 else 150))
    ~ftargets:(Pipeline.axis 1e8 7e8 (if cfg.fast then 4 else 8))
    ~min_reps:2 ~golden:None

let chip_trace cfg =
  serving_workload cfg ~name:"chip.trace"
    ~n_tasks:(if cfg.fast then 6000 else 60000)
    ~trace_cores:8
    ~rep:(fun ~machine ~store trace -> Pipeline.engine_run ~machine ~store trace)
    ~work_of:(fun r -> Sim.Stats.total_steps r.Sim.Engine.stats)
    ~equal:(fun a b -> Sim.Stats.equal a.Sim.Engine.stats b.Sim.Engine.stats)
    ~extra_checks:(fun _ ~machine:_ ~store:_ _ r ->
      (r.Sim.Engine.stats, r.Sim.Engine.unfinished, None))
    ~traced:Pipeline.traced_engine
    ~probe:(fun cfg ~machine ~store served ->
      (served, fleet_probe cfg ~machine ~store, "sim.engine"))

(* The hot-aisle gate: odd chips sit in a hot aisle (fixed power x6);
   thermally blind round-robin pushes them over the cap and
   coolest-headroom routing must violate strictly less. *)
let hot_aisle c =
  let base = Sim.Machine.niagara () in
  let trace =
    Workload.Trace.generate ~n_cores:10 ~seed:23L ~n_tasks:4000
      Workload.Mix.compute_intensive
  in
  let chip i =
    let machine =
      if i land 1 = 1 then
        Sim.Machine.make ~thermal:base.Sim.Machine.thermal
          ~core_nodes:base.Sim.Machine.core_nodes
          ~fixed_power:(Array.map (fun p -> p *. 6.0) base.Sim.Machine.fixed_power)
          ~fmax:1e9 ~core_pmax:4.0 ()
      else base
    in
    Fleet.Chip.create ~machine
      ~controller:(Sim.Policy.workload_following ~fmax:1e9)
      ~assignment:Sim.Policy.first_idle ()
  in
  let config =
    {
      Fleet.Cluster.default_config with
      Fleet.Cluster.n_chips = 4;
      migrate = true;
      thermal_penalty = 60.0;
    }
  in
  let violations balancer =
    Sim.Stats.violation_steps
      (Fleet.Cluster.run ~config ~balancer ~chip trace).Fleet.Cluster.stats
  in
  let rr = violations (Fleet.Balancer.round_robin ()) in
  let cool = violations (Fleet.Balancer.coolest_headroom ~guard:5.0 ()) in
  check c
    (Printf.sprintf
       "hot aisle: coolest-headroom violates less than round-robin (%d < %d)"
       cool rr)
    (cool < rr)

let fleet_serve cfg =
  let chips = if cfg.fast then 8 else 120 in
  let n_tasks = if cfg.fast then 4000 else 500_000 in
  serving_workload cfg ~name:"fleet.serve" ~n_tasks ~trace_cores:(chips * 4)
    ~rep:(fun ~machine ~store trace ->
      Pipeline.fleet_run ~chips ~domains:1 ~machine ~store trace)
      (* Routing a task costs about as much as stepping the chips, and
         the step count moves with each seed's burst pattern (+-16%
         across ten seeds) while the task count is fixed: tasks per
         second is the rate that stays put. *)
    ~work_of:(fun _ -> n_tasks)
    ~equal:(fun a b ->
      Sim.Stats.equal a.Fleet.Cluster.stats b.Fleet.Cluster.stats
      && a.Fleet.Cluster.routed = b.Fleet.Cluster.routed
      && a.Fleet.Cluster.held = b.Fleet.Cluster.held)
    ~extra_checks:(fun c ~machine ~store trace r ->
      let par, par_s =
        Clock.time (fun () ->
            Pipeline.fleet_run ~chips ~domains:cfg.domains ~machine ~store
              trace)
      in
      check c
        (Printf.sprintf "fleet aggregate identical at 1 and %d domains"
           cfg.domains)
        (Sim.Stats.equal par.Fleet.Cluster.stats r.Fleet.Cluster.stats
        && par.Fleet.Cluster.routed = r.Fleet.Cluster.routed
        && par.Fleet.Cluster.held = r.Fleet.Cluster.held);
      hot_aisle c;
      (r.Fleet.Cluster.stats, r.Fleet.Cluster.unfinished, Some par_s))
    ~traced:(Pipeline.traced_fleet ~chips)
    ~probe:(fun cfg ~machine ~store served ->
      let engine, _ = engine_probe cfg ~machine ~store in
      (engine, served, "fleet.cluster"))

let all =
  [
    ("table.niagara", table_niagara);
    ("table.biglittle", table_biglittle);
    ("chip.trace", chip_trace);
    ("fleet.serve", fleet_serve);
  ]
