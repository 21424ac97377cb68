(* The pipeline stages every workload shares: the timed table build,
   its traced replay, the serving runs with timed controller and
   dispatch wrappers, and the isolated per-call probes. *)

open Linalg

let spec = { Protemp.Spec.default with Protemp.Spec.constraint_stride = 4 }

(* [n] evenly spaced points from [lo] to [hi]; written so the 100x100
   Niagara grid equals the dense grid of bench/sweep_bench.ml bit for
   bit. *)
let axis lo hi n =
  Array.init n (fun i ->
      lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

let store_path tmpdir =
  if not (Sys.file_exists tmpdir) then Sys.mkdir tmpdir 0o755;
  Filename.concat tmpdir (Printf.sprintf "table-%d.ptbl" (Unix.getpid ()))

(* ------------------------------------------------------------------ *)
(* The table build, untraced.

   A fresh fill computes every row from its own tstart alone: warm
   starts run along the row and the prune frontier starts empty.  So
   the grid can be built as [blocks] interleaved row blocks — block k
   holds rows k, k + blocks, ... — and the merged grid is the grid of
   one whole fill, byte for byte (checked against a one-piece fill at
   nproc domains).  Each block spans the whole temperature range, so
   the blocks cost about the same, and the median block time is a
   measurement that a second of host contention moves by one sample,
   not by its whole length.  Each block is Dense_table create -> fill
   (1 domain) -> to_table; the merged grid is then written as a
   Table_store image and opened.  Every block's Dense_table (its
   memoized rows, per-row prepared contexts and solver workspaces) stays
   alive until the image is open, so the heap grows and the GC works
   as in a one-piece fill.  [between] runs before each block, outside
   the timing.  Each block, and the tail, is timed with the host-speed
   reference loop around it (Calib). *)

type built = {
  table : Protemp.Table.t;
  store : Protemp.Table_store.t;
  fill_stats : Protemp.Dense_table.fill_stats;
  bytes : int;
  block_s : float array;  (** create -> fill -> to_table, per block. *)
  block_speed : float array;  (** Host-speed factor around each block. *)
  fill_s : float;  (** Sum of [block_s]. *)
  tail_s : float;  (** Merge, write and open. *)
  tail_speed : float;
  write_s : float;
  open_s : float;
}

let add_stats (a : Protemp.Dense_table.fill_stats)
    (b : Protemp.Dense_table.fill_stats) =
  {
    Protemp.Dense_table.cells = a.cells + b.cells;
    solves = a.solves + b.solves;
    warm_hits = a.warm_hits + b.warm_hits;
    pruned = a.pruned + b.pruned;
    feasible = a.feasible + b.feasible;
  }

let no_stats =
  { Protemp.Dense_table.cells = 0; solves = 0; warm_hits = 0; pruned = 0; feasible = 0 }

let build_table ?(blocks = 1) ?(between = ignore) ~calib ~tmpdir ~machine
    ~margin ~tstarts ~ftargets ~domains () =
  let rows = Array.length tstarts and cols = Array.length ftargets in
  let cells = Array.make rows [||] in
  let fill_stats = ref no_stats and kept = ref [] in
  let timed =
    Array.init blocks (fun k ->
        between ();
        let idx =
          Array.of_list (List.filter (fun i -> i mod blocks = k) (List.init rows Fun.id))
        in
        let (dense, stats, part), s, speed =
          Calib.time calib (fun () ->
              let dense =
                Protemp.Dense_table.create ~margin ~machine ~spec
                  ~tstarts:(Array.map (fun i -> tstarts.(i)) idx)
                  ~ftargets ()
              in
              let stats = Protemp.Dense_table.fill ~domains dense in
              (dense, stats, Protemp.Dense_table.to_table dense))
        in
        Array.iteri
          (fun r i -> cells.(i) <- Array.init cols (Protemp.Table.cell part r))
          idx;
        fill_stats := add_stats !fill_stats stats;
        kept := dense :: !kept;
        (s, speed))
  in
  let path = store_path tmpdir in
  let (table, store, t0, t1, t2, t3), _, tail_speed =
    Calib.time calib (fun () ->
        let t0 = Clock.now_ns () in
        let table = Protemp.Table.make ~tstarts ~ftargets cells in
        let t1 = Clock.now_ns () in
        Protemp.Table_store.write ~core_fmax:machine.Sim.Machine.core_fmax table
          path;
        let t2 = Clock.now_ns () in
        let store = Protemp.Table_store.open_file path in
        (table, store, t0, t1, t2, Clock.now_ns ()))
  in
  ignore (Sys.opaque_identity !kept);
  let block_s = Array.map fst timed in
  let bytes = (Unix.stat path).Unix.st_size in
  (* The mapping keeps the pages alive; the name can go. *)
  Sys.remove path;
  let s a b = float_of_int (b - a) *. 1e-9 in
  {
    table;
    store;
    fill_stats = !fill_stats;
    bytes;
    block_s;
    block_speed = Array.map snd timed;
    fill_s = Array.fold_left ( +. ) 0.0 block_s;
    tail_s = s t0 t3;
    tail_speed;
    write_s = s t1 t2;
    open_s = s t2 t3;
  }

(* The fill's time in nominal-host seconds (Calib). *)
let calibrated_fill b =
  let t = ref 0.0 in
  Array.iteri (fun i s -> t := !t +. (s *. b.block_speed.(i))) b.block_s;
  !t

(* A grid's exact identity: the MD5 of its %.17g CSV.  Repetitions
   compare digests, so no earlier grid stays alive into the next one. *)
let grid_digest t = Digest.string (Protemp.Table.to_csv t)

(* Mean Eq. 3 objective — the cores' modeled power at the stored
   frequencies — over the feasible cells. *)
let mean_cell_power machine table =
  let sum = ref 0.0 and n = ref 0 in
  Array.iteri
    (fun i _ ->
      Array.iteri
        (fun j _ ->
          match Protemp.Table.cell table i j with
          | Protemp.Table.Infeasible -> ()
          | Protemp.Table.Frequencies f ->
              incr n;
              Array.iteri
                (fun core frequency ->
                  sum :=
                    !sum
                    +. Sim.Machine.core_power machine ~core ~frequency
                         ~busy:true)
                f)
        (Protemp.Table.ftargets table))
    (Protemp.Table.tstarts table);
  !sum /. float_of_int (Stdlib.max 1 !n)

(* The guarantee audit against the true tmax (the unmodified spec, so a
   guard-banded table is judged by the cap it protects).  A cell fails
   when its window peak exceeds tmax by more than the solver tolerance
   of 0.01 C; cells are counted one by one only when the worst margin
   says some fail. *)
let margin_tolerance = -0.01

type audit = { worst_margin : float; failed_cells : int; audit_s : float }

let audit ~machine table =
  let a, audit_s =
    Clock.time (fun () -> Protemp.Guarantee.audit_table ~machine ~spec table)
  in
  let worst = a.Protemp.Guarantee.worst_margin in
  let failed_cells =
    if worst >= margin_tolerance then 0
    else begin
      let n = ref 0 in
      let ts = Protemp.Table.tstarts table in
      Array.iteri
        (fun i tstart ->
          Array.iteri
            (fun j _ ->
              match Protemp.Table.cell table i j with
              | Protemp.Table.Infeasible -> ()
              | Protemp.Table.Frequencies frequencies ->
                  let peak =
                    Protemp.Guarantee.window_peak ~machine
                      ~dfs_period:spec.Protemp.Spec.dfs_period ~tstart
                      ~frequencies
                  in
                  if spec.Protemp.Spec.tmax -. peak < margin_tolerance then incr n)
            (Protemp.Table.ftargets table))
        ts;
      !n
    end
  in
  { worst_margin = worst; failed_cells; audit_s }

(* ------------------------------------------------------------------ *)
(* The traced replay of Dense_table's row loop through public calls
   only: per row Model.prepare, the conic packing (forced lazily by
   the first instance), one Conic workspace, then column by column
   Model.instantiate and Model.solve warm-started from the previous
   feasible column, stopping at the first infeasible column because a
   fresh fill prunes the rest.  The run fails unless the replayed grid
   equals the untraced fill byte for byte, so the spans describe the
   fill that was timed.  Rows run in the same interleaved blocks as the
   timed build, each block calibrated, so the replay's host-speed factor
   follows the host through an 11-second replay. *)

type replay = {
  r_table : Protemp.Table.t;
  r_stats : Protemp.Dense_table.fill_stats;
  conic : Convex.Conic.stats;
  warm_iterations : int;
  cold_iterations : int;
  cold_solves : int;
  r_speed : float;  (** Host-speed factor over the replayed fill. *)
}

let replay_fill sp ~calib ~blocks ~machine ~margin ~tstarts ~ftargets =
  let span name f = Spans.with_span sp name f in
  let spec = { spec with Protemp.Spec.tmax = spec.Protemp.Spec.tmax -. margin } in
  let rows = Array.length tstarts and cols = Array.length ftargets in
  let cells = Array.make_matrix rows cols Protemp.Table.Infeasible in
  let stats = ref Convex.Conic.stats_zero in
  let solves = ref 0 and warm_hits = ref 0 and pruned = ref 0 in
  let feasible = ref 0 and warm_iterations = ref 0 in
  let cold_iterations = ref 0 and cold_solves = ref 0 in
  let row i =
    let p =
      span "protemp.model.prepare" (fun () ->
          Protemp.Model.prepare ~machine ~spec ~tstart:tstarts.(i))
    in
    let instantiate j =
      span "protemp.model.instantiate" (fun () ->
          Protemp.Model.instantiate p ~ftarget:ftargets.(j))
    in
    let first = instantiate 0 in
    let conic =
      span "protemp.model.conic_pack" (fun () ->
          Lazy.force first.Protemp.Model.conic)
    in
    let ws =
      span "convex.conic.make_workspace" (fun () ->
          Convex.Conic.make_workspace
            ~kkt:(`Blocks (Protemp.Model.conic_blocks first.Protemp.Model.layout))
            conic)
    in
    let warm = ref None and j = ref 0 in
    while !j < cols do
      let built = instantiate !j in
      let before = !stats.Convex.Conic.iterations in
      let outcome =
        span "protemp.model.solve" (fun () ->
            Protemp.Model.solve ~conic_ws:ws ?start:!warm
              ~conic_stats_into:stats built)
      in
      let iterations = !stats.Convex.Conic.iterations - before in
      incr solves;
      (match !warm with
      | Some _ ->
          incr warm_hits;
          warm_iterations := !warm_iterations + iterations
      | None ->
          incr cold_solves;
          cold_iterations := !cold_iterations + iterations);
      match outcome with
      | Protemp.Model.Feasible s ->
          cells.(i).(!j) <- Protemp.Table.Frequencies s.Protemp.Model.frequencies;
          warm := Some s.Protemp.Model.raw.Convex.Solve.x;
          incr feasible;
          incr j
      | Protemp.Model.Infeasible ->
          pruned := !pruned + (cols - !j - 1);
          j := cols
    done
  in
  let raw_s = ref 0.0 and calibrated_s = ref 0.0 in
  span "protemp.dense_table.fill" (fun () ->
      for k = 0 to blocks - 1 do
        let (), s, speed =
          Calib.time calib (fun () ->
              let i = ref k in
              while !i < rows do
                row !i;
                i := !i + blocks
              done)
        in
        raw_s := !raw_s +. s;
        calibrated_s := !calibrated_s +. (s *. speed)
      done);
  let r_table =
    span "protemp.dense_table.to_table" (fun () ->
        Protemp.Table.make ~tstarts:(Array.copy tstarts)
          ~ftargets:(Array.copy ftargets) cells)
  in
  {
    r_table;
    r_stats =
      {
        Protemp.Dense_table.cells = rows * cols;
        solves = !solves;
        warm_hits = !warm_hits;
        pruned = !pruned;
        feasible = !feasible;
      };
    conic = !stats;
    warm_iterations = !warm_iterations;
    cold_iterations = !cold_iterations;
    cold_solves = !cold_solves;
    r_speed = !calibrated_s /. !raw_s;
  }

(* The replayed build: fill replay, then the store write and open. *)
let replay_build sp ~calib ~blocks ~tmpdir ~machine ~margin ~tstarts ~ftargets =
  let r = replay_fill sp ~calib ~blocks ~machine ~margin ~tstarts ~ftargets in
  let path = store_path tmpdir in
  Spans.with_span sp "protemp.table_store.write" (fun () ->
      Protemp.Table_store.write ~core_fmax:machine.Sim.Machine.core_fmax
        r.r_table path);
  let store =
    Spans.with_span sp "protemp.table_store.open_file" (fun () ->
        Protemp.Table_store.open_file path)
  in
  Sys.remove path;
  (r, store)

(* ------------------------------------------------------------------ *)
(* Serving.  A wrapped controller or assignment records the duration
   of every call; each chip of a fleet gets its own sample buffers. *)

let timed_controller samples (c : Sim.Policy.controller) =
  {
    c with
    Sim.Policy.decide =
      (fun obs ->
        let t0 = Clock.now_ns () in
        let r = c.Sim.Policy.decide obs in
        Summary.add samples (Clock.now_ns () - t0);
        r);
  }

let timed_assignment samples (a : Sim.Policy.assignment) =
  {
    a with
    Sim.Policy.choose =
      (fun ~idle ~core_classes ~core_temperatures ->
        let t0 = Clock.now_ns () in
        let r = a.Sim.Policy.choose ~idle ~core_classes ~core_temperatures in
        Summary.add samples (Clock.now_ns () - t0);
        r);
  }

let engine_run ~machine ~store trace =
  Sim.Engine.run machine
    (Protemp.Controller.of_store ~store)
    Sim.Policy.first_idle trace

let fleet_config ~chips =
  {
    Fleet.Cluster.default_config with
    Fleet.Cluster.n_chips = chips;
    thermal_penalty = 50.0;
  }

let fleet_run ~chips ~domains ~machine ~store trace =
  Fleet.Cluster.run ~config:(fleet_config ~chips) ~domains
    ~balancer:(Fleet.Balancer.coolest_headroom ())
    ~chip:(fun _ ->
      Fleet.Chip.create ~machine
        ~controller:(Protemp.Controller.of_store ~store)
        ~assignment:Sim.Policy.first_idle ())
    trace

(* A serving run seen from outside: host seconds, the step count, and
   the call samples of every wrapped layer. *)
type served = {
  run_s : float;
  steps : int;
  decide : Summary.samples;
  choose : Summary.samples;
  route : Summary.samples;  (** Balancer choices; empty for one chip. *)
  stats : Sim.Stats.t;
}

let traced_engine ~machine ~store trace =
  let decide = Summary.samples () and choose = Summary.samples () in
  let r, run_s =
    Clock.time (fun () ->
        Sim.Engine.run machine
          (timed_controller decide (Protemp.Controller.of_store ~store))
          (timed_assignment choose Sim.Policy.first_idle)
          trace)
  in
  {
    run_s;
    steps = Sim.Stats.total_steps r.Sim.Engine.stats;
    decide;
    choose;
    route = Summary.samples ();
    stats = r.Sim.Engine.stats;
  }

let traced_fleet ~chips ~machine ~store trace =
  let decide = Array.init chips (fun _ -> Summary.samples ()) in
  let choose = Array.init chips (fun _ -> Summary.samples ()) in
  let route = Summary.samples () in
  let b = Fleet.Balancer.coolest_headroom () in
  let balancer =
    { b with Fleet.Balancer.policy = timed_assignment route b.Fleet.Balancer.policy }
  in
  let r, run_s =
    Clock.time (fun () ->
        Fleet.Cluster.run ~config:(fleet_config ~chips) ~domains:1 ~balancer
          ~chip:(fun i ->
            Fleet.Chip.create ~machine
              ~controller:
                (timed_controller decide.(i) (Protemp.Controller.of_store ~store))
              ~assignment:(timed_assignment choose.(i) Sim.Policy.first_idle)
              ())
          trace)
  in
  {
    run_s;
    steps = Sim.Stats.total_steps r.Fleet.Cluster.stats;
    decide = Summary.merge (Array.to_list decide);
    choose = Summary.merge (Array.to_list choose);
    route;
    stats = r.Fleet.Cluster.stats;
  }

(* Host seconds of a serving run not spent in the wrapped calls: the
   step loop itself (plus routing, for a fleet). *)
let loop_self_s s =
  s.run_s
  -. (float_of_int
        (Summary.total_ns s.decide + Summary.total_ns s.choose
       + Summary.total_ns s.route)
     *. 1e-9)

(* ------------------------------------------------------------------ *)
(* Isolated per-call costs on the workload's own machine and store:
   the calls the step loop makes, timed outside any run. *)

let per_call_ns n f =
  let t0 = Clock.now_ns () in
  for k = 0 to n - 1 do
    f k
  done;
  float_of_int (Clock.now_ns () - t0) /. float_of_int n

let isolated ~machine ~store =
  let n_nodes = machine.Sim.Machine.n_nodes in
  let n_cores = machine.Sim.Machine.n_cores in
  let frequencies = Vec.create n_cores (0.5 *. machine.Sim.Machine.fmax) in
  let busy = Array.make n_cores true in
  let power = Sim.Machine.power_vector machine ~frequencies ~busy in
  let stepper = Thermal.Rc_model.compile_stepper machine.Sim.Machine.thermal in
  Thermal.Rc_model.stepper_load_power stepper power;
  let a = Vec.create n_nodes 60.0 and b = Vec.zeros n_nodes in
  let stepper_ns =
    per_call_ns 200_000 (fun k ->
        if k land 1 = 0 then Thermal.Rc_model.stepper_step_loaded_into stepper a ~dst:b
        else Thermal.Rc_model.stepper_step_loaded_into stepper b ~dst:a)
  in
  let stats = Sim.Stats.create ~n_cores ~tmax:spec.Protemp.Spec.tmax () in
  let dt = machine.Sim.Machine.thermal.Thermal.Rc_model.dt in
  let record_ns =
    per_call_ns 200_000 (fun _ ->
        Sim.Stats.record_step_nodes stats ~dt ~temperatures:a
          ~nodes:machine.Sim.Machine.core_nodes)
  in
  let dst = Vec.copy machine.Sim.Machine.fixed_power in
  let idle = Array.make n_cores false in
  let refresh_ns =
    per_call_ns 200_000 (fun k ->
        Sim.Machine.refresh_core_power machine ~frequencies
          ~busy:(if k land 1 = 0 then busy else idle)
          ~dst)
  in
  (* A fixed pseudo-random query stream over (and slightly past) the
     store's envelope. *)
  let ts = Protemp.Table_store.tstarts store in
  let fs = Protemp.Table_store.ftargets store in
  let state = ref 123456789 in
  let next () =
    state := ((1103515245 * !state) + 12345) land 0x3FFFFFFF;
    float_of_int !state /. float_of_int 0x40000000
  in
  let tlo = ts.(0) and thi = ts.(Array.length ts - 1) in
  let flo = fs.(0) and fhi = fs.(Array.length fs - 1) in
  let queries =
    Array.init 4096 (fun _ ->
        ( tlo -. 5.0 +. (next () *. (thi -. tlo +. 10.0)),
          flo +. (next () *. (fhi -. flo) *. 1.05) ))
  in
  let into = Vec.zeros (Protemp.Table_store.n_cores store) in
  let lookup_ns =
    per_call_ns 400_000 (fun k ->
        let temperature, required = queries.(k land 4095) in
        ignore
          (Protemp.Table_store.lookup_into store ~temperature ~required ~into))
  in
  (stepper_ns, record_ns, refresh_ns, lookup_ns)
