(* Command-line interface to the Pro-Temp library.

   protemp solve     — one Eq. 3 design point
   protemp frontier  — max supportable frequency from a temperature
   protemp table     — Phase-1 sweep, written as CSV
   protemp validate  — audit a table against the thermal simulator
   protemp simulate  — run a trace under a controller
   protemp campaign  — controller x workload x fault grid
   protemp fleet     — serve one stream across a rack of chips
   protemp lint      — static-analysis pass over the repo sources *)

open Cmdliner

let machine_of = function
  | `Niagara -> Sim.Machine.niagara ()
  | `Biglittle -> Sim.Machine.biglittle ()

(* CLI frequencies are MHz; the library speaks Hz (see
   units.manifest).  Every scaling goes through this pair so the
   units checker can follow the conversion. *)
let mhz_to_hz f = f *. 1e6
let hz_to_mhz f = f /. 1e6

let spec_of ~uniform ~gradient ~stride =
  let base =
    {
      Protemp.Spec.default with
      Protemp.Spec.constraint_stride = stride;
      variant =
        (if uniform then Protemp.Spec.Uniform else Protemp.Spec.Variable);
    }
  in
  match gradient with
  | None -> base
  | Some weight -> Protemp.Spec.with_gradient ~weight base

(* ----- shared options ----- *)

let platform =
  Arg.(
    value
    & opt (enum [ ("niagara", `Niagara); ("biglittle", `Biglittle) ]) `Niagara
    & info [ "platform" ] ~docv:"NAME"
        ~doc:
          "Hardware platform: niagara (the paper's homogeneous 8-core chip, \
           the default) or biglittle (4 big + 4 little asymmetric cores with \
           per-core power laws).")

let uniform =
  Arg.(value & flag & info [ "uniform" ] ~doc:"Uniform frequency variant.")

let gradient =
  Arg.(
    value
    & opt (some float) None
    & info [ "gradient" ] ~docv:"WEIGHT"
        ~doc:"Enable the Eq. 4-5 gradient term with this weight.")

let stride =
  Arg.(
    value & opt int 1
    & info [ "stride" ] ~docv:"N"
        ~doc:"Enforce the thermal cap every N-th step (1 = the paper).")

let tstart =
  Arg.(
    required
    & opt (some float) None
    & info [ "tstart" ] ~docv:"CELSIUS" ~doc:"Starting temperature.")

let solver =
  Arg.(
    value
    & opt (enum [ ("conic", `Conic); ("barrier", `Barrier) ]) `Conic
    & info [ "solver" ] ~docv:"NAME"
        ~doc:
          "Interior-point backend: conic (primal-dual, the default) or \
           barrier (the reference log-barrier path).")

let print_frequencies f =
  Array.iteri
    (fun i hz -> Printf.printf "P%d %.1f MHz\n" (i + 1) (hz_to_mhz hz))
    f

(* ----- solve ----- *)

let solve_cmd =
  let ftarget =
    Arg.(
      required
      & opt (some float) None
      & info [ "ftarget" ] ~docv:"MHZ" ~doc:"Required average frequency.")
  in
  let run platform uniform gradient stride tstart ftarget =
    let spec = spec_of ~uniform ~gradient ~stride in
    let built =
      Protemp.Model.build ~machine:(machine_of platform) ~spec ~tstart
        ~ftarget:(mhz_to_hz ftarget)
    in
    match Protemp.Model.solve built with
    | Protemp.Model.Infeasible ->
        print_endline "infeasible";
        1
    | Protemp.Model.Feasible s ->
        print_frequencies s.Protemp.Model.frequencies;
        Printf.printf "total power %.2f W, duality gap %.1e\n"
          s.Protemp.Model.total_power s.Protemp.Model.raw.Convex.Solve.gap;
        (match s.Protemp.Model.gradient_spread with
        | Some g -> Printf.printf "certified window spread %.2f C\n" g
        | None -> ());
        0
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve one Eq. 3/5 design point.")
    Term.(const run $ platform $ uniform $ gradient $ stride $ tstart $ ftarget)

(* ----- frontier ----- *)

let frontier_cmd =
  let run platform uniform gradient stride tstart =
    let spec = spec_of ~uniform ~gradient ~stride in
    match
      Protemp.Offline.frontier_point ~machine:(machine_of platform) ~spec
        ~tstart ()
    with
    | Protemp.Model.Infeasible ->
        print_endline "no operation possible from this temperature";
        1
    | Protemp.Model.Feasible s ->
        print_frequencies s.Protemp.Model.frequencies;
        Printf.printf "max average frequency %.1f MHz\n"
          (hz_to_mhz (Linalg.Vec.mean s.Protemp.Model.frequencies));
        0
  in
  Cmd.v
    (Cmd.info "frontier"
       ~doc:"Maximum supportable frequency from a starting temperature.")
    Term.(const run $ platform $ uniform $ gradient $ stride $ tstart)

(* ----- table ----- *)

let out_file =
  Arg.(
    required
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output CSV file.")

let table_cmd =
  let tstarts =
    Arg.(
      value
      & opt (list float) (Array.to_list Protemp.Offline.default_tstarts)
      & info [ "tstarts" ] ~docv:"T1,T2,..." ~doc:"Row temperatures.")
  in
  let ftargets =
    Arg.(
      value
      & opt (list float)
          (List.map hz_to_mhz
             (Array.to_list Protemp.Offline.default_ftargets))
      & info [ "ftargets" ] ~docv:"MHZ1,MHZ2,..." ~doc:"Column targets (MHz).")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Solve table rows on N domains (default: PROTEMP_DOMAINS or the \
             machine's core count; 1 = sequential).")
  in
  let margin =
    Arg.(
      value & opt float 0.0
      & info [ "margin" ] ~docv:"C"
          ~doc:
            "Guard band in degrees C: certify every cell against tmax - \
             margin, so the stored table tolerates bounded sensor error up \
             to the margin at run time.")
  in
  let run platform uniform gradient stride tstarts ftargets domains margin
      solver out =
    let spec = spec_of ~uniform ~gradient ~stride in
    let spec =
      (* Bit-exact: 0.0 is the flag default meaning "no margin". *)
      if Float.equal margin 0.0 then spec
      else if margin < 0.0 || margin >= spec.Protemp.Spec.tmax then
        failwith "margin must be in [0, tmax)"
      else
        { spec with Protemp.Spec.tmax = spec.Protemp.Spec.tmax -. margin }
    in
    let table =
      Protemp.Offline.sweep ~solver ~machine:(machine_of platform) ~spec
        ?domains
        ~tstarts:(Array.of_list tstarts)
        ~ftargets:(Array.of_list (List.map mhz_to_hz ftargets))
        ~on_progress:(fun p ->
          Printf.eprintf "(%.0f C, %.0f MHz): %s\n%!" p.Protemp.Offline.tstart
            (hz_to_mhz p.Protemp.Offline.ftarget)
            (match p.Protemp.Offline.outcome with
            | `Feasible -> "ok"
            | `Infeasible -> "infeasible"
            | `Pruned -> "pruned"))
        ()
    in
    let oc = open_out out in
    output_string oc (Protemp.Table.to_csv table);
    close_out oc;
    Format.printf "%a@." Protemp.Table.pp table;
    Printf.printf "written to %s\n" out;
    0
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Run the Phase-1 sweep and store the table.")
    Term.(
      const run $ platform $ uniform $ gradient $ stride $ tstarts $ ftargets
      $ domains $ margin $ solver $ out_file)

(* ----- validate ----- *)

let table_file =
  Arg.(
    required
    & opt (some file) None
    & info [ "table" ] ~docv:"FILE" ~doc:"Table CSV produced by 'table'.")

let load_table file =
  let ic = open_in file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Protemp.Table.of_csv s

let validate_cmd =
  let run platform stride table_file =
    let spec = spec_of ~uniform:false ~gradient:None ~stride in
    let table = load_table table_file in
    let audit =
      Protemp.Guarantee.audit_table ~machine:(machine_of platform) ~spec table
    in
    Printf.printf "%d feasible cells re-simulated\n"
      audit.Protemp.Guarantee.cells_checked;
    Printf.printf "tightest margin below tmax: %.4f C%s\n"
      audit.Protemp.Guarantee.worst_margin
      (match audit.Protemp.Guarantee.worst_cell with
      | Some (t, f) -> Printf.sprintf " at (%.0f C, %.0f MHz)" t (hz_to_mhz f)
      | None -> "");
    if audit.Protemp.Guarantee.worst_margin >= -1e-9 then begin
      print_endline "table honours the guarantee";
      0
    end
    else begin
      print_endline "TABLE VIOLATES THE GUARANTEE";
      1
    end
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Audit a table against the thermal simulator.")
    Term.(const run $ platform $ stride $ table_file)

(* ----- simulate ----- *)

let simulate_cmd =
  let controller =
    Arg.(
      value
      & opt
          (enum
             [ ("no-tc", `No_tc); ("basic-dfs", `Basic); ("pro-temp", `Pro);
               ("online", `Online); ("integral", `Integral) ])
          `Pro
      & info [ "controller" ] ~docv:"NAME"
          ~doc:
            "no-tc, basic-dfs, pro-temp, online (MPC re-solve) or integral \
             (pure feedback).")
  in
  let ladder =
    Arg.(
      value
      & opt (some int) None
      & info [ "ladder" ] ~docv:"LEVELS"
          ~doc:"Quantize the table onto a discrete DVFS ladder.")
  in
  let migration =
    Arg.(value & flag & info [ "migration" ] ~doc:"Enable task migration.")
  in
  let table_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "table" ] ~docv:"FILE" ~doc:"Table CSV (pro-temp only).")
  in
  let mix =
    Arg.(
      value & opt string "mix"
      & info [ "mix" ] ~docv:"NAME" ~doc:"web, multimedia, compute or mix.")
  in
  let tasks =
    Arg.(value & opt int 20000 & info [ "tasks" ] ~docv:"N" ~doc:"Trace size.")
  in
  let seed =
    Arg.(value & opt int 2008 & info [ "seed" ] ~docv:"N" ~doc:"Trace seed.")
  in
  let coolest =
    Arg.(
      value & flag
      & info [ "coolest-first" ]
          ~doc:"Use the efficient (coolest-first) task assignment.")
  in
  let margin =
    Arg.(
      value & opt float 0.0
      & info [ "margin" ] ~docv:"C"
          ~doc:
            "Guard band in degrees C (online only): solve against tmax - \
             margin so bounded sensor faults cannot break the cap.")
  in
  let sensor_noise =
    Arg.(
      value
      & opt (some float) None
      & info [ "sensor-noise" ] ~docv:"MAG"
          ~doc:
            "Inject uniform [-MAG, +MAG] degrees C sensor noise on every \
             core reading (deterministic, see --fault-seed).")
  in
  let stale =
    Arg.(
      value
      & opt (some int) None
      & info [ "stale" ] ~docv:"N"
          ~doc:"The controller sees temperatures N decisions old.")
  in
  let stuck_core =
    Arg.(
      value
      & opt (some int) None
      & info [ "stuck-core" ] ~docv:"CORE"
          ~doc:"Core CORE's sensor is stuck (see --stuck-at).")
  in
  let stuck_at =
    Arg.(
      value
      & opt (some float) None
      & info [ "stuck-at" ] ~docv:"TEMP"
          ~doc:
            "Reading reported by the stuck sensor; omitted, it freezes at \
             the first observed value.")
  in
  let fault_seed =
    Arg.(
      value & opt int 1807
      & info [ "fault-seed" ] ~docv:"N" ~doc:"Seed for sensor-noise streams.")
  in
  let actuator_levels =
    Arg.(
      value
      & opt (some int) None
      & info [ "actuator-levels" ] ~docv:"N"
          ~doc:
            "Quantize decided frequencies through a uniform N-level DVFS \
             ladder (actuator-side; contrast with --ladder, which quantizes \
             the table itself).")
  in
  let run platform controller table_file mix tasks seed coolest ladder
      migration margin sensor_noise stale stuck_core stuck_at fault_seed
      actuator_levels =
    let machine = machine_of platform in
    let load_quantized f =
      let t = load_table f in
      match ladder with
      | None -> t
      | Some levels ->
          Protemp.Ladder.quantize_table
            (Protemp.Ladder.uniform ~fmax:machine.Sim.Machine.fmax ~levels)
            t
    in
    let online = ref None in
    let ctrl =
      match controller with
      | `No_tc -> Protemp.No_tc.create ~fmax:machine.Sim.Machine.fmax
      | `Basic -> Protemp.Basic_dfs.create ~fmax:machine.Sim.Machine.fmax ()
      | `Online ->
          let spec =
            { Protemp.Spec.default with Protemp.Spec.constraint_stride = 8 }
          in
          let fallback = Option.map load_quantized table_file in
          let t = Protemp.Online.create ?fallback ~margin ~machine ~spec () in
          online := Some t;
          Protemp.Online.controller t
      | `Integral -> Sim.Policy.integral_feedback ()
      | `Pro -> (
          match table_file with
          | None -> failwith "pro-temp needs --table"
          | Some f -> Protemp.Controller.create ~table:(load_quantized f))
    in
    let faults =
      List.concat
        [
          (match sensor_noise with
          | None -> []
          | Some magnitude ->
              [
                Sim.Fault.sensor_noise ~seed:(Int64.of_int fault_seed)
                  ~magnitude ();
              ]);
          (match stuck_core with
          | None -> []
          | Some core -> [ Sim.Fault.stuck_sensor ?reading:stuck_at ~core () ]);
          (match stale with
          | None -> []
          | Some epochs -> [ Sim.Fault.stale_observation ~epochs ]);
          (match actuator_levels with
          | None -> []
          | Some levels ->
              let ladder =
                Protemp.Ladder.uniform ~fmax:machine.Sim.Machine.fmax ~levels
              in
              [
                Sim.Fault.quantized_actuator
                  ~levels:(Protemp.Ladder.levels ladder);
              ]);
        ]
    in
    let ctrl = Sim.Fault.wrap ~faults ctrl in
    let mix =
      try Workload.Mix.by_name mix
      with Not_found -> failwith ("unknown mix " ^ mix)
    in
    let trace =
      Workload.Trace.generate ~seed:(Int64.of_int seed) ~n_tasks:tasks mix
    in
    let assignment =
      if coolest then Sim.Policy.coolest_first else Sim.Policy.first_idle
    in
    let config = { Sim.Engine.default_config with Sim.Engine.migration } in
    let audit_probe, audit =
      Sim.Probe.thermal_audit ~tmax:config.Sim.Engine.tmax ()
    in
    let r =
      Sim.Engine.run ~config ~probes:[ audit_probe ] machine ctrl assignment
        trace
    in
    Format.printf "%a@." Sim.Stats.pp r.Sim.Engine.stats;
    Printf.printf "unfinished %d, migrations %d, wall %.2f s\n"
      r.Sim.Engine.unfinished r.Sim.Engine.migrations r.Sim.Engine.wall_clock;
    let a = audit () in
    Printf.printf "thermal audit: %d/%d steps above tmax (worst excess %.3f C)\n"
      a.Sim.Probe.violating_steps a.Sim.Probe.audited_steps
      a.Sim.Probe.worst_excess;
    (match !online with
    | None -> ()
    | Some t ->
        let c = Protemp.Online.counts t in
        Printf.printf
          "online outcomes: %d solved, %d table fallbacks, %d safe stops\n"
          c.Protemp.Online.solved c.Protemp.Online.fallbacks
          c.Protemp.Online.stops);
    0
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a trace under a controller.")
    Term.(
      const run $ platform $ controller $ table_file $ mix $ tasks $ seed
      $ coolest $ ladder $ migration $ margin $ sensor_noise $ stale
      $ stuck_core $ stuck_at $ fault_seed $ actuator_levels)

(* ----- campaign ----- *)

let campaign_cmd =
  let table_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "table" ] ~docv:"FILE"
          ~doc:"Table CSV; when given, Pro-Temp joins the controller grid.")
  in
  let mixes =
    Arg.(
      value
      & opt (list string) [ "mix" ]
      & info [ "mixes" ] ~docv:"NAME1,NAME2,..."
          ~doc:"Workload scenarios: web, multimedia, compute or mix.")
  in
  let tasks =
    Arg.(
      value & opt int 20000
      & info [ "tasks" ] ~docv:"N" ~doc:"Tasks per scenario trace.")
  in
  let seed =
    Arg.(value & opt int 2008 & info [ "seed" ] ~docv:"N" ~doc:"Trace seed.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Run grid cells on N domains (default: PROTEMP_DOMAINS or the \
             machine's core count; 1 = sequential).")
  in
  let guarded_table_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "guarded-table" ] ~docv:"FILE"
          ~doc:
            "Guard-banded table CSV (built with `table --margin`); when \
             given, pro-temp-guarded joins the controller grid.")
  in
  let noise_axis =
    Arg.(
      value
      & opt (list float) []
      & info [ "sensor-noise" ] ~docv:"MAG1,MAG2,..."
          ~doc:
            "Add fault-axis coordinates with uniform sensor noise of these \
             magnitudes (degrees C); a clean coordinate is always included.")
  in
  let stale_axis =
    Arg.(
      value
      & opt (list int) []
      & info [ "stale" ] ~docv:"N1,N2,..."
          ~doc:
            "Add fault-axis coordinates where observations are N decisions \
             old.")
  in
  let fault_seed =
    Arg.(
      value & opt int 1807
      & info [ "fault-seed" ] ~docv:"N" ~doc:"Seed for sensor-noise streams.")
  in
  let online =
    Arg.(
      value & flag
      & info [ "online" ]
          ~doc:
            "Add the online MPC controller (per-period re-solve with the \
             selected --solver) to the controller grid.")
  in
  let run platform table_file guarded_table_file mixes tasks seed domains
      noise_axis stale_axis fault_seed online solver =
    let machine = machine_of platform in
    let fmax = machine.Sim.Machine.fmax in
    let controllers =
      [
        ("no-tc", fun () -> Protemp.No_tc.create ~fmax);
        ("basic-dfs", fun () -> Protemp.Basic_dfs.create ~fmax ());
        ("integral", fun () -> Sim.Policy.integral_feedback ());
      ]
      @ (match table_file with
        | None -> []
        | Some f ->
            let table = load_table f in
            [ ("pro-temp", fun () -> Protemp.Controller.create ~table) ])
      @ (match guarded_table_file with
        | None -> []
        | Some f ->
            let table = load_table f in
            [ ("pro-temp-guarded", fun () -> Protemp.Controller.create ~table) ])
      @
      if not online then []
      else
        (* Same stride as `simulate --controller online`; the fallback
           table joins when one was supplied.  A fresh instance per
           grid cell keeps the decision counters per-cell and the
           thunk safe to call from worker domains. *)
        let spec =
          { Protemp.Spec.default with Protemp.Spec.constraint_stride = 8 }
        in
        let fallback = Option.map load_table table_file in
        [
          ( "online",
            fun () ->
              Protemp.Online.controller
                (Protemp.Online.create ~solver ?fallback ~machine ~spec ()) );
        ]
    in
    let faults =
      List.map
        (fun magnitude ->
          let f =
            Sim.Fault.sensor_noise ~seed:(Int64.of_int fault_seed) ~magnitude
              ()
          in
          (Sim.Fault.name f, [ f ]))
        noise_axis
      @ List.map
          (fun epochs ->
            let f = Sim.Fault.stale_observation ~epochs in
            (Sim.Fault.name f, [ f ]))
          stale_axis
    in
    let faults = if faults = [] then [] else ("none", []) :: faults in
    let scenarios =
      List.map
        (fun name ->
          let mix =
            try Workload.Mix.by_name name
            with Not_found -> failwith ("unknown mix " ^ name)
          in
          Sim.Campaign.scenario ~seed:(Int64.of_int seed) ~n_tasks:tasks ~name
            mix)
        mixes
    in
    let spec =
      {
        Sim.Campaign.controllers;
        assignments = [ Sim.Policy.first_idle; Sim.Policy.coolest_first ];
        scenarios;
        faults;
        config = Sim.Engine.default_config;
      }
    in
    Printf.eprintf "%d cells on %d domain(s)\n%!" (Sim.Campaign.cells spec)
      (match domains with
      | Some d -> d
      | None -> Parallel.Pool.default_domains ());
    let t0 = Unix.gettimeofday () in
    let cells =
      Sim.Campaign.run ?domains
        ~on_cell:(fun c ->
          Printf.eprintf "  %-12s %-14s %-10s %-10s %.2fs\n%!"
            c.Sim.Campaign.controller_name c.Sim.Campaign.assignment_name
            c.Sim.Campaign.scenario_name c.Sim.Campaign.fault_name
            c.Sim.Campaign.result.Sim.Engine.wall_clock)
        ~machine spec
    in
    let wall = Unix.gettimeofday () -. t0 in
    Format.printf "%a" Sim.Campaign.pp_summary cells;
    Printf.printf "%d cells in %.1f s\n" (Array.length cells) wall;
    0
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Fan a controller x assignment x workload x fault grid across \
          domains.")
    Term.(
      const run $ platform $ table_file $ guarded_table_file $ mixes $ tasks
      $ seed $ domains $ noise_axis $ stale_axis $ fault_seed $ online
      $ solver)

(* ----- fleet ----- *)

let fleet_cmd =
  let chips =
    Arg.(value & opt int 4 & info [ "chips" ] ~docv:"N" ~doc:"Fleet size.")
  in
  let tasks =
    Arg.(value & opt int 20000 & info [ "tasks" ] ~docv:"N" ~doc:"Trace size.")
  in
  let mix =
    Arg.(
      value & opt string "mix"
      & info [ "mix" ] ~docv:"NAME" ~doc:"web, multimedia, compute or mix.")
  in
  let seed =
    Arg.(value & opt int 2008 & info [ "seed" ] ~docv:"N" ~doc:"Trace seed.")
  in
  let trace_cores =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-cores" ] ~docv:"N"
          ~doc:
            "Scale the trace's offered load to N cores (default: the whole \
             fleet's core count — near-saturating).")
  in
  let balancer =
    Arg.(
      value
      & opt (enum [ ("round-robin", `Rr); ("coolest", `Cool) ]) `Cool
      & info [ "balancer" ] ~docv:"NAME"
          ~doc:"round-robin (thermally blind) or coolest (headroom-aware).")
  in
  let guard =
    Arg.(
      value & opt float 0.0
      & info [ "guard" ] ~docv:"C"
          ~doc:
            "Guard band in degrees C: chips within this headroom of tmax are \
             quarantined from routing (coolest balancer only).")
  in
  let penalty =
    Arg.(
      value & opt float 50.0
      & info [ "penalty" ] ~docv:"C_PER_S"
          ~doc:
            "Shadow warming per second of routed work, so one window's tasks \
             spread across the fleet instead of herding.")
  in
  let window =
    Arg.(
      value & opt float 0.1
      & info [ "window" ] ~docv:"SECONDS" ~doc:"Routing window length.")
  in
  let migrate =
    Arg.(
      value & flag
      & info [ "migrate" ]
          ~doc:"Pull queued tasks off guard-band chips and re-route them.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Advance chips on N domains (default: PROTEMP_DOMAINS or the \
             machine's core count; results are identical for any value).")
  in
  let table_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "table" ] ~docv:"FILE"
          ~doc:
            "Table CSV: every chip runs the Pro-Temp controller off it \
             (default: the workload-following baseline).")
  in
  let run platform chips tasks mix seed trace_cores balancer guard penalty
      window migrate domains table_file =
    let machine = machine_of platform in
    let mix =
      try Workload.Mix.by_name mix
      with Not_found -> failwith ("unknown mix " ^ mix)
    in
    let n_cores =
      match trace_cores with
      | Some n -> n
      | None -> chips * machine.Sim.Machine.n_cores
    in
    let trace =
      Workload.Trace.generate ~n_cores ~seed:(Int64.of_int seed)
        ~n_tasks:tasks mix
    in
    let controller =
      match table_file with
      | None -> fun () -> Sim.Policy.workload_following ~fmax:machine.Sim.Machine.fmax
      | Some f ->
          let table = load_table f in
          fun () -> Protemp.Controller.create ~table
    in
    let chip _ =
      Fleet.Chip.create ~machine ~controller:(controller ())
        ~assignment:Sim.Policy.first_idle ()
    in
    let balancer =
      match balancer with
      | `Rr -> Fleet.Balancer.round_robin ()
      | `Cool -> Fleet.Balancer.coolest_headroom ~guard ()
    in
    let config =
      {
        Fleet.Cluster.default_config with
        Fleet.Cluster.n_chips = chips;
        window;
        migrate;
        thermal_penalty = penalty;
      }
    in
    let r = Fleet.Cluster.run ~config ?domains ~balancer ~chip trace in
    Format.printf "%a@." Sim.Stats.pp r.Fleet.Cluster.stats;
    let ms q = Sim.Stats.waiting_percentile r.Fleet.Cluster.stats q *. 1e3 in
    Printf.printf "waiting p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n" (ms 0.5)
      (ms 0.95) (ms 0.99);
    Printf.printf
      "routed %d, held %d, migrated %d, unfinished %d, wall %.2f s\n"
      r.Fleet.Cluster.routed r.Fleet.Cluster.held r.Fleet.Cluster.migrated
      r.Fleet.Cluster.unfinished r.Fleet.Cluster.wall_clock;
    Printf.printf "per-chip violating steps: [%s]\n"
      (String.concat "; "
         (Array.to_list
            (Array.map string_of_int r.Fleet.Cluster.chip_violations)));
    if Sim.Stats.violation_steps r.Fleet.Cluster.stats = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Serve one arrival stream across a rack of chips behind a \
          thermal-aware balancer.")
    Term.(
      const run $ platform $ chips $ tasks $ mix $ seed $ trace_cores
      $ balancer $ guard $ penalty $ window $ migrate $ domains $ table_file)

(* ----- lint ----- *)

let lint_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Render findings as a JSON array on stdout.")
  in
  let manifest =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "Alloc-free manifest (default: lint.manifest under the root when \
             present).")
  in
  let units =
    Arg.(
      value
      & opt (some string) None
      & info [ "units" ] ~docv:"FILE"
          ~doc:
            "Units-of-measure manifest (default: units.manifest under the \
             root when present).")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Baseline of acknowledged finding ids; baselined findings are \
             reported in the summary but do not fail the run.")
  in
  let update_baseline =
    Arg.(
      value & flag
      & info [ "update-baseline" ]
          ~doc:
            "Write the current findings to the baseline file (requires \
             $(b,--baseline)) and exit 0.")
  in
  let no_typed =
    Arg.(
      value & flag
      & info [ "no-typed" ]
          ~doc:
            "Skip the typed pass (units, capture); syntactic checkers only.")
  in
  let root =
    Arg.(
      value & opt dir "."
      & info [ "root" ] ~docv:"DIR"
          ~doc:
            "Repository root; lib/, bin/, bench/ and benchmark/ under it \
             are linted.")
  in
  let run json manifest units baseline update_baseline no_typed root =
    let default_path name = function
      | Some _ as m -> m
      | None ->
          if Sys.file_exists (Filename.concat root name) then Some name
          else None
    in
    let manifest_path = default_path "lint.manifest" manifest in
    let units_path = default_path "units.manifest" units in
    let t0 = Unix.gettimeofday () in
    let r =
      Lint.Driver.run_repo ~root ?manifest_path ?units_path
        ~typed:(not no_typed) ()
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    if update_baseline then (
      match baseline with
      | None ->
          prerr_endline "lint: --update-baseline requires --baseline FILE";
          2
      | Some b ->
          let b = if Filename.is_relative b then Filename.concat root b else b in
          Lint.Baseline.save b r.Lint.Driver.findings;
          Printf.eprintf "lint: wrote %d finding(s) to baseline %s\n%!"
            (List.length r.Lint.Driver.findings) b;
          0)
    else begin
      let findings, n_baselined =
        match baseline with
        | None -> (r.Lint.Driver.findings, 0)
        | Some b ->
            let b =
              if Filename.is_relative b then Filename.concat root b else b
            in
            Lint.Baseline.filter (Lint.Baseline.load b) r.Lint.Driver.findings
      in
      if json then print_endline (Lint.Finding.list_to_json findings)
      else
        List.iter (fun f -> print_endline (Lint.Finding.to_string f)) findings;
      Printf.eprintf
        "lint: %d finding(s)%s in %d file(s), %d typed, %.2f s\n%!"
        (List.length findings)
        (if n_baselined > 0 then Printf.sprintf " (+%d baselined)" n_baselined
         else "")
        (List.length r.Lint.Driver.files)
        r.Lint.Driver.typed elapsed;
      if findings = [] then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Enforce the domain-safety, alloc-free, float-equality, \
          mli-coverage, units-of-measure and cross-domain-capture \
          invariants over the repository sources.")
    Term.(
      const run $ json $ manifest $ units $ baseline $ update_baseline
      $ no_typed $ root)

let () =
  let doc = "Pro-Temp: convex-optimization thermal control of multi-cores" in
  let info = Cmd.info "protemp" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info
                     [ solve_cmd; frontier_cmd; table_cmd; validate_cmd;
                       simulate_cmd; campaign_cmd; fleet_cmd; lint_cmd ]))
