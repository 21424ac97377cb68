type config = Chip.config = {
  dfs_period : float;
  tmax : float;
  t_initial : float option;
  drain_limit : float;
  migration : bool;
}

let default_config = Chip.default_config

type result = {
  stats : Stats.t;
  unfinished : int;
  migrations : int;
  wall_clock : float;
}

(* One chip fed the whole trace and drained: the step loop itself lives
   in [Chip]. *)
let run ?(config = default_config) ?(probes = []) machine controller
    assignment trace =
  let started = Unix.gettimeofday () in
  let chip = Chip.create ~config ~probes ~machine ~controller ~assignment () in
  Chip.submit_trace chip trace;
  Chip.drain chip ~deadline:(trace.Workload.Trace.horizon +. config.drain_limit);
  Chip.finalize chip;
  List.iter (fun p -> Option.iter (fun f -> f ()) p.Probe.on_finish) probes;
  {
    stats = Chip.stats chip;
    unfinished = Chip.unfinished chip;
    migrations = Chip.migrations chip;
    wall_clock = Unix.gettimeofday () -. started;
  }
