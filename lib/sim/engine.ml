open Linalg

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

(* Per-core execution state of the reference implementation: the
   remaining work (seconds at fmax) of the running task, or none when
   idle. *)
type core_state = { mutable remaining : float option }

(* The straightforward implementation the chip's step loop was
   refactored from: allocates freely in the step loop (fresh temperature, power and
   busy vectors every step).  Kept as the oracle for the golden
   regression test and as the benchmark baseline. *)
let run_reference ?(config = default_config) (machine : Machine.t) controller
    assignment trace =
  let started = Unix.gettimeofday () in
  let dt = machine.Machine.thermal.Thermal.Rc_model.dt in
  let steps_per_epoch =
    let s = int_of_float (Float.round (config.dfs_period /. dt)) in
    if s < 1 then invalid_arg "Engine.run: dfs_period below the thermal step";
    s
  in
  let n_cores = machine.Machine.n_cores in
  let tasks = trace.Workload.Trace.tasks in
  let n_tasks = Array.length tasks in
  let ambient = machine.Machine.thermal.Thermal.Rc_model.ambient in
  let t0 = Option.value config.t_initial ~default:ambient in
  let temp = ref (Vec.create machine.Machine.n_nodes t0) in
  let cores = Array.init n_cores (fun _ -> { remaining = None }) in
  let frequencies = ref (Vec.zeros n_cores) in
  let queue = Queue.create () in
  let next_task = ref 0 in
  let completed = ref 0 in
  let busy_acc = Array.make n_cores 0.0 in
  let stats = Stats.create ~n_cores ~tmax:config.tmax () in
  let migrations = ref 0 in
  let deadline = trace.Workload.Trace.horizon +. config.drain_limit in
  (* A fresh candidate mask per dispatch: allocation is fine in the
     oracle. *)
  let idle_cores () = Array.map (fun c -> c.remaining = None) cores in
  let queued_work () =
    let backlog = Queue.fold (fun acc t -> acc +. t.Workload.Task.work) 0.0 queue in
    Array.fold_left
      (fun acc c ->
        match c.remaining with Some w -> acc +. w | None -> acc)
      backlog cores
  in
  let observe time =
    let core_temperatures = Machine.core_temperatures machine !temp in
    let work = queued_work () in
    let runnable =
      Queue.length queue
      + Array.fold_left
          (fun acc c -> if c.remaining = None then acc else acc + 1)
          0 cores
    in
    let parallelism = Stdlib.max 1 (Stdlib.min n_cores runnable) in
    let capacity = float_of_int parallelism *. config.dfs_period in
    let required = work /. capacity *. machine.Machine.fmax in
    {
      Policy.time;
      core_temperatures;
      max_core_temperature = Vec.max core_temperatures;
      required_frequency =
        Float.min machine.Machine.fmax (Float.max 0.0 required);
      core_fmax = machine.Machine.core_fmax;
      utilizations =
        Vec.init n_cores (fun c -> busy_acc.(c) /. config.dfs_period);
      queue_length = Queue.length queue;
      queued_work = work;
    }
  in
  let step = ref 0 in
  let finished () = !next_task >= n_tasks && !completed >= n_tasks in
  while (not (finished ())) && float_of_int !step *. dt <= deadline do
    let time = float_of_int !step *. dt in
    while
      !next_task < n_tasks && tasks.(!next_task).Workload.Task.arrival <= time
    do
      Queue.push tasks.(!next_task) queue;
      incr next_task
    done;
    if !step mod steps_per_epoch = 0 then begin
      let obs = observe time in
      let f = controller.Policy.decide obs in
      if Vec.dim f <> n_cores then
        invalid_arg "Engine.run: controller returned a bad frequency vector";
      for c = 0 to n_cores - 1 do
        if Float.is_nan f.(c) then
          invalid_arg "Engine.run: controller returned a NaN frequency"
      done;
      frequencies :=
        Vec.init n_cores (fun c ->
            Float.min machine.Machine.core_fmax.(c) (Float.max 0.0 f.(c)));
      Array.fill busy_acc 0 n_cores 0.0;
      if config.migration then begin
        let core_temperatures = Machine.core_temperatures machine !temp in
        Array.iteri
          (fun c state ->
            match state.remaining with
            (* Bit-exact: 0.0 is the controller's shutdown sentinel. *)
            | Some w when Float.equal !frequencies.(c) 0.0 ->
                let best = ref None in
                Array.iteri
                  (fun d other ->
                    if
                      other.remaining = None
                      && !frequencies.(d) > 0.0
                      && (match !best with
                         | None -> true
                         | Some b ->
                             core_temperatures.(d) < core_temperatures.(b))
                    then best := Some d)
                  cores;
                (match !best with
                | Some d ->
                    cores.(d).remaining <- Some w;
                    state.remaining <- None;
                    incr migrations
                | None -> ())
            | Some _ | None -> ())
          cores
      end
    end;
    let rec dispatch () =
      if not (Queue.is_empty queue) then
        match idle_cores () with
        | idle when not (Array.exists Fun.id idle) -> ()
        | idle -> (
            let core_temperatures = Machine.core_temperatures machine !temp in
            match
              assignment.Policy.choose ~idle
                ~core_classes:machine.Machine.platform.Platform.assignment
                ~core_temperatures
            with
            | None -> ()
            | Some c ->
                if cores.(c).remaining <> None then
                  invalid_arg "Engine.run: assignment picked a busy core";
                let task = Queue.pop queue in
                cores.(c).remaining <- Some task.Workload.Task.work;
                Stats.record_waiting stats
                  (Float.max 0.0 (time -. task.Workload.Task.arrival));
                dispatch ())
    in
    dispatch ();
    let busy = Array.make n_cores false in
    Array.iteri
      (fun c state ->
        match state.remaining with
        | None -> ()
        | Some w ->
            busy.(c) <- true;
            busy_acc.(c) <- busy_acc.(c) +. dt;
            let progress = dt *. !frequencies.(c) /. machine.Machine.fmax in
            let w' = w -. progress in
            if w' <= 0.0 then begin
              state.remaining <- None;
              incr completed;
              Stats.record_completion stats
            end
            else state.remaining <- Some w')
      cores;
    let power = Machine.power_vector machine ~frequencies:!frequencies ~busy in
    temp := Thermal.Rc_model.step_temperature machine.Machine.thermal !temp power;
    Stats.record_power stats ~dt (Vec.sum power);
    Stats.record_step stats ~dt
      ~core_temperatures:(Machine.core_temperatures machine !temp);
    incr step
  done;
  {
    stats;
    unfinished = n_tasks - !completed;
    migrations = !migrations;
    wall_clock = Unix.gettimeofday () -. started;
  }

(* Convenience for the common "give me the paper's time series"
   shape: a run with a recorder and a frequency-log probe attached. *)
let run_recorded ?config machine controller assignment trace =
  let rec_probe, series = Probe.recorder () in
  let log_probe, frequency_log = Probe.frequency_log () in
  let result =
    run ?config ~probes:[ rec_probe; log_probe ] machine controller assignment
      trace
  in
  (result, series (), frequency_log ())
