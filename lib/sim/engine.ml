open Linalg

type config = {
  dfs_period : float;
  tmax : float;
  t_initial : float option;
  drain_limit : float;
  migration : bool;
}

let default_config =
  {
    dfs_period = 0.1;
    tmax = 100.0;
    t_initial = None;
    drain_limit = 60.0;
    migration = false;
  }

type result = {
  stats : Stats.t;
  unfinished : int;
  migrations : int;
  wall_clock : float;
}

(* The production stepping loop.  Everything the per-step path touches
   is preallocated before the loop: two ping-pong temperature buffers
   fed to the compiled thermal stepper, the power and core-temperature
   scratch vectors, and plain [bool]/[float] arrays for the per-core
   run state (an [option] per core would allocate a [Some] on every
   progress update).  Allocation only happens on the cold edges —
   task arrival, epoch boundaries, dispatch — so steady-state steps
   perform zero minor-heap allocation (asserted by a test).  The
   straightforward allocating implementation is kept below as
   [run_reference]; a golden test checks both produce bit-identical
   statistics. *)
let run ?(config = default_config) ?(probes = []) (machine : Machine.t)
    controller assignment trace =
  let started = Unix.gettimeofday () in
  let epoch_fns = Array.of_list (List.filter_map (fun p -> p.Probe.on_epoch) probes) in
  let step_fns = Array.of_list (List.filter_map (fun p -> p.Probe.on_step) probes) in
  let thermal = machine.Machine.thermal in
  let dt = thermal.Thermal.Rc_model.dt in
  let steps_per_epoch =
    let s = int_of_float (Float.round (config.dfs_period /. dt)) in
    if s < 1 then invalid_arg "Engine.run: dfs_period below the thermal step";
    s
  in
  let n_cores = machine.Machine.n_cores in
  let n_nodes = machine.Machine.n_nodes in
  let fmax = machine.Machine.fmax in
  let core_fmax = machine.Machine.core_fmax in
  let core_classes = machine.Machine.platform.Platform.assignment in
  let tasks = trace.Workload.Trace.tasks in
  let n_tasks = Array.length tasks in
  let ambient = thermal.Thermal.Rc_model.ambient in
  let t0 = Option.value config.t_initial ~default:ambient in
  let stepper = Thermal.Rc_model.compile_stepper thermal in
  let temp = ref (Vec.create n_nodes t0) in
  let temp_next = ref (Vec.zeros n_nodes) in
  let running = Array.make n_cores false in
  let remaining = Array.make n_cores 0.0 in
  let frequencies = Vec.zeros n_cores in
  (* Per-core work advanced per busy step, [dt * f / fmax].  The
     frequencies only move at epoch boundaries, so the division is
     paid once per epoch instead of once per busy core per step; the
     cached value is the exact expression the reference evaluates. *)
  let progress = Vec.zeros n_cores in
  let busy = Array.make n_cores false in
  let busy_acc = Array.make n_cores 0.0 in
  let power = Vec.zeros n_nodes in
  (* The non-core entries of the power vector are the static
     [fixed_power], which never changes: install it once and let
     [Machine.refresh_core_power] rewrite only the core entries. *)
  Array.blit machine.Machine.fixed_power 0 power 0 n_nodes;
  (* One full load caches the injection products of the static
     entries; the loop below only ever reloads the core nodes. *)
  Thermal.Rc_model.stepper_load_power stepper power;
  (* The power vector only changes when the controller moves the
     frequencies or a core starts/stops; between those events the
     step loop reuses [power], the stepper's loaded injection
     products, and the cached chip total in [chip_power]. *)
  let power_dirty = ref true in
  (* Local float refs that never escape compile to unboxed mutable
     variables, so neither accumulator allocates. *)
  let chip_power = ref 0.0 in
  let energy_acc = ref 0.0 in
  let core_temp = Vec.zeros n_cores in
  (* Tasks arrive sorted by arrival time and each is enqueued exactly
     once, so the FIFO queue is just the index window
     [q_head, q_tail) over [tasks]: arrivals advance [q_tail],
     dispatch advances [q_head].  No queue cells are ever allocated
     and emptiness is an integer compare.  The arrival and work fields
     are hoisted into plain float arrays once — reading a float field
     of the mixed [Task.t] record goes through a box. *)
  let arrivals = Array.map (fun t -> t.Workload.Task.arrival) tasks in
  let works = Array.map (fun t -> t.Workload.Task.work) tasks in
  let q_head = ref 0 in
  let q_tail = ref 0 in
  let completed = ref 0 in
  let stats = Stats.create ~n_cores ~tmax:config.tmax () in
  let migrations = ref 0 in
  let deadline = trace.Workload.Trace.horizon +. config.drain_limit in
  (* One mutable view refilled in place each step keeps attached
     probes cheap; with no step probes the loop never touches it. *)
  let have_step = Array.length step_fns > 0 in
  let step_view =
    {
      Probe.at = 0.0;
      dt;
      temperatures = !temp;
      core_nodes = machine.Machine.core_nodes;
      chip_power = 0.0;
    }
  in
  let queued_work () =
    (* Same fold order as the reference's front-to-back queue walk. *)
    let acc = ref 0.0 in
    for k = !q_head to !q_tail - 1 do
      acc := !acc +. works.(k)
    done;
    for c = 0 to n_cores - 1 do
      if running.(c) then acc := !acc +. remaining.(c)
    done;
    !acc
  in
  let observe time =
    let core_temperatures = Machine.core_temperatures machine !temp in
    let work = queued_work () in
    (* The work can only spread over as many cores as there are
       runnable tasks; a single straggler must be driven by one core,
       not an eighth of one (otherwise its service slows down each
       window and it never finishes). *)
    let runnable =
      let r = ref (!q_tail - !q_head) in
      for c = 0 to n_cores - 1 do
        if running.(c) then incr r
      done;
      !r
    in
    let parallelism = Stdlib.max 1 (Stdlib.min n_cores runnable) in
    let capacity = float_of_int parallelism *. config.dfs_period in
    let required = work /. capacity *. fmax in
    {
      Policy.time;
      core_temperatures;
      max_core_temperature = Vec.max core_temperatures;
      required_frequency = Float.min fmax (Float.max 0.0 required);
      core_fmax;
      utilizations =
        Vec.init n_cores (fun c -> busy_acc.(c) /. config.dfs_period);
      queue_length = !q_tail - !q_head;
      queued_work = work;
    }
  in
  (* Count of [true] entries in [running], so the per-step dispatch
     guard is a single compare instead of a scan. *)
  let n_running = ref 0 in
  (* The assignment policy's candidate mask: [idle.(c)] is
     [not running.(c)] while a dispatch chain runs. *)
  let idle = Array.make n_cores false in
  (* Dispatch queued tasks onto idle cores; the assignment policy may
     defer (thermally-aware admission control).  Only entered when the
     queue is non-empty and a core is idle, so the common steady-state
     step never pays for the temperature extraction or the mask
     fill. *)
  let dispatch time =
    (* The core temperatures cannot change between dispatches within a
       step, so one extraction serves the whole chain; likewise the
       mask is filled once and each pick clears its own cell. *)
    Machine.core_temperatures_into machine !temp ~dst:core_temp;
    for c = 0 to n_cores - 1 do
      idle.(c) <- not running.(c)
    done;
    let continue = ref true in
    while !continue && !q_head < !q_tail && !n_running < n_cores do
      match
        assignment.Policy.choose ~idle ~core_classes
          ~core_temperatures:core_temp
      with
      | None -> continue := false
      | Some c ->
          if running.(c) then
            invalid_arg "Engine.run: assignment picked a busy core";
          let k = !q_head in
          incr q_head;
          running.(c) <- true;
          idle.(c) <- false;
          incr n_running;
          remaining.(c) <- works.(k);
          Stats.record_waiting stats (Float.max 0.0 (time -. arrivals.(k)))
    done
  in
  let step = ref 0 in
  (* Steps until the next DFS boundary; counting down avoids an
     integer division per step. *)
  let epoch_countdown = ref 0 in
  let live = ref true in
  (* DFS epoch boundary — the cold path, once per control window:
     observe, ask the controller for new frequencies, clamp, notify
     epoch probes, optionally migrate.  Allocation is fine here; the
     alloc-free manifest only covers [step_once] below. *)
  let epoch_boundary time =
    epoch_countdown := steps_per_epoch;
    let obs = observe time in
    let f = controller.Policy.decide obs in
    if Vec.dim f <> n_cores then
      invalid_arg "Engine.run: controller returned a bad frequency vector";
    for c = 0 to n_cores - 1 do
      if Float.is_nan f.(c) then
        invalid_arg "Engine.run: controller returned a NaN frequency"
    done;
    (* Clamp on both sides, in place into the preallocated vector: a
       buggy controller must not be able to run cores past their
       per-core hardware ceiling any more than below 0.  Progress
       stays in units of the chip reference [fmax]: queued work is
       seconds at that frequency, so a little core burns it more
       slowly. *)
    for c = 0 to n_cores - 1 do
      frequencies.(c) <- Float.min core_fmax.(c) (Float.max 0.0 f.(c));
      progress.(c) <- dt *. frequencies.(c) /. fmax
    done;
    power_dirty := true;
    Array.fill busy_acc 0 n_cores 0.0;
    if Array.length epoch_fns > 0 then begin
      let view = { Probe.time; observation = obs; frequencies } in
      Array.iter (fun f -> f view) epoch_fns
    end;
    (* Optional task migration (a policy the paper composes with):
       a task stuck on a stopped core moves to the coolest idle core
       that was granted a non-zero frequency. *)
    if config.migration then begin
      let core_temperatures = Machine.core_temperatures machine !temp in
      for c = 0 to n_cores - 1 do
        (* Bit-exact: 0.0 is the controller's shutdown sentinel. *)
        if running.(c) && Float.equal frequencies.(c) 0.0 then begin
          let best = ref (-1) in
          for d = 0 to n_cores - 1 do
            if
              (not running.(d))
              && frequencies.(d) > 0.0
              && (!best < 0
                 || core_temperatures.(d) < core_temperatures.(!best))
            then best := d
          done;
          if !best >= 0 then begin
            running.(!best) <- true;
            remaining.(!best) <- remaining.(c);
            running.(c) <- false;
            incr migrations
          end
        end
      done
    end
  in
  (* One thermal step — the hot path, listed in the alloc-free
     manifest as [run.step_once], so its body must stay free of
     syntactic allocation sites; the steady-state [Gc.minor_words]
     test checks the compiled code allocates nothing either.  Takes
     [unit] and recomputes the time from [step]: a float argument to
     a local function would be boxed at every call, whereas the
     recomputation is the bit-identical expression the loop head
     evaluates. *)
  let step_once () =
    let time = float_of_int !step *. dt in
    (* Task arrivals land in the queue at step resolution: advancing
       the tail cursor is the whole enqueue. *)
    while !q_tail < n_tasks && Array.unsafe_get arrivals !q_tail <= time do
      incr q_tail
    done;
    if !epoch_countdown = 0 then epoch_boundary time;
    if !q_head < !q_tail && !n_running < n_cores then dispatch time;
    (* Advance running tasks at the current frequencies. *)
    for c = 0 to n_cores - 1 do
      let r = Array.unsafe_get running c in
      if r <> Array.unsafe_get busy c then begin
        Array.unsafe_set busy c r;
        power_dirty := true
      end;
      if r then begin
        Array.unsafe_set busy_acc c (Array.unsafe_get busy_acc c +. dt);
        let w' = Array.unsafe_get remaining c -. Array.unsafe_get progress c in
        if w' <= 0.0 then begin
          Array.unsafe_set running c false;
          decr n_running;
          incr completed;
          Stats.record_completion stats
        end
        else Array.unsafe_set remaining c w'
      end
    done;
    (* Thermal step under the power this configuration draws. *)
    if !power_dirty then begin
      Machine.refresh_core_power machine ~frequencies ~busy ~dst:power;
      (* Only the core entries of [power] can have moved; the initial
         full [stepper_load_power] above covered the static rest. *)
      Thermal.Rc_model.stepper_reload_power_at stepper power
        machine.Machine.core_nodes;
      (* The ascending-index sum matches [Vec.sum power], so the
         energy accumulated below is bit-identical to the reference's
         per-step [record_power ~dt (Vec.sum power)]. *)
      let total = ref 0.0 in
      for i = 0 to n_nodes - 1 do
        total := !total +. power.(i)
      done;
      chip_power := !total;
      power_dirty := false
    end;
    Thermal.Rc_model.stepper_step_loaded_into stepper !temp ~dst:!temp_next;
    (let t = !temp in
     temp := !temp_next;
     temp_next := t);
    energy_acc := !energy_acc +. (!chip_power *. dt);
    Stats.record_step_nodes stats ~dt ~temperatures:!temp
      ~nodes:machine.Machine.core_nodes;
    if have_step then begin
      step_view.Probe.at <- time;
      step_view.Probe.temperatures <- !temp;
      step_view.Probe.chip_power <- !chip_power;
      for i = 0 to Array.length step_fns - 1 do
        (Array.unsafe_get step_fns i) step_view
      done
    end;
    decr epoch_countdown;
    incr step
  in
  while !live do
    let time = float_of_int !step *. dt in
    if (!q_tail >= n_tasks && !completed >= n_tasks) || time > deadline then
      live := false
    else step_once ()
  done;
  (* [0.0 +. e] is bitwise [e] for the nonnegative chip energy, so the
     one-shot flush matches the reference's per-step accumulation. *)
  Stats.record_energy stats !energy_acc;
  List.iter (fun p -> Option.iter (fun f -> f ()) p.Probe.on_finish) probes;
  {
    stats;
    unfinished = n_tasks - !completed;
    migrations = !migrations;
    wall_clock = Unix.gettimeofday () -. started;
  }

(* Per-core execution state of the reference implementation: the
   remaining work (seconds at fmax) of the running task, or none when
   idle. *)
type core_state = { mutable remaining : float option }

(* The straightforward implementation [run] was refactored from:
   allocates freely in the step loop (fresh temperature, power and
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
