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

(* All-float sub-record: mutable float fields of a mixed record are
   boxed on every write, so the two running accumulators live here
   (the [Stats.acc] pattern).  The step loop keeps them in unboxed
   locals and writes them back when it returns. *)
type hot = { mutable chip_power : float; mutable energy_acc : float }

type t = {
  machine : Machine.t;
  controller : Policy.controller;
  assignment : Policy.assignment;
  dt : float;
  dfs_period : float;
  steps_per_epoch : int;
  n_cores : int;
  n_nodes : int;
  fmax : float;
  tmax : float;
  migration : bool;
  stats : Stats.t;
  stepper : Thermal.Rc_model.stepper;
  mutable temp : Vec.t;
  mutable temp_next : Vec.t;
  running : bool array;
  idle : bool array;  (* the assignment's candidate mask, see [dispatch] *)
  remaining : float array;
  frequencies : Vec.t;
  (* Per-core work advanced per busy step, [dt * f / fmax].  The
     frequencies only move at epoch boundaries, so the division is paid
     once per epoch instead of once per busy core per step. *)
  progress : Vec.t;
  busy : bool array;
  busy_acc : float array;
  power : Vec.t;
  core_temp : Vec.t;
  hot : hot;
  (* The power vector only changes when the controller moves the
     frequencies or a core starts/stops; between those events the step
     loop reuses [power], the stepper's loaded injection products and
     the cached chip total in [hot.chip_power]. *)
  mutable power_dirty : bool;
  (* FIFO task queue as a power-of-two ring over two unboxed float
     arrays (reading a float field of the mixed [Task.t] record would
     go through a box).  [q_head <= q_arrived <= q_tail] are absolute
     counters ([land q_mask] gives the slot): [q_head, q_arrived) are
     arrived and waiting for a core, [q_arrived, q_tail) were submitted
     but have not reached their arrival instant yet. *)
  mutable q_arr : float array;
  mutable q_wrk : float array;
  mutable q_mask : int;
  mutable q_head : int;
  mutable q_arrived : int;
  mutable q_tail : int;
  mutable n_running : int;
  mutable step : int;
  (* Steps until the next DFS boundary; counting down avoids an integer
     division per step. *)
  mutable epoch_countdown : int;
  mutable submitted : int;
  mutable completed : int;
  mutable migrations : int;
  mutable finalized : bool;
  epoch_fns : (Probe.epoch_view -> unit) array;
  step_fns : (Probe.step_view -> unit) array;
  (* One mutable view refilled in place each step keeps attached probes
     cheap; with no step probes the loop never touches it. *)
  step_view : Probe.step_view;
}

let create ?(config = default_config) ?(probes = []) ~machine ~controller
    ~assignment () =
  (* A non-finite period, drain limit or start temperature would hang
     the loop or poison every statistic; [Stats.create] checks [tmax]. *)
  let finite name x =
    if not (Float.is_finite x) then invalid_arg ("Chip.create: non-finite " ^ name)
  in
  finite "dfs_period" config.dfs_period;
  finite "drain_limit" config.drain_limit;
  Option.iter (finite "t_initial") config.t_initial;
  let thermal = machine.Machine.thermal in
  let dt = thermal.Thermal.Rc_model.dt in
  let steps_per_epoch =
    Machine.window_steps machine ~period:config.dfs_period
  in
  if steps_per_epoch < 1 then
    invalid_arg "Chip.create: dfs_period below the thermal step";
  let n_cores = machine.Machine.n_cores in
  let n_nodes = machine.Machine.n_nodes in
  let t0 =
    Option.value config.t_initial ~default:thermal.Thermal.Rc_model.ambient
  in
  let stepper = Thermal.Rc_model.compile_stepper thermal in
  let power = Vec.zeros n_nodes in
  (* The non-core entries of the power vector are the static
     [fixed_power], which never changes: install it once and let
     [Machine.refresh_core_power] rewrite only the core entries.  One
     full load caches their injection products; the loop only ever
     reloads the core nodes. *)
  Array.blit machine.Machine.fixed_power 0 power 0 n_nodes;
  Thermal.Rc_model.stepper_load_power stepper power;
  let temp = Vec.create n_nodes t0 in
  let cap = 64 in
  {
    machine;
    controller;
    assignment;
    dt;
    dfs_period = config.dfs_period;
    steps_per_epoch;
    n_cores;
    n_nodes;
    fmax = machine.Machine.fmax;
    tmax = config.tmax;
    migration = config.migration;
    stats = Stats.create ~n_cores ~tmax:config.tmax ();
    stepper;
    temp;
    temp_next = Vec.zeros n_nodes;
    running = Array.make n_cores false;
    idle = Array.make n_cores false;
    remaining = Array.make n_cores 0.0;
    frequencies = Vec.zeros n_cores;
    progress = Vec.zeros n_cores;
    busy = Array.make n_cores false;
    busy_acc = Array.make n_cores 0.0;
    power;
    core_temp = Vec.zeros n_cores;
    hot = { chip_power = 0.0; energy_acc = 0.0 };
    power_dirty = true;
    q_arr = Array.make cap 0.0;
    q_wrk = Array.make cap 0.0;
    q_mask = cap - 1;
    q_head = 0;
    q_arrived = 0;
    q_tail = 0;
    n_running = 0;
    step = 0;
    epoch_countdown = 0;
    submitted = 0;
    completed = 0;
    migrations = 0;
    finalized = false;
    epoch_fns = Array.of_list (List.filter_map (fun p -> p.Probe.on_epoch) probes);
    step_fns = Array.of_list (List.filter_map (fun p -> p.Probe.on_step) probes);
    step_view =
      {
        Probe.at = 0.0;
        dt;
        temperatures = temp;
        core_nodes = machine.Machine.core_nodes;
        chip_power = 0.0;
      };
  }

let tmax t = t.tmax
let stats t = t.stats
let n_cores t = t.n_cores
let submitted t = t.submitted
let completed t = t.completed
let unfinished t = t.submitted - t.completed
let queued t = t.q_tail - t.q_head
let migrations t = t.migrations

(* Hottest core right now; listed in lint.manifest — the fleet reads
   this for every chip at every routing window. *)
let max_core_temperature t =
  let nodes = t.machine.Machine.core_nodes in
  let temp = t.temp in
  let m = ref (Array.unsafe_get temp (Array.unsafe_get nodes 0)) in
  for i = 1 to Array.length nodes - 1 do
    let x = Array.unsafe_get temp (Array.unsafe_get nodes i) in
    if x > !m then m := x
  done;
  !m

(* Grow the ring to hold at least [need] queued tasks, doubling and
   unrolling the old ring in queue order — one allocation however many
   doublings it takes. *)
let reserve t need =
  if need > t.q_mask + 1 then begin
    let cap = ref (t.q_mask + 1) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let mask = !cap - 1 in
    let arr = Array.make !cap 0.0 and wrk = Array.make !cap 0.0 in
    for k = t.q_head to t.q_tail - 1 do
      arr.(k land mask) <- t.q_arr.(k land t.q_mask);
      wrk.(k land mask) <- t.q_wrk.(k land t.q_mask)
    done;
    t.q_arr <- arr;
    t.q_wrk <- wrk;
    t.q_mask <- mask
  end

(* Enqueue into a ring already known to have room. *)
let push t ~arrival ~work =
  if work < 0.0 || Float.is_nan work || Float.is_nan arrival then
    invalid_arg "Chip.submit: bad task";
  t.q_arr.(t.q_tail land t.q_mask) <- arrival;
  t.q_wrk.(t.q_tail land t.q_mask) <- work;
  t.q_tail <- t.q_tail + 1;
  t.submitted <- t.submitted + 1

let submit t ~arrival ~work =
  reserve t (t.q_tail - t.q_head + 1);
  push t ~arrival ~work

let submit_trace t trace =
  let tasks = trace.Workload.Trace.tasks in
  reserve t (t.q_tail - t.q_head + Array.length tasks);
  Array.iter
    (fun task ->
      push t ~arrival:task.Workload.Task.arrival ~work:task.Workload.Task.work)
    tasks

let take_queued t ~max:m =
  (* Pop undispatched tasks off the ring's tail (latest arrivals
     first), so the head FIFO and the non-decreasing-arrival invariant
     of what remains are untouched.  Returned slice is back in
     ascending arrival order. *)
  let k = Stdlib.min m (t.q_tail - t.q_head) in
  if k <= 0 then [||]
  else begin
    let out = Array.make k (0.0, 0.0) in
    for i = 0 to k - 1 do
      let slot = (t.q_tail - k + i) land t.q_mask in
      out.(i) <- (t.q_arr.(slot), t.q_wrk.(slot))
    done;
    t.q_tail <- t.q_tail - k;
    if t.q_arrived > t.q_tail then t.q_arrived <- t.q_tail;
    t.submitted <- t.submitted - k;
    out
  end

(* The one step loop.  [draining] selects the stop rule: run until every
   submitted task has completed or the clock passes [limit], else until
   the clock reaches [limit].

   Everything the loop touches is loaded into locals for the duration
   of the call and written back at exit: local refs that never escape
   compile to unboxed mutable variables, whereas a mutable float field
   of [t] would box on every write and a mutable pointer field would go
   through the write barrier.  Each nested function below is called
   from exactly one site, in tail position, so the compiler turns it
   into a static handler inside this function: no closure, and float
   arguments such as [time] stay unboxed. *)
let run_loop t ~draining ~limit =
  let dt = t.dt and n_cores = t.n_cores and n_nodes = t.n_nodes in
  let fmax = t.fmax and dfs_period = t.dfs_period in
  let machine = t.machine and stepper = t.stepper and stats = t.stats in
  let core_nodes = machine.Machine.core_nodes in
  let core_fmax = machine.Machine.core_fmax in
  let core_classes = machine.Machine.platform.Platform.assignment in
  let running = t.running and idle = t.idle and busy = t.busy in
  let busy_acc = t.busy_acc and remaining = t.remaining in
  let frequencies = t.frequencies and progress = t.progress in
  let power = t.power and core_temp = t.core_temp in
  (* Nothing submits or takes tasks while the loop runs. *)
  let q_arr = t.q_arr and q_wrk = t.q_wrk and q_mask = t.q_mask in
  let q_tail = t.q_tail and submitted = t.submitted in
  let epoch_fns = t.epoch_fns and step_fns = t.step_fns in
  let step_view = t.step_view in
  let have_step = Array.length step_fns > 0 in
  let step = ref t.step in
  let epoch_countdown = ref t.epoch_countdown in
  let power_dirty = ref t.power_dirty in
  let chip_power = ref t.hot.chip_power in
  let energy_acc = ref t.hot.energy_acc in
  let temp = ref t.temp in
  let temp_next = ref t.temp_next in
  let q_head = ref t.q_head and q_arrived = ref t.q_arrived in
  let n_running = ref t.n_running and completed = ref t.completed in
  let queued_work () =
    (* Arrived queue front to back, then running cores. *)
    let acc = ref 0.0 in
    for k = !q_head to !q_arrived - 1 do
      acc := !acc +. q_wrk.(k land q_mask)
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
      let r = ref (!q_arrived - !q_head) in
      for c = 0 to n_cores - 1 do
        if running.(c) then incr r
      done;
      !r
    in
    let parallelism = Stdlib.max 1 (Stdlib.min n_cores runnable) in
    let capacity = float_of_int parallelism *. dfs_period in
    let required = work /. capacity *. fmax in
    {
      Policy.time;
      core_temperatures;
      max_core_temperature = Vec.max core_temperatures;
      required_frequency = Float.min fmax (Float.max 0.0 required);
      core_fmax;
      utilizations = Vec.init n_cores (fun c -> busy_acc.(c) /. dfs_period);
      queue_length = !q_arrived - !q_head;
      queued_work = work;
    }
  in
  (* DFS epoch boundary — the cold path, once per control window:
     observe, ask the controller for new frequencies, clamp, notify
     epoch probes, optionally migrate. *)
  let epoch_boundary time =
    epoch_countdown := t.steps_per_epoch;
    let obs = observe time in
    let f = t.controller.Policy.decide obs in
    if Vec.dim f <> n_cores then
      invalid_arg "Chip: controller returned a bad frequency vector";
    for c = 0 to n_cores - 1 do
      if Float.is_nan f.(c) then
        invalid_arg "Chip: controller returned a NaN frequency"
    done;
    (* Clamp on both sides, in place: a buggy controller must not be
       able to run cores past their per-core hardware ceiling any more
       than below 0.  Progress stays in units of the chip reference
       [fmax]: queued work is seconds at that frequency, so a little
       core burns it more slowly. *)
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
    (* Optional task migration (a policy the paper composes with): a
       task stuck on a stopped core moves to the coolest idle core that
       was granted a non-zero frequency. *)
    if t.migration then begin
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
            t.migrations <- t.migrations + 1
          end
        end
      done
    end
  in
  (* Dispatch arrived tasks onto idle cores; the assignment policy may
     defer (thermally-aware admission control).  Only entered when a
     task waits and a core is idle, so the common steady-state step
     never pays for the temperature extraction or the mask fill.  The
     core temperatures cannot change within a step, so one extraction
     serves the whole chain; likewise the mask is filled once and each
     pick clears its own cell. *)
  let dispatch time =
    Machine.core_temperatures_into machine !temp ~dst:core_temp;
    for c = 0 to n_cores - 1 do
      idle.(c) <- not running.(c)
    done;
    let continue = ref true in
    while !continue && !q_head < !q_arrived && !n_running < n_cores do
      match
        t.assignment.Policy.choose ~idle ~core_classes
          ~core_temperatures:core_temp
      with
      | None -> continue := false
      | Some c ->
          if running.(c) then invalid_arg "Chip: assignment picked a busy core";
          let k = !q_head land q_mask in
          incr q_head;
          running.(c) <- true;
          idle.(c) <- false;
          incr n_running;
          remaining.(c) <- q_wrk.(k);
          (* The arrival gate guarantees [arrival <= time]; the clamp
             only guards float dust. *)
          Stats.record_waiting stats (Float.max 0.0 (time -. q_arr.(k)))
    done
  in
  (* One thermal step — the hot path, listed in lint.manifest as
     [run_loop.step_once], so its body must stay free of syntactic
     allocation sites; the [Gc.minor_words] tests check that the
     compiled code allocates nothing either.  It takes [unit] and
     recomputes the time from [step], the bit-identical expression the
     loop head evaluates. *)
  let step_once () =
    let time = float_of_int !step *. dt in
    (* Task arrivals land in the queue at step resolution: advancing
       the arrival cursor is the whole enqueue. *)
    while
      !q_arrived < q_tail
      && Array.unsafe_get q_arr (!q_arrived land q_mask) <= time
    do
      incr q_arrived
    done;
    if !epoch_countdown = 0 then epoch_boundary time;
    if !q_head < !q_arrived && !n_running < n_cores then dispatch time;
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
      (* Only the core entries of [power] can have moved; the full
         [stepper_load_power] in [create] covered the static rest. *)
      Thermal.Rc_model.stepper_reload_power_at stepper power core_nodes;
      (* The ascending-index sum matches [Vec.sum power], so the energy
         accumulated below is bit-identical to the reference's per-step
         [record_power ~dt (Vec.sum power)]. *)
      let total = ref 0.0 in
      for i = 0 to n_nodes - 1 do
        total := !total +. Array.unsafe_get power i
      done;
      chip_power := !total;
      power_dirty := false
    end;
    Thermal.Rc_model.stepper_step_loaded_into stepper !temp ~dst:!temp_next;
    (let tmp = !temp in
     temp := !temp_next;
     temp_next := tmp);
    energy_acc := !energy_acc +. (!chip_power *. dt);
    Stats.record_step_nodes stats ~dt ~temperatures:!temp ~nodes:core_nodes;
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
  let live = ref true in
  while !live do
    let time = float_of_int !step *. dt in
    (* [not (time < limit)] also stops on a NaN limit. *)
    if
      if draining then !completed >= submitted || time > limit
      else not (time < limit)
    then live := false
    else step_once ()
  done;
  t.step <- !step;
  t.epoch_countdown <- !epoch_countdown;
  t.power_dirty <- !power_dirty;
  t.hot.chip_power <- !chip_power;
  t.hot.energy_acc <- !energy_acc;
  t.temp <- !temp;
  t.temp_next <- !temp_next;
  t.q_head <- !q_head;
  t.q_arrived <- !q_arrived;
  t.n_running <- !n_running;
  t.completed <- !completed

let advance t ~until = run_loop t ~draining:false ~limit:until

let drain t ~deadline =
  if Float.is_nan deadline then invalid_arg "Chip.drain: NaN deadline";
  run_loop t ~draining:true ~limit:deadline

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    (* One flush of the energy accumulated step by step: [0.0 +. e] is
       bitwise [e] for the nonnegative total, so this matches the
       reference's per-step [record_power]. *)
    Stats.record_energy t.stats t.hot.energy_acc
  end
