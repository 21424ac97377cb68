open Linalg

(* A chip is [Sim.Engine.run] turned inside out: the same preallocated
   state and the same per-step operation sequence, but resumable — the
   fleet submits tasks between windows and advances the clock in
   slices instead of handing over one whole trace.  The step bodies
   below are copied from the engine's (same expressions, same
   evaluation order), so a one-chip fleet fed the whole trace produces
   bit-identical statistics to [Engine.run]; the golden test in
   test/test_fleet.ml pins that equivalence. *)

(* All-float sub-record: mutable float fields of a mixed record are
   boxed on every write, so the two per-step accumulators live here
   (the [Stats.acc] pattern). *)
type hot = { mutable chip_power : float; mutable energy_acc : float }

type t = {
  machine : Sim.Machine.t;
  controller : Sim.Policy.controller;
  assignment : Sim.Policy.assignment;
  dt : float;
  dfs_period : float;
  steps_per_epoch : int;
  n_cores : int;
  n_nodes : int;
  fmax : float;
  tmax : float;
  migration : bool;
  stats : Sim.Stats.t;
  stepper : Thermal.Rc_model.stepper;
  mutable temp : Vec.t;
  mutable temp_next : Vec.t;
  running : bool array;
  idle : bool array;  (* the assignment's candidate mask, see [dispatch] *)
  remaining : float array;
  frequencies : Vec.t;
  progress : Vec.t;  (* dt * f / fmax per core, cached per epoch *)
  busy : bool array;
  busy_acc : float array;
  power : Vec.t;
  core_temp : Vec.t;
  hot : hot;
  mutable power_dirty : bool;
  (* FIFO task queue as a power-of-two ring over two unboxed float
     arrays.  [q_head <= q_arrived <= q_tail] are absolute counters
     ([land q_mask] gives the slot): [q_head, q_arrived) are arrived
     and waiting for a core, [q_arrived, q_tail) were submitted by the
     fleet but have not reached their arrival instant yet. *)
  mutable q_arr : float array;
  mutable q_wrk : float array;
  mutable q_mask : int;
  mutable q_head : int;
  mutable q_arrived : int;
  mutable q_tail : int;
  mutable n_running : int;
  mutable step : int;
  mutable epoch_countdown : int;
  mutable submitted : int;
  mutable completed : int;
  mutable migrations : int;
  mutable finalized : bool;
}

let create ?(config = Sim.Engine.default_config) ~machine ~controller
    ~assignment () =
  let thermal = machine.Sim.Machine.thermal in
  let dt = thermal.Thermal.Rc_model.dt in
  let steps_per_epoch =
    let s = int_of_float (Float.round (config.Sim.Engine.dfs_period /. dt)) in
    if s < 1 then invalid_arg "Chip.create: dfs_period below the thermal step";
    s
  in
  let n_cores = machine.Sim.Machine.n_cores in
  let n_nodes = machine.Sim.Machine.n_nodes in
  let ambient = thermal.Thermal.Rc_model.ambient in
  let t0 = Option.value config.Sim.Engine.t_initial ~default:ambient in
  let stepper = Thermal.Rc_model.compile_stepper thermal in
  let power = Vec.zeros n_nodes in
  Array.blit machine.Sim.Machine.fixed_power 0 power 0 n_nodes;
  Thermal.Rc_model.stepper_load_power stepper power;
  let cap = 64 in
  {
    machine;
    controller;
    assignment;
    dt;
    dfs_period = config.Sim.Engine.dfs_period;
    steps_per_epoch;
    n_cores;
    n_nodes;
    fmax = machine.Sim.Machine.fmax;
    tmax = config.Sim.Engine.tmax;
    migration = config.Sim.Engine.migration;
    stats = Sim.Stats.create ~n_cores ~tmax:config.Sim.Engine.tmax ();
    stepper;
    temp = Vec.create n_nodes t0;
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
  }

let time t = float_of_int t.step *. t.dt
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
  let nodes = t.machine.Sim.Machine.core_nodes in
  let temp = t.temp in
  let m = ref (Array.unsafe_get temp (Array.unsafe_get nodes 0)) in
  for i = 1 to Array.length nodes - 1 do
    let x = Array.unsafe_get temp (Array.unsafe_get nodes i) in
    if x > !m then m := x
  done;
  !m

let submit t ~arrival ~work =
  if work < 0.0 || Float.is_nan work || Float.is_nan arrival then
    invalid_arg "Chip.submit: bad task";
  if t.q_tail - t.q_head > t.q_mask then begin
    (* Ring full: double, unrolling the old ring in queue order. *)
    let old_cap = t.q_mask + 1 in
    let cap = 2 * old_cap in
    let arr = Array.make cap 0.0 and wrk = Array.make cap 0.0 in
    for k = t.q_head to t.q_tail - 1 do
      arr.(k land (cap - 1)) <- t.q_arr.(k land t.q_mask);
      wrk.(k land (cap - 1)) <- t.q_wrk.(k land t.q_mask)
    done;
    t.q_arr <- arr;
    t.q_wrk <- wrk;
    t.q_mask <- cap - 1
  end;
  t.q_arr.(t.q_tail land t.q_mask) <- arrival;
  t.q_wrk.(t.q_tail land t.q_mask) <- work;
  t.q_tail <- t.q_tail + 1;
  t.submitted <- t.submitted + 1

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

(* --- the engine loop, verbatim but over the ring queue --- *)

let queued_work t =
  (* Same fold order as [Engine.run.queued_work]: arrived queue front
     to back, then running cores. *)
  let acc = ref 0.0 in
  for k = t.q_head to t.q_arrived - 1 do
    acc := !acc +. t.q_wrk.(k land t.q_mask)
  done;
  for c = 0 to t.n_cores - 1 do
    if t.running.(c) then acc := !acc +. t.remaining.(c)
  done;
  !acc

let observe t time =
  let core_temperatures = Sim.Machine.core_temperatures t.machine t.temp in
  let work = queued_work t in
  let runnable =
    let r = ref (t.q_arrived - t.q_head) in
    for c = 0 to t.n_cores - 1 do
      if t.running.(c) then incr r
    done;
    !r
  in
  let parallelism = Stdlib.max 1 (Stdlib.min t.n_cores runnable) in
  let capacity = float_of_int parallelism *. t.dfs_period in
  let required = work /. capacity *. t.fmax in
  {
    Sim.Policy.time;
    core_temperatures;
    max_core_temperature = Vec.max core_temperatures;
    required_frequency = Float.min t.fmax (Float.max 0.0 required);
    core_fmax = t.machine.Sim.Machine.core_fmax;
    utilizations =
      Vec.init t.n_cores (fun c -> t.busy_acc.(c) /. t.dfs_period);
    queue_length = t.q_arrived - t.q_head;
    queued_work = work;
  }

let dispatch t time =
  Sim.Machine.core_temperatures_into t.machine t.temp ~dst:t.core_temp;
  (* Filled once per dispatch chain; each pick clears its own cell. *)
  for c = 0 to t.n_cores - 1 do
    t.idle.(c) <- not t.running.(c)
  done;
  let continue = ref true in
  while !continue && t.q_head < t.q_arrived && t.n_running < t.n_cores do
    match
      t.assignment.Sim.Policy.choose ~idle:t.idle
        ~core_classes:t.machine.Sim.Machine.platform.Sim.Platform.assignment
        ~core_temperatures:t.core_temp
    with
    | None -> continue := false
    | Some c ->
        if t.running.(c) then
          invalid_arg "Chip: assignment picked a busy core";
        let k = t.q_head land t.q_mask in
        t.q_head <- t.q_head + 1;
        t.running.(c) <- true;
        t.idle.(c) <- false;
        t.n_running <- t.n_running + 1;
        t.remaining.(c) <- t.q_wrk.(k);
        (* The arrival gate in [step_once] guarantees
           [arrival <= time], so this matches the engine's
           [Float.max 0.0] clamp bit-for-bit; any residual float dust
           is absorbed by [Stats.record_waiting]'s epsilon clamp. *)
        Sim.Stats.record_waiting t.stats
          (Float.max 0.0 (time -. t.q_arr.(k)))
  done

let epoch_boundary t time =
  t.epoch_countdown <- t.steps_per_epoch;
  let obs = observe t time in
  let f = t.controller.Sim.Policy.decide obs in
  if Vec.dim f <> t.n_cores then
    invalid_arg "Chip: controller returned a bad frequency vector";
  for c = 0 to t.n_cores - 1 do
    if Float.is_nan f.(c) then
      invalid_arg "Chip: controller returned a NaN frequency"
  done;
  let core_fmax = t.machine.Sim.Machine.core_fmax in
  for c = 0 to t.n_cores - 1 do
    t.frequencies.(c) <- Float.min core_fmax.(c) (Float.max 0.0 f.(c));
    t.progress.(c) <- t.dt *. t.frequencies.(c) /. t.fmax
  done;
  t.power_dirty <- true;
  Array.fill t.busy_acc 0 t.n_cores 0.0;
  if t.migration then begin
    let core_temperatures = Sim.Machine.core_temperatures t.machine t.temp in
    for c = 0 to t.n_cores - 1 do
      (* Bit-exact: 0.0 is the controller's shutdown sentinel. *)
      if t.running.(c) && Float.equal t.frequencies.(c) 0.0 then begin
        let best = ref (-1) in
        for d = 0 to t.n_cores - 1 do
          if
            (not t.running.(d))
            && t.frequencies.(d) > 0.0
            && (!best < 0 || core_temperatures.(d) < core_temperatures.(!best))
          then best := d
        done;
        if !best >= 0 then begin
          t.running.(!best) <- true;
          t.remaining.(!best) <- t.remaining.(c);
          t.running.(c) <- false;
          t.migrations <- t.migrations + 1
        end
      end
    done
  end

(* One thermal step — the fleet's per-chip hot path, listed in
   lint.manifest as [step_once]; same operation sequence as the
   engine's [run.step_once]. *)
let step_once t =
  let time = float_of_int t.step *. t.dt in
  while
    t.q_arrived < t.q_tail
    && Array.unsafe_get t.q_arr (t.q_arrived land t.q_mask) <= time
  do
    t.q_arrived <- t.q_arrived + 1
  done;
  if t.epoch_countdown = 0 then epoch_boundary t time;
  if t.q_head < t.q_arrived && t.n_running < t.n_cores then dispatch t time;
  for c = 0 to t.n_cores - 1 do
    let r = Array.unsafe_get t.running c in
    if r <> Array.unsafe_get t.busy c then begin
      Array.unsafe_set t.busy c r;
      t.power_dirty <- true
    end;
    if r then begin
      Array.unsafe_set t.busy_acc c (Array.unsafe_get t.busy_acc c +. t.dt);
      let w' =
        Array.unsafe_get t.remaining c -. Array.unsafe_get t.progress c
      in
      if w' <= 0.0 then begin
        Array.unsafe_set t.running c false;
        t.n_running <- t.n_running - 1;
        t.completed <- t.completed + 1;
        Sim.Stats.record_completion t.stats
      end
      else Array.unsafe_set t.remaining c w'
    end
  done;
  if t.power_dirty then begin
    Sim.Machine.refresh_core_power t.machine ~frequencies:t.frequencies
      ~busy:t.busy ~dst:t.power;
    Thermal.Rc_model.stepper_reload_power_at t.stepper t.power
      t.machine.Sim.Machine.core_nodes;
    let total = ref 0.0 in
    for i = 0 to t.n_nodes - 1 do
      total := !total +. t.power.(i)
    done;
    t.hot.chip_power <- !total;
    t.power_dirty <- false
  end;
  Thermal.Rc_model.stepper_step_loaded_into t.stepper t.temp ~dst:t.temp_next;
  (let tmp = t.temp in
   t.temp <- t.temp_next;
   t.temp_next <- tmp);
  t.hot.energy_acc <- t.hot.energy_acc +. (t.hot.chip_power *. t.dt);
  Sim.Stats.record_step_nodes t.stats ~dt:t.dt ~temperatures:t.temp
    ~nodes:t.machine.Sim.Machine.core_nodes;
  t.epoch_countdown <- t.epoch_countdown - 1;
  t.step <- t.step + 1

let advance t ~until =
  while float_of_int t.step *. t.dt < until do
    step_once t
  done

let drain t ~deadline =
  (* Same stop condition and check order as the engine's main loop:
     test done-or-past-deadline at the head of each step. *)
  let live = ref true in
  while !live do
    let time = float_of_int t.step *. t.dt in
    if t.completed >= t.submitted || time > deadline then live := false
    else step_once t
  done

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    (* One flush, exactly like the engine's end-of-run
       [record_energy]: [0.0 +. e] is bitwise [e] for the nonnegative
       accumulated energy. *)
    Sim.Stats.record_energy t.stats t.hot.energy_acc
  end
