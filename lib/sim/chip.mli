(** One simulated chip, stepped resumably: the simulator's only step
    loop.

    A chip co-simulates task arrival, assignment and execution with the
    thermal network at the thermal step (0.4 ms for the Niagara
    machine), invoking the DFS controller every [dfs_period] (100 ms),
    as the paper's evaluation infrastructure does.  Tasks are
    {!submit}ted ahead of their arrival and the clock moves in slices
    ({!advance}) or until the work is done ({!drain}).  {!Engine.run}
    is one chip fed a whole trace and drained; the fleet submits tasks
    between routing windows and advances its chips in slices.

    The step loop is allocation-free in the steady state: temperature
    ping-pong buffers, the power and core-temperature scratch vectors,
    per-core run state and the ring task queue are preallocated, and
    the thermal recurrence runs through
    {!Thermal.Rc_model.compile_stepper}.  Allocation only happens at
    cold edges (epoch boundaries, dispatch).

    Chips are single-threaded values: the fleet advances disjoint chips
    on different pool domains, which is safe because a chip shares no
    mutable state with any other (controllers reading one mapped table
    store share only its immutable mapping). *)

type config = {
  dfs_period : float;  (** Seconds between controller invocations. *)
  tmax : float;  (** Threshold used for violation statistics. *)
  t_initial : float option;
      (** Initial temperature of every node; defaults to the thermal
          model's ambient. *)
  drain_limit : float;
      (** Extra simulated seconds allowed after the last arrival
          before giving up on stragglers ({!Engine.run}'s drain
          deadline; a chip itself stops where {!drain} is told to). *)
  migration : bool;
      (** Move tasks off stopped cores onto the coolest idle running
          core at each DFS boundary — the task-migration policy class
          the paper cites as composable with Pro-Temp.  Off by
          default. *)
}

val default_config : config
(** [dfs_period = 0.1], [tmax = 100.0], ambient start,
    [drain_limit = 60.0], migration off. *)

type t

val create :
  ?config:config ->
  ?probes:Probe.t list ->
  machine:Machine.t ->
  controller:Policy.controller ->
  assignment:Policy.assignment ->
  unit ->
  t
(** [config] defaults to {!default_config}.  The controller and
    assignment may be stateful — build one per chip.  Raises
    [Invalid_argument] on a non-finite [tmax], [dfs_period],
    [drain_limit] or [t_initial], or a [dfs_period] below the thermal
    step.

    [probes] observe the chip ({!Probe.t}): each epoch callback fires
    at every DFS boundary with what the controller saw and decided,
    each step callback after every thermal step, in probe order.
    Finish callbacks are the caller's to run ({!Engine.run} does).  A
    callback must not read the chip itself: the loop keeps its state
    in locals and writes it back only when {!advance} or {!drain}
    returns. *)

val submit : t -> arrival:float -> work:float -> unit
(** Enqueue a task.  Tasks become visible to the dispatcher once the
    chip's clock reaches [arrival] (an [arrival] already in the past
    is picked up on the next step).  Submissions should arrive in
    non-decreasing [arrival] order — the arrival gate scans the queue
    in submission order and stops at the first future task, so an
    out-of-order submission is only picked up when its predecessor
    arrives (never lost, but delayed).  Raises [Invalid_argument] on
    NaN or negative work or a NaN arrival. *)

val submit_trace : t -> Workload.Trace.t -> unit
(** {!submit} every task of the trace in order, growing the queue
    once for all of them. *)

val advance : t -> until:float -> unit
(** Step the chip until its clock reaches [until] (first step time
    [>= until] is left unexecuted), whether or not tasks remain. *)

val drain : t -> deadline:float -> unit
(** Step until every submitted task has completed or the clock passes
    [deadline].  Raises [Invalid_argument] on a NaN deadline. *)

val finalize : t -> unit
(** Flush the accumulated energy into the chip's stats, once.
    Idempotent.  Call after the final {!drain}, before reading
    {!stats}. *)

val take_queued : t -> max:int -> (float * float) array
(** Remove up to [max] undispatched tasks from the back of the queue
    (latest arrivals) and return them as [(arrival, work)] pairs in
    ascending arrival order — the fleet's migration primitive.
    Already-running tasks are never taken. *)

val max_core_temperature : t -> float
(** Hottest core right now — the fleet balancer's routing signal.
    Allocation-free (lint.manifest). *)

val stats : t -> Stats.t
val n_cores : t -> int

val tmax : t -> float
(** The thermal threshold the chip was configured with — the
    reference for the fleet's headroom computations. *)

val submitted : t -> int
(** Tasks submitted and not subsequently taken back. *)

val completed : t -> int

val unfinished : t -> int
(** [submitted - completed]. *)

val queued : t -> int
(** Tasks waiting (arrived or pending), excluding running ones. *)

val migrations : t -> int
(** Core-level migrations performed by the chip's own epoch logic
    (when [config.migration] is on) — distinct from fleet-level task
    migration. *)
