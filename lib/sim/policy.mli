(** Controller and task-assignment policy interfaces.

    A {e controller} is the DFS decision function the thermal
    management unit invokes once per DFS period; an {e assignment
    policy} picks which idle core receives the next queued task.
    Keeping them first-class values (rather than functors) lets the
    benches enumerate policy combinations. *)

open Linalg

type observation = {
  time : float;  (** Start of the upcoming DFS window, seconds. *)
  core_temperatures : Vec.t;
  max_core_temperature : float;
  required_frequency : float;
      (** Average frequency (Hz, in units of the chip reference
          [Machine.fmax]) needed to clear the current backlog within
          the window, accounting for how many cores the runnable
          tasks can actually occupy; already clamped to
          [[0, fmax]]. *)
  core_fmax : Vec.t;
      (** Per-core frequency ceilings — on an asymmetric platform the
          requirement above may exceed what a little core can run, so
          controllers clamp per core against this.  Shared with the
          machine: treat as read-only. *)
  utilizations : Vec.t;
      (** Per-core busy fraction over the elapsed window. *)
  queue_length : int;
  queued_work : float;  (** Seconds at the chip reference frequency,
                            including running tasks' remaining work. *)
}

type controller = {
  controller_name : string;
  decide : observation -> Vec.t;
      (** Returns per-core frequencies in Hz for the next window
          (0 = shut down). *)
}

type assignment = {
  assignment_name : string;
  choose :
    idle:bool array ->
    core_classes:int array ->
    core_temperatures:Vec.t ->
    int option;
      (** Pick a candidate core, or [None] to defer dispatch to a
          later step (thermally-aware admission control).  [idle] is
          a mask with one cell per core: cell [k] is [true] when core
          [k] is a candidate, and at least one cell is [true].  The
          caller owns the mask and refills it in place between calls,
          so a policy reads it and must neither write it nor keep it.
          The answer must be an index whose cell is [true].
          [core_classes] gives each core's platform class index (all
          zeros on a homogeneous machine); like [core_temperatures]
          it is read-only.  The built-in policies scan the mask in
          ascending index order and allocate nothing but the
          returned [Some]. *)
}

val first_idle : assignment
(** The paper's simple policy: any idle processor — we take the
    lowest-numbered one. *)

val coolest_first : assignment
(** Send work to the coldest idle core (always dispatches). *)

val cool_headroom : threshold:float -> assignment
(** The temperature-aware allocation in the spirit of Coskun et
    al. [26] (the paper's "efficient task assignment", Sec. 5.4):
    dispatch to the coldest idle core, but only if it is below
    [threshold]; otherwise hold the task so the hot cores get a
    breather. *)

val prefer_class : cls:int -> assignment
(** Heterogeneity-aware: dispatch to the coldest idle core of
    platform class [cls] when one is idle, else the coldest idle
    core overall.  [prefer_class ~cls:1] on the big.LITTLE platform
    keeps work on the cool little cores until they are all busy. *)

val fixed_frequency : fmax:float -> float -> controller
(** A controller that always answers the same frequency on all cores
    (clamped to [[0, fmax]]); useful for tests and warm-up phases. *)

val workload_following : fmax:float -> controller
(** Matches the application performance level with no thermal action:
    every core runs at the observation's [required_frequency],
    clamped per core against both [fmax] and the core's own ceiling.
    This is the paper's No-TC reference. *)

val integral_feedback : ?gain:float -> ?setpoint:float -> unit -> controller
(** The adjustable-gain integral controller of Rao et al.
    (arXiv:1507.06357): per core, a frequency state accumulates
    [gain * (setpoint - T_c)] each window, clamped to the core's
    [[0, core_fmax]] range, and the decided frequency is the minimum
    of that state and the (per-core-clamped) required frequency.
    Pure feedback — no table, no thermal model — so it is cheap and
    needs no offline phase, but it reacts only after the temperature
    error appears.  [gain] is in Hz per degree per window (default
    2e7: a 5-degree overshoot sheds 100 MHz per window); [setpoint]
    defaults to the engine's 100-degree tmax.  Stateful: build a
    fresh instance per run. *)
