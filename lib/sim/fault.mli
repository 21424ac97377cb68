(** Fault injection on the controller's observation/actuation path.

    The paper's guarantee assumes perfect per-core sensors, zero
    observation latency, and a continuous frequency actuator.  Real
    thermal-management units have none of these: sensors are noisy and
    occasionally die, readings arrive a control period late, and DVFS
    snaps to a ladder of operating points.  A fault is a composable
    imperfection injected between the engine and the controller:
    {!wrap} builds a controller that sees a corrupted observation and
    whose decisions pass through the corrupted actuator, while the
    plant underneath stays exact — so a run measures what the policy
    does under the fault, not what the fault does to physics.

    Every fault is deterministic: noise comes from a seeded splitmix64
    stream owned by the wrapped controller, so a fresh wrap (e.g. one
    per campaign cell) reproduces the same corruption sequence at any
    domain count. *)

type t =
  | Sensor_noise of { seed : int64; magnitude : float }
      (** Adds an independent uniform [[-magnitude, +magnitude]]
          perturbation (degrees C) to every core reading at every
          decision.  Bounded by construction, so a guard band of at
          least [magnitude] restores the guarantee. *)
  | Stuck_sensor of { core : int; reading : float option }
      (** Core [core]'s sensor reports [reading] forever; with [None]
          it freezes at the first value it observes (a sensor that
          died at run start). *)
  | Stale_observation of { epochs : int }
      (** The controller sees core temperatures from [epochs]
          decisions ago (the oldest available reading during the first
          [epochs] windows) — observation latency in whole DFS
          periods. *)
  | Quantized_actuator of { levels : float array }
      (** Every requested core frequency is floored onto the ascending
          ladder [levels] (0 when below the lowest level) — pass
          [Protemp.Ladder.levels] to model a real DVFS ladder.
          Rounding down only ever lowers power, so this fault degrades
          throughput, never safety. *)

val sensor_noise : ?seed:int64 -> magnitude:float -> unit -> t
(** [seed] defaults to [1807L].  Raises [Invalid_argument] on a
    negative magnitude. *)

val stuck_sensor : ?reading:float -> core:int -> unit -> t
(** Raises [Invalid_argument] on a negative core index.  A core at or
    beyond the observed chip's core count is rejected when the
    wrapped controller first decides ({!wrap}): a fault on a core that
    does not exist is an error, never a run without the fault. *)

val stale_observation : epochs:int -> t
(** Raises [Invalid_argument] unless [epochs >= 1]. *)

val quantized_actuator : levels:float array -> t
(** Raises [Invalid_argument] on an empty, unsorted or non-positive
    ladder. *)

val ladder_floor : float array -> float -> float
(** [ladder_floor levels f] is the largest entry of the ascending,
    non-empty [levels] at or below [f], and [0.0] (core off) when
    [f] is below them all — the floor {!Quantized_actuator} applies,
    and [Protemp.Ladder.floor]'s.  Allocation-free. *)

val name : t -> string
(** A short label ("noise2.0C", "stuck3@85.0C", "stale2",
    "ladder8") for scenario names and reports. *)

val wrap : faults:t list -> Policy.controller -> Policy.controller
(** [wrap ~faults c] observes through, and actuates through, every
    fault in list order: observation faults corrupt the temperatures
    the controller sees (the observation's [max_core_temperature] is
    recomputed from the corrupted readings), actuator faults corrupt
    the frequencies it answers.  [wrap ~faults:[] c] is [c] itself.
    The wrapped controller carries the faults' mutable state (noise
    stream, freeze latch, staleness buffer), so build one per run.
    Its name is the base name with the fault labels appended. *)
