(** The discrete-time full-system simulator: one {!Chip} fed a whole
    trace.

    Runs the trace on a fresh chip until every task has executed, or
    until the drain deadline ([horizon + drain_limit]) for controllers
    too slow to ever finish.  The step loop, its allocation discipline
    and its validation of controller output live in {!Chip}; this
    module adds the whole-run result. *)

open Linalg

type config = Chip.config = {
  dfs_period : float;
  tmax : float;
  t_initial : float option;
  drain_limit : float;
  migration : bool;
}
(** {!Chip.config}, re-exported so callers can write
    [{ Engine.default_config with ... }]; [drain_limit] sets {!run}'s
    drain deadline. *)

val default_config : config
(** {!Chip.default_config}. *)

type result = {
  stats : Stats.t;
  unfinished : int;  (** Tasks not completed by the drain deadline. *)
  migrations : int;  (** Tasks moved between cores (0 unless enabled). *)
  wall_clock : float;  (** Host seconds spent simulating. *)
}

val run :
  ?config:config ->
  ?probes:Probe.t list ->
  Machine.t ->
  Policy.controller ->
  Policy.assignment ->
  Workload.Trace.t ->
  result
(** Controller output is validated every epoch: a frequency vector of
    the wrong dimension or containing NaN raises [Invalid_argument];
    finite entries are clamped into [[0, fmax]], so a buggy controller
    can neither overclock the cores nor drive them negative.  A
    non-finite [config] entry raises [Invalid_argument] before the
    first step ({!Chip.create}).

    [probes] observe the run ({!Probe.t}): each epoch callback fires
    at every DFS boundary with what the controller saw and decided,
    each step callback after every thermal step, and finish callbacks
    once at the end, in probe order. *)

val run_recorded :
  ?config:config ->
  Machine.t ->
  Policy.controller ->
  Policy.assignment ->
  Workload.Trace.t ->
  result * Probe.sample array * (float * Vec.t) array
(** {!run} with a {!Probe.recorder} and a {!Probe.frequency_log}
    attached: the per-epoch temperature series and controller
    decisions that the paper's time-series figures plot. *)
