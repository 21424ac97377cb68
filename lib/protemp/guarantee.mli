(** The Pro-Temp temperature guarantee, made checkable.

    The argument: (1) the discrete step matrix is elementwise
    nonnegative, so temperatures are monotone in initial temperatures
    and powers; (2) the table entry for row [tstart] keeps every node
    below [tmax] for a whole window when all nodes start at [tstart]
    and every core burns the full modeled power; (3) the controller
    picks a row with [tstart >=] the observed maximum temperature and
    real powers never exceed the modeled ones.  Hence real
    temperatures are dominated by the certified trajectory.

    This module provides the window simulation used by (2) and a
    whole-table audit. *)

open Linalg

val window_peak :
  machine:Sim.Machine.t ->
  dfs_period:float ->
  tstart:float ->
  frequencies:Vec.t ->
  float
(** Worst node temperature over one DFS window when every node starts
    at [tstart] and every core runs busy at its assigned frequency —
    the certified upper envelope. *)

val uniform_table :
  machine:Sim.Machine.t ->
  spec:Spec.t ->
  ?margin:float ->
  tstarts:float array ->
  ftargets:float array ->
  unit ->
  Table.t
(** A certified table without the optimizer: cell [(tstart, ftarget)]
    holds the uniform per-core vector at [ftarget] when its
    {!window_peak} from [tstart] stays at or below
    [spec.tmax - margin], and is [Infeasible] otherwise.  Uniform
    cells forgo the paper's variable-assignment headroom, but every
    stored entry carries the same simulate-and-check certificate the
    audit uses — which makes this the cheap way to build guard-banded
    ([margin > 0]) reference tables for fault experiments.  [margin]
    defaults to [0.0] and is applied by {!Spec.guard_band}, which
    raises [Invalid_argument] on a negative, non-finite or
    envelope-swallowing margin. *)

type audit = {
  cells_checked : int;
  worst_margin : float;
      (** [tmax - peak] over all feasible cells; positive means every
          entry honours the cap. *)
  worst_cell : (float * float) option;  (** [(tstart, ftarget)]. *)
}

val audit_table :
  machine:Sim.Machine.t -> spec:Spec.t -> Table.t -> audit
(** Re-simulate every feasible cell and report the tightest margin. *)

type severity_point = {
  severity : float;  (** The value handed to [faults_of]. *)
  thermal : Sim.Probe.audit;
      (** Step-level [tmax] audit of the faulty run. *)
  unfinished : int;  (** Tasks left over — the throughput cost. *)
  mean_waiting : float;
      (** Mean task waiting time (s) — the responsiveness cost a
          guard band pays for its safety. *)
}

val violations_under_faults :
  ?config:Sim.Engine.config ->
  ?assignment:Sim.Policy.assignment ->
  machine:Sim.Machine.t ->
  controller:(unit -> Sim.Policy.controller) ->
  trace:Workload.Trace.t ->
  faults_of:(float -> Sim.Fault.t list) ->
  severities:float array ->
  unit ->
  severity_point array
(** The guarantee as a function of fault severity: for each severity
    the controller (a fresh instance per point) is wrapped in
    [faults_of severity] and driven through [trace] with a
    {!Sim.Probe.thermal_audit} at [config]'s [tmax]
    ({!Sim.Engine.default_config} by default; [assignment] defaults
    to [first_idle]).  A guarantee-carrying controller should show
    [violating_steps = 0] at severity [0.0] always, and — once guard
    banded — for every severity its margin dominates. *)
