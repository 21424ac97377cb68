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
