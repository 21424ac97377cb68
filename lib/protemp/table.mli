(** The Phase-1 output table (the paper's Fig. 4).

    Rows are starting temperatures, columns target average
    frequencies; each cell holds the optimal per-core frequency vector
    or marks infeasibility.  {!lookup} implements the paper's run-time
    rule: take the row covering the observed maximum temperature, then
    the column for the required frequency, falling back to "the next
    lower frequency point that can support the temperature
    constraints". *)

open Linalg

type cell =
  | Frequencies of Vec.t  (** Per-core frequencies, Hz. *)
  | Infeasible

type t

val make :
  tstarts:float array -> ftargets:float array -> cell array array -> t
(** [tstarts] and [ftargets] must be finite and strictly increasing;
    [cells.(i).(j)] corresponds to [tstarts.(i)], [ftargets.(j)].
    Every [Frequencies] cell must hold the same (non-zero) number of
    cores, each a finite, non-negative frequency.  Raises
    [Invalid_argument] on shape, dimension, ordering or value
    errors. *)

val tstarts : t -> float array
val ftargets : t -> float array
val cell : t -> int -> int -> cell

val row_for_temperature : t -> float -> int option
(** Smallest row whose [tstart] is >= the observed temperature —
    the conservative covering row; [None] when the observation
    exceeds the hottest row.  Binary search (the axes are strictly
    increasing). *)

val row_index : t -> float -> int
(** {!row_for_temperature} without the option: [-1] when the
    observation exceeds the hottest row.  The allocation-free form
    used on the controller hot path. *)

val col_start : t -> float -> int
(** Smallest column whose [ftarget] is >= the requirement, clamped to
    the top column when the requirement exceeds the grid — the
    starting point of the paper's round-up-then-fall-back column rule.
    Binary search. *)

val lookup : t -> temperature:float -> required:float -> Vec.t option
(** The paper's run-time rule.  Returns [None] when the temperature
    exceeds every row or no column in the row is feasible (the caller
    should then stop the cores for a window). *)

val lookup_into :
  t -> temperature:float -> required:float -> into:Vec.t -> bool
(** Allocation-free {!lookup}: on success the entry is blitted into
    [into] and the call returns [true]; [false] is {!lookup}'s [None]
    and leaves [into] untouched.  Raises [Invalid_argument] when
    [into]'s length differs from the table's core count.  Listed in
    [lint.manifest] — the body must stay free of allocation sites. *)

val core_count : t -> int option
(** Number of cores per feasible cell ([Table.make] enforces it is
    uniform); [None] when every cell is infeasible. *)

val feasible_frontier : t -> (float * float option) array
(** Per row: the largest feasible [ftarget] ([None] if none) — the
    data behind Fig. 9. *)

val to_csv : t -> string
(** One line per cell: [tstart,ftarget,f1,...,fn] or
    [tstart,ftarget,infeasible].  Values are printed with [%.17g], so
    {!of_csv} reconstructs every float bit-for-bit and nearby axis
    values never collide. *)

val of_csv : string -> t
(** Inverse of {!to_csv} (axes are matched exactly — no rounding
    tolerance).  Raises [Failure] on malformed input, a non-finite
    axis value or a duplicated [(tstart, ftarget)] cell,
    [Invalid_argument] when the parsed cells fail {!make}'s checks. *)

val pp : Format.formatter -> t -> unit
