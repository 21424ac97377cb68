(** The Phase-1 output table (the paper's Fig. 4).

    Rows are starting temperatures, columns target average
    frequencies; each cell holds the optimal per-core frequency vector
    or marks infeasibility.  The paper's run-time rule takes the row
    covering the observed maximum temperature ({!covering}), then the
    column for the required frequency ({!round_up}), falling back to
    "the next lower frequency point that can support the temperature
    constraints".  Tables are served by {!Table_store.lookup_into},
    from a mapped image or from {!Table_store.of_table}. *)

open Linalg

type cell =
  | Frequencies of Vec.t
      (** Per-core frequencies, Hz.  A cell built by {!Dense_table}
          meets its throughput floor [n ftarget] up to the shortfall
          bound stated there: each frequency is clamped to its core's
          ceiling, while the model lets it reach [Model.f_box] times
          it. *)
  | Infeasible

type t

val finite_increasing : float array -> bool
(** The axis rule: every entry finite and each above the one before
    (a NaN fails). *)

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

val covering : float array -> float -> int
(** [covering axis x]: on a strictly increasing axis, the smallest
    index whose entry is >= [x]; [-1] when [x] exceeds the last entry.
    Over the [tstarts] axis this is the conservative covering row of
    an observed temperature.  Binary search, no allocation. *)

val round_up : float array -> float -> int
(** {!covering}, clamped to the last index when [x] exceeds the axis.
    Over the [ftargets] axis this is the starting column of the
    paper's round-up-then-fall-back rule. *)

val core_count : t -> int option
(** Number of cores per feasible cell ([Table.make] enforces it is
    uniform); [None] when every cell is infeasible. *)

val to_csv : t -> string
(** One line per cell: [tstart,ftarget,f1,...,fn] or
    [tstart,ftarget,infeasible].  Values are printed with [%.17g], so
    {!of_csv} reconstructs every float bit-for-bit and nearby axis
    values never collide. *)

val of_csv : string -> t
(** Inverse of {!to_csv} (axes are matched exactly — no rounding
    tolerance).  Raises [Failure] on malformed input, a non-finite
    axis value, a duplicated [(tstart, ftarget)] cell or a missing
    one, [Invalid_argument] when the parsed cells fail {!make}'s
    checks.  The axes are read from the lines themselves, so a missing
    cell is caught only while its [tstart] and its [ftarget] each
    appear on some other line: a CSV without a whole row or a whole
    column parses as the smaller table. *)

val pp : Format.formatter -> t -> unit
