(** Discrete DVFS operating points.

    Real platforms expose a ladder of frequency levels rather than a
    continuum (the paper's Fig. 4 table stores values like 80 and
    120 MHz).  Quantizing a Pro-Temp table {e downward} onto a ladder
    preserves the thermal guarantee — lower frequencies mean lower
    power, and temperatures are monotone in power — at the cost of up
    to one ladder step of delivered throughput below the column's
    nominal target. *)

type t

val make : float list -> t
(** Build a ladder from the available frequencies (Hz).  Duplicates
    are merged; raises [Invalid_argument] on an empty list or
    non-positive levels.  A stopped core (0 Hz) is always available
    and need not be listed. *)

val uniform : fmax:float -> levels:int -> t
(** [levels] evenly spaced points [fmax/levels, ..., fmax]. *)

val levels : t -> float array
(** Ascending. *)

val floor : t -> float -> float
(** The largest level at or below the given frequency; [0.0] (core
    off) when even the lowest level is above it. *)

val quantize_table : t -> Table.t -> Table.t
(** Round every feasible cell's frequencies down onto the ladder,
    then re-label each quantized vector to the highest [ftarget]
    column whose throughput ([n * ftarget], to a [1e-6] relative
    tolerance) it still delivers.  Flooring can pull a cell's total
    below its original column's promise; leaving it there would make
    the served lookup over-promise the achievable average frequency, so
    such cells are demoted (and dropped to [Infeasible] when they
    cannot honour even the lowest column).  When several source cells
    land on one column the highest-throughput one is kept.  Every
    stored vector is elementwise at most some source cell of the same
    row, so the thermal guarantee carries over unchanged; the result
    drives {!Controller.create} as before. *)
