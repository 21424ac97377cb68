(** Statistics collected during a simulation run.

    Matches the paper's reporting: per-band residency of the cores
    (its Fig. 6 categories <80, 80-90, 90-100, >100), task waiting
    times (Fig. 7), peak temperatures and threshold violations (the
    headline guarantee), and spatial gradients (Fig. 8 / Sec. 5.4). *)

open Linalg

type band = { lo : float; hi : float }

type t

val create : n_cores:int -> tmax:float -> unit -> t
(** Residency is kept in the paper's four bands: [<80], [80-90],
    [90-100] and [>100] degrees Celsius.  Raises [Invalid_argument]
    on [n_cores <= 0] or a non-finite [tmax]: a violation is
    [hottest > tmax], which no temperature satisfies against NaN. *)

(** {1 Recording (used by the engine)} *)

val record_step : t -> dt:float -> core_temperatures:Vec.t -> unit

val record_step_nodes :
  t -> dt:float -> temperatures:Vec.t -> nodes:int array -> unit
(** Like {!record_step} on the gather [temperatures.(nodes.(i))]:
    reads the core temperatures straight out of the full node vector,
    sparing the caller a scratch extraction.  Bit-identical to
    extracting and calling {!record_step}. *)

val record_power : t -> dt:float -> float -> unit
(** Accumulate the chip power drawn over one step (Watts). *)

val record_energy : t -> float -> unit
(** Add already-integrated Joules in one call.  A loop that keeps the
    running sum [e += power*dt] in a local (unboxed) accumulator and
    flushes it here once produces the same energy bit-for-bit as
    per-step {!record_power} calls, without the per-step call. *)

val record_waiting : t -> float -> unit
(** One completed dispatch: time the task spent queued.  Sub-epsilon
    negatives (>= -1e-9 s) — float dust from subtracting two nearby
    clocks, which fleet window boundaries produce routinely — are
    clamped to zero; genuinely negative waits below that still raise
    [Invalid_argument].  Each wait also lands in a bounded geometric
    histogram (256 buckets spanning 1 µs .. 1000 s at ~8.5% relative
    resolution) backing {!waiting_percentile}. *)

val record_completion : t -> unit

val equal : t -> t -> bool
(** Exact (no-tolerance) equality of every accumulated figure — the
    predicate behind the engine's golden regression tests. *)

(** {1 Reading} *)

val band_residency : t -> (band * float) list
(** Fraction of core-time spent in each band (averaged over cores);
    fractions sum to 1. *)

val time_above : t -> float
(** Fraction of core-time spent strictly above [tmax]. *)

val violation_steps : t -> int
(** Number of thermal steps during which at least one core exceeded
    [tmax]. *)

val total_steps : t -> int

val peak_temperature : t -> float

val peak_gradient : t -> float
(** Largest instantaneous spread [max_i t_i - min_i t_i] observed. *)

val mean_gradient : t -> float

val mean_waiting : t -> float
(** Mean task waiting time, seconds ([0.0] if nothing was
    dispatched). *)

val max_waiting : t -> float

val waiting_percentile : t -> float -> float
(** [waiting_percentile s q] for [q] in [[0, 1]] (e.g. [0.5], [0.95],
    [0.99]): the waiting-time quantile from the bounded sketch, in
    seconds.  Conservative — reports the matching bucket's upper edge
    (never understates the true quantile) tightened by the exact
    maximum; [0.0] if nothing was dispatched.  Raises
    [Invalid_argument] outside [[0, 1]]. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into s] folds [s]'s accumulators into [into]:
    counters, sums, band times and waiting sketches add; peaks and
    maxima take the max.  A fleet that merges per-chip stats in a
    fixed chip order gets bit-identical aggregates however the chips
    were scheduled across domains (float addition is order-sensitive,
    so the *merge* order is what must be pinned — the
    domain-count-invariance tests rely on this).  Both sides must
    share configuration ([n_cores] and [tmax]) or
    [Invalid_argument] is raised. *)

val completed : t -> int

val simulated_time : t -> float

val energy : t -> float
(** Total chip energy drawn, Joules. *)

val average_power : t -> float
(** [energy / simulated_time], Watts. *)

val pp : Format.formatter -> t -> unit
