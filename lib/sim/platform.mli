(** Per-core power-law classes and their assignment to cores.

    The paper's Eq. 2 is one [pmax (f/fmax)^2] shared by every core;
    a platform generalizes it to a small set of {e classes} — each
    with its own frequency ceiling, peak power, power-law exponent and
    idle activity factor — plus a class index per core.  A single-class
    platform is exactly the homogeneous model the first seven PRs
    measured, and {!Machine} guarantees it reproduces those results
    bit for bit. *)

type cls = {
  class_name : string;
  fmax : float;  (** Frequency ceiling, Hz. *)
  pmax : float;  (** Dynamic power at [fmax], Watts. *)
  exponent : float;
      (** Power-law exponent: [p = pmax (f/fmax)^exponent].  Must be
          at least 1; the convex model additionally requires at least
          2 so its quadratic surrogate stays an over-estimate. *)
  idle_activity : float;
      (** Fraction of the dynamic power an idle (but clocked) core
          burns; in [[0, 1]] so the model's all-busy assumption stays
          an upper bound. *)
}

type t = {
  classes : cls array;
  assignment : int array;
      (** One class index per core, in core order.  Length is the
          core count.  Treat as read-only: {!Machine} and the engine
          share it without copying. *)
}

val make : classes:cls array -> assignment:int array -> t
(** Validates every class (finite positive [fmax]/[pmax], finite
    [exponent >= 1], [idle_activity] in [[0, 1]]; NaN fails each) and
    every assignment index; raises [Invalid_argument] otherwise.
    Arrays are copied. *)

val homogeneous :
  ?idle_activity:float -> n_cores:int -> fmax:float -> pmax:float -> unit -> t
(** One class, named ["core"], shared by [n_cores] cores — the paper's
    homogeneous machine, with the quadratic power law of its Eq. 2
    (exponent 2).  [idle_activity] defaults to 0.3. *)

val n_cores : t -> int
val n_classes : t -> int

val single_class : t -> bool
(** [true] iff exactly one class exists — the degenerate case that
    must match the homogeneous code path bit for bit. *)

val core_fmax : t -> float array
(** Per-core frequency ceilings, flattened in core order.  Fresh
    array on every call; the remaining accessors below behave the
    same. *)

val core_pmax : t -> float array
val core_exponent : t -> float array
val core_idle_activity : t -> float array

val max_fmax : t -> float
(** Largest per-core ceiling — the chip's reference frequency: the
    unit in which throughput targets and queued work are stated. *)
