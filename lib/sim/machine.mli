(** The simulated multi-core machine: thermal model plus power laws.

    Bundles everything the engine needs to know about the hardware:
    the discretized thermal network, which nodes are cores, the static
    power of the non-core blocks, and the per-core frequency-to-power
    laws — the paper's Eq. 2, generalized by {!Platform} to
    heterogeneous core classes.  The flattened per-core arrays below
    are derived from the platform once at construction so the
    stepping hot path never chases the class indirection.

    A machine also carries a cache ({!cached}) of what a library built
    on it derives from the machine alone and reuses, such as
    [Protemp.Model]'s Eq. 3 thermal rows, which it builds from the
    machine's {!window_response}.  Each entry is computed once and
    shared by every caller and every domain, and is freed with the
    machine.  The type is [private] so that a machine is only ever
    made by {!make} or {!make_platform}: a copy with another thermal
    model or power law could otherwise carry cached data that no
    longer matches it. *)

open Linalg

type window_response = {
  steps : int;  (** Thermal steps in the window. *)
  stride : int;  (** Steps between constrained points. *)
  ks : int array;
      (** The window's stride points, ascending: every [stride]-th
          step and always the last step [steps]. *)
  sums : float array;
      (** The core columns of [S_k = sum_{l<k} A^l] ([A] the step
          matrix) at each stride point, flat: [S_{ks.(r)}[i, core_j]]
          is at [((r * n_nodes) + i) * n_cores + j]. *)
}
(** The response of the thermal network to core power over a window:
    holding the core powers [p] for [k] steps from a start profile
    adds [sum_j S_k[i, core_j] b_{core_j} p_j] to node [i]'s
    temperature ([b] the injection vector).  For Niagara at stride 4
    that is [63 x 17 x 8] floats, 69 kB. *)

type slot = ..
(** One entry of a machine's {!cache}.  The extensible variant lets a
    library built on the machine keep its own per-machine data there:
    it adds a constructor ([type Sim.Machine.slot += ...]) and reads
    it back through {!cached}. *)

type cache
(** The slots computed so far for a machine; see {!cached}. *)

type t = private {
  thermal : Thermal.Rc_model.discrete;
  n_nodes : int;
  n_cores : int;
  core_nodes : int array;  (** Thermal node index of each core. *)
  fixed_power : Vec.t;  (** Per-node static power; zero on cores. *)
  platform : Platform.t;
  fmax : float;
      (** Chip reference frequency = the largest per-core ceiling.
          Queued work and throughput targets are stated in seconds at
          this frequency; on a homogeneous platform it is the one
          shared [fmax]. *)
  core_fmax : float array;  (** Per-core frequency ceiling, Hz. *)
  core_pmax : float array;  (** Per-core dynamic power at its ceiling, W. *)
  core_exponent : float array;  (** Per-core power-law exponent. *)
  core_idle : float array;
      (** Per-core idle activity factor, in [[0, 1]] so that the
          convex model's all-cores-busy assumption stays an upper
          bound (this is what makes the Pro-Temp guarantee carry over
          to the simulation). *)
  cache : cache;  (** The {!slot}s computed so far; starts empty. *)
}

val make :
  ?idle_activity:float ->
  thermal:Thermal.Rc_model.discrete ->
  core_nodes:int array ->
  fixed_power:Vec.t ->
  fmax:float ->
  core_pmax:float ->
  unit ->
  t
(** The homogeneous constructor: every core shares one quadratic
    power law — exactly the machine the paper models, and bit-for-bit
    the machine this library simulated before platforms existed.
    Validates shapes and ranges ([Invalid_argument] otherwise): [fmax]
    and [core_pmax] must be finite and positive and [idle_activity]
    in [[0, 1]], so NaN and infinities are rejected.
    [idle_activity] defaults to 0.3. *)

val make_platform :
  thermal:Thermal.Rc_model.discrete ->
  core_nodes:int array ->
  fixed_power:Vec.t ->
  platform:Platform.t ->
  unit ->
  t
(** General constructor: the platform's core count must match
    [core_nodes].  A single-class platform behaves identically to
    {!make} with the same numbers. *)

val niagara : unit -> t
(** The calibrated homogeneous Niagara platform of {!Thermal.Niagara},
    discretized at the paper's 0.4 ms step. *)

val biglittle : unit -> t
(** The asymmetric 4 big + 4 little platform of {!Thermal.Biglittle}:
    two core classes with different ceilings, peak powers and
    power-law exponents. *)

val window_steps : t -> period:float -> int
(** The thermal steps in one control window of [period] seconds:
    [round (period / dt)].  The one rule by which the simulated chip
    ([Chip]) steps an epoch and [Protemp.Model] and
    [Protemp.Guarantee] size the window they certify, so the window
    the table promises is the window the chip runs.  Each caller
    rejects a result below 1 itself. *)

val window_response : t -> steps:int -> stride:int -> window_response
(** The machine's response over a [steps]-step window at [stride].
    Its core columns come from a recurrence on the core columns alone
    ([X_0] the unit columns at the core nodes, [X_k = A X_{k-1}],
    [S_k += X_{k-1}]), never from full [n x n] powers, and sum in
    [Mat.matmul]'s order, so every entry is bit-identical to the
    matrix-power construction.  Computed on every call and not
    cached: its one library caller, [Protemp.Model], builds its row
    sets from it and caches those ({!cached}), and keeping the
    response beside them measured 1.6–2.3 MB more peak RSS on the
    benchmark's 100x100 Niagara build (DESIGN.md §6t).  Raises
    [Invalid_argument] when [steps] or [stride] is below 1. *)

val cached : t -> find:(slot -> 'a option) -> compute:(unit -> slot) -> 'a
(** [cached m ~find ~compute] is the value [find] reads from the first
    slot of [m]'s cache it accepts.  When no slot is accepted,
    [compute ()] makes one, which is published with
    [Atomic.compare_and_set] on the cache: no lock is taken, and a
    domain that loses a race to publish finds the winner's slot and
    drops its own.  So [compute] must be a function of the machine and
    of what [find] matches on alone, and a caller then reads the same
    value whichever domain computed it.  The key [find] matches must
    cover everything the slot's content reads.  Raises
    [Invalid_argument] if [find] does not accept the slot [compute]
    made; nothing is published then. *)

val cached_slots : t -> int
(** How many slots [m]'s cache holds: one per value {!cached} has
    published. *)

val core_power : t -> core:int -> frequency:float -> busy:bool -> float
(** Power of core [core] at [frequency]:
    [pmax_c (f/fmax_c)^exponent_c], scaled by the core's idle
    activity when idle.  Raises [Invalid_argument] on a bad core
    index. *)

val power_vector : t -> frequencies:Vec.t -> busy:bool array -> Vec.t
(** Full node power vector for one thermal step. *)

val power_vector_into :
  t -> frequencies:Vec.t -> busy:bool array -> dst:Vec.t -> unit
(** Like {!power_vector} but writes into [dst] (length [n_nodes])
    without allocating; produces bit-identical values. *)

val refresh_core_power :
  t -> frequencies:Vec.t -> busy:bool array -> dst:Vec.t -> unit
(** Rewrite only the core entries of [dst], assuming its non-core
    entries already hold [fixed_power] (they never change).  The
    allocation-free stepping loop initializes [dst] once and calls
    this on frequency or busy-state changes; listed in
    [lint.manifest]. *)

val core_temperatures : t -> Vec.t -> Vec.t
(** Extract the core temperatures from a full node temperature
    vector. *)

val core_temperatures_into : t -> Vec.t -> dst:Vec.t -> unit
(** Like {!core_temperatures} but writes into [dst] (length
    [n_cores]) without allocating. *)
