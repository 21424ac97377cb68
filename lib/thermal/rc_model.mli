(** RC thermal network extraction, and its discrete-time form.

    Builds the lumped thermal network of a floorplan in the style of
    HotSpot [Skadron et al., TACO 2004] and the MPSoC tool of
    [Paci et al., DATE 2006]: one node per block, lateral conductances
    proportional to the shared edge length through the die thickness,
    a vertical conductance per unit area to ambient (lumping the
    spreader/sink stack), and heat capacities proportional to block
    volume.

    The continuous model is [C dT/dt = -G (T - ...) + P], which the
    paper discretizes (its Eq. 1) as

    [t_{k+1,i} = t_{k,i} + sum_j a_ij (t_{k,j} - t_{k,i}) + b_i p_i]

    plus an ambient term.  {!discretize} produces exactly that affine
    recurrence [t_{k+1} = A t_k + diag(b) p + c]. *)

open Linalg

type params = {
  die_thickness : float;  (** meters (default 0.5e-3). *)
  conductivity : float;  (** W/(m K), silicon (default 100.0). *)
  volumetric_heat_capacity : float;  (** J/(m^3 K) (default 1.75e6). *)
  vertical_conductance_per_area : float;
      (** W/(K m^2): effective package conductance, die to ambient
          through spreader and sink (default 3.0e3). *)
  ambient : float;  (** Ambient temperature, Celsius (default 27.0). *)
}

val default_params : params

type t
(** The continuous-time network. *)

val build : ?params:params -> Floorplan.t -> t

val size : t -> int
val params : t -> params

val conductance : t -> int -> int -> float
(** Lateral conductance between two nodes (W/K); [0.0] if not
    adjacent. *)

val ambient_conductance : t -> int -> float
val capacitance : t -> int -> float

val steady_state : t -> Vec.t -> Vec.t
(** [steady_state m p] is the equilibrium temperature vector under
    constant power [p] (length = number of blocks), by dense LU on
    the conductance matrix.  It is the library's one steady-state
    solver: the platforms have tens of nodes, where the dense solve
    is immediate. *)

(** {1 Discrete-time form (the paper's Eq. 1)} *)

type discrete = {
  step : Mat.t;  (** [A]: nonnegative for a stable step size. *)
  injection : Vec.t;  (** [b]: per-node power-to-temperature gain. *)
  drive : Vec.t;  (** [c]: ambient forcing term. *)
  dt : float;
  ambient : float;
}

val max_monotone_dt : t -> float
(** Largest step size for which the explicit-Euler matrix [A] stays
    elementwise nonnegative — the regime in which temperatures are
    monotone in initial conditions and powers (the lemma the Pro-Temp
    guarantee rests on). *)

val discretize : t -> dt:float -> discrete
(** Raises [Invalid_argument] if [dt] is not finite and positive (NaN
    included) or exceeds {!max_monotone_dt}. *)

val step_temperature : discrete -> Vec.t -> Vec.t -> Vec.t
(** [step_temperature d t p] is one application of the recurrence,
    written out on the dense [A]: [A t] summed row by row from [0.0]
    in column order ({!Linalg.Mat.mul_vec}), then
    [+ b_i p_i + c_i].  It is the reference the compiled stepper
    below is held to; every Eq. 1 step loop in the library,
    {!Transient}'s included, runs on a {!stepper}. *)

val discrete_steady_state : discrete -> Vec.t -> Vec.t
(** Fixed point of the recurrence under constant [p]; equals
    {!steady_state} of the continuous model. *)

(** {1 Compiled stepper}

    The step matrix of a physical floorplan is sparse (each node only
    touches its few lateral neighbours), so simulation loops that
    apply the recurrence millions of times should not stream the
    dense [A].  A {!stepper} is the CSR form of [A] bundled with the
    injection and drive vectors. *)

type stepper

val compile_stepper : discrete -> stepper
(** One-time compilation of the recurrence into CSR form.  Nonzeros
    are stored in ascending column order per row, so on finite
    temperatures {!stepper_step_into} produces results bit-for-bit
    identical to {!step_temperature}: the products it skips are
    exact zeros, which leave a sum unchanged.  (A non-finite
    temperature differs: the dense step multiplies it by the zeros
    and spreads a NaN, the stepper never reads it there.) *)

val stepper_step_into : stepper -> Vec.t -> Vec.t -> dst:Vec.t -> unit
(** {!step_temperature} on the compiled form, written into [dst];
    performs no heap allocation.  [dst] must not alias the input
    temperature vector. *)

val stepper_load_power : stepper -> Vec.t -> unit
(** Cache the power vector's injection products inside the stepper.
    Simulation loops whose power changes rarely (only when a core
    starts/stops or frequencies move) load it once per change and
    step with {!stepper_step_loaded_into} in between. *)

val stepper_reload_power_at : stepper -> Vec.t -> int array -> unit
(** Recompute the cached injection products only at the given node
    indexes.  Equivalent to {!stepper_load_power} when every other
    entry of the power vector is unchanged since the last load —
    the case for a stepping loop whose power moves only on the core
    nodes. *)

val stepper_step_loaded_into : stepper -> Vec.t -> dst:Vec.t -> unit
(** One recurrence application against the last loaded power;
    bit-identical to {!stepper_step_into} with that power, and
    allocation-free. *)
