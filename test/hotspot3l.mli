(** Independent 3-layer HotSpot-style thermal model for validation.

    Per floorplan block, three stacked nodes — die, heat spreader,
    heat sink — with lateral conduction inside the die and spreader
    layers, vertical conduction up the stack, and convection from the
    sink to ambient.  The paper validated its simulator "using the
    thermal models from the Hotspot simulator"; this module plays that
    role: a structurally different model whose steady-state
    predictions must agree with {!Rc_model} once the latter's lumped
    vertical conductance is matched (see
    {!effective_vertical_conductance_per_area}). *)

open Linalg
open Thermal

type params = {
  die_thickness : float;
  die_conductivity : float;
  die_heat_capacity : float;  (** volumetric, J/(m^3 K) *)
  spreader_thickness : float;
  spreader_conductivity : float;  (** copper *)
  spreader_heat_capacity : float;
  interface_conductance_per_area : float;
      (** Thermal interface material, die to spreader. *)
  sink_thickness : float;
  sink_conductivity : float;
  sink_heat_capacity : float;
  convection_per_area : float;  (** Sink to ambient, W/(K m^2). *)
  ambient : float;
}

val default_params : params

type t

val build : ?params:params -> Floorplan.t -> t

val size : t -> int
(** Total node count, [3 * blocks]. *)

val die_node : t -> int -> int
val spreader_node : t -> int -> int
val sink_node : t -> int -> int

val steady_state : t -> Vec.t -> Vec.t
(** [steady_state m p]: equilibrium over all [3n] nodes given
    per-block power [p] (length [n], injected in the die layer). *)

val die_steady_state : t -> Vec.t -> Vec.t
(** The die-layer slice of {!steady_state} (length [n]). *)

val max_monotone_dt : t -> float

val step : t -> dt:float -> Vec.t -> Vec.t -> Vec.t
(** [step m ~dt state p]: one explicit-Euler step over all [3n]
    nodes. *)

val effective_vertical_conductance_per_area : params -> float
(** The series combination of interface, spreader, sink and convection
    resistances per unit area: the value {!Rc_model.params}'
    [vertical_conductance_per_area] should take for the two models to
    agree. *)

val vertical_chain_check : params -> area:float -> power:float -> float
(** Steady die temperature of a single isolated block (no lateral
    neighbours) solved with the tridiagonal solver; used to
    cross-check {!steady_state} in tests. *)
