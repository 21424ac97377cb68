(** Thermal model calibration: {!tune_vertical_conductance} adjusts
    the package conductance so a reference workload hits a target
    peak steady temperature — how the Niagara and big.LITTLE models
    anchor their absolute numbers. *)

open Linalg

val tune_vertical_conductance :
  params:Rc_model.params ->
  floorplan:Floorplan.t ->
  power:Vec.t ->
  float ->
  Rc_model.params
(** [tune_vertical_conductance ~params ~floorplan ~power target_peak]
    bisects [vertical_conductance_per_area] geometrically in
    [[1e2, 1e6]] W/(K m^2) until the hottest steady-state node
    temperature under [power] is within 0.01 degrees of
    [target_peak].  Raises [Invalid_argument] when the target is
    outside the achievable bracket. *)
