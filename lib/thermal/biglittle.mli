(** An asymmetric big.LITTLE 8-core platform on the Niagara package.

    Four "big" cores (1 GHz, 5 W, quadratic power law) in the bottom
    row and four "little" cores (600 MHz, 1.5 W, cubic power law,
    lower idle activity) in the top row, on the same 13 x 11.5 mm die,
    crossbar strip and L2 flanks as {!Niagara} — so comparisons
    between the two platforms isolate the effect of core asymmetry.
    The per-class numbers follow the big.LITTLE modelling literature
    (Bhat et al.): little cores trade a lower ceiling and a steeper
    (super-quadratic) law for much lower absolute power.

    This module only knows thermal/physical facts; [Sim.Machine.biglittle]
    lifts {!classes} and {!class_assignment} into a [Sim.Platform]. *)

open Linalg

type core_class = {
  class_name : string;
  fmax : float;  (** Frequency ceiling, Hz. *)
  pmax : float;  (** Dynamic power at the ceiling, Watts. *)
  exponent : float;  (** Power-law exponent. *)
  idle_activity : float;  (** Idle dynamic-power fraction. *)
}

val classes : unit -> core_class array
(** The two classes, big then little (fresh array): big is 1 GHz,
    5 W, exponent 2, idle activity 0.3; little is 600 MHz, 1.5 W,
    exponent 3, idle activity 0.2. *)

val class_assignment : unit -> int array
(** Class index per core: B1-B4 then L1-L4, i.e.
    [[| 0;0;0;0; 1;1;1;1 |]] (fresh array). *)

val dt : float
(** Thermal integration step, seconds (0.4e-3). *)

val floorplan : unit -> Floorplan.t
(** 18 blocks: 4 big cores, 4 little cores, 6 L2 banks, an SRAM bank
    filling the top-east area the narrow little cores free up, 2 L2
    buffers and the crossbar. *)

val model : unit -> Rc_model.t
(** The calibrated network: the package conductance is tuned once
    (then cached) so the hottest steady-state node with every core at
    its class [pmax] sits at 122 degrees Celsius, as for
    {!Niagara}. *)

val fixed_power : Floorplan.t -> Vec.t
(** Static power of the non-core blocks (cores are zero here); same
    per-kind budget as {!Niagara.fixed_power}. *)

val core_nodes : Floorplan.t -> int array
(** Node indices of B1..B4, L1..L4, in that order. *)
