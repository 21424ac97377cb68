(** The solution record of one Eq. 3 solve, as [Protemp.Model]
    reports it: the primal optimum and its multipliers, one per
    constraint of Eq. 3 as written — power laws, boxes, floor, thermal
    and gradient rows, in [Protemp.Model]'s row layout. *)

open Linalg

type solution = {
  x : Vec.t;
  objective_value : float;
  dual : Vec.t;
      (** One multiplier per constraint: the orthant dual of an affine
          row, the [u] dual of a power law's cone block. *)
  gap : float;  (** Complementarity gap of the conic optimum. *)
  iterations : int;  (** Interior-point iterations of the last round. *)
}
