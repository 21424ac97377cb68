(** The solution record of one Eq. 3 solve, as [Protemp.Model]
    reports it: the primal optimum, its multipliers in the original
    {!Conic.problem} constraint order, and a lazy KKT audit. *)

open Linalg

type solution = {
  x : Vec.t;
  objective_value : float;
  dual : Vec.t;
      (** One multiplier per constraint ({!Conic.constraint_duals}). *)
  gap : float;  (** Complementarity gap of the conic optimum. *)
  kkt : Kkt.residuals Lazy.t;
      (** KKT residual audit of [(x, dual)], computed on first force —
          sweep-style callers that only read frequencies never pay for
          it. *)
  iterations : int;  (** Interior-point iterations of the last round. *)
}
