(** KKT residuals: a posteriori optimality certificates.

    For [minimize f0 s.t. f_j <= 0] with primal [x] and duals
    [lambda], the residuals measure stationarity
    [||grad f0 + sum lambda_j grad f_j||], primal feasibility
    [max_j f_j(x)]+, dual feasibility [max_j (-lambda_j)]+ and
    complementary slackness [max_j |lambda_j f_j(x)|].  They audit an
    optimum against the {!Quad.problem} it solves: a conic optimum
    with the duals of [Conic_reference.constraint_duals], or an Eq. 3
    solution of [Protemp.Model] against [Model_reference]'s statement
    of its instance. *)

open Linalg

type residuals = {
  stationarity : float;
  primal_infeasibility : float;
  dual_infeasibility : float;
  complementarity : float;
}

val residuals : Quad.problem -> Vec.t -> Vec.t -> residuals
(** [residuals p x lambda]. *)

val max_residual : residuals -> float

val pp : Format.formatter -> residuals -> unit
