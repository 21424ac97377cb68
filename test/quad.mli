(** Quadratic functions in standard form: the test oracles' statement
    of a convex program.

    A value represents [f(x) = 1/2 x^T P x + q^T x + r] over [R^n],
    with [P] symmetric (possibly absent, meaning the function is
    affine).  The reference solvers and builders pose programs in
    this form ({!problem}); [Conic_reference.of_problem] packs one
    into the rows [Convex.Conic.make] takes, and {!Kkt} audits a
    solution against it. *)

open Linalg

type t

(** {1 Construction} *)

val affine : Vec.t -> float -> t
(** [affine q r] is [q^T x + r]. *)

val linear_coord : int -> int -> float -> t
(** [linear_coord n i c] is [c * x_i]. *)

val quadratic : Mat.t -> Vec.t -> float -> t
(** [quadratic p q r] is [1/2 x^T P x + q^T x + r].  [P] is
    symmetrized defensively. *)

val square_of_affine : Vec.t -> float -> t
(** [square_of_affine q r] is [(q^T x + r)^2]. *)

(** {1 Algebra} *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val add_constant : t -> float -> t

(** {1 Queries} *)

val dim : t -> int

val is_affine : t -> bool

val eval : t -> Vec.t -> float

val grad : t -> Vec.t -> Vec.t

val hess : t -> Mat.t
(** The (constant) Hessian [P]; the zero matrix for affine functions. *)

val hess_is_psd : ?tol:float -> t -> bool
(** Check positive semidefiniteness of [P] by attempting a jittered
    Cholesky factorization of [P + tol*I]. *)

val linear_part : t -> Vec.t
(** The coefficient vector [q]. *)

val constant_part : t -> float

(** {1 Programs} *)

type problem = { objective : t; constraints : t array }
(** [minimize objective(x) subject to constraints_j(x) <= 0], every
    function of one dimension. *)
