(** LU factorization with partial pivoting, and the direct solvers
    built on it. *)

exception Singular of int
(** Raised when a (near-)zero pivot is met; the payload is the
    elimination column. *)

type t
(** A factorization [P*A = L*U] of a square matrix [A]. *)

val factorize : Mat.t -> t
(** Factorize a square matrix.  Raises {!Singular} if a pivot has
    absolute value at most [1e-13] times the matrix infinity norm
    (or [1e-13] for a norm below 1). *)

val solve_factorized : t -> Vec.t -> Vec.t
(** Solve [A x = b] reusing a factorization. *)

val solve : Mat.t -> Vec.t -> Vec.t
(** One-shot [A x = b]. *)
