(** Cholesky factorization of symmetric positive-definite matrices.

    The dense reference for {!Linalg.Block_tridiag}, the factorization
    the conic solver runs, and the factorization inside the barrier
    and quadratic oracles ({!Barrier_reference}, {!Quad}).  A jittered
    variant handles matrices that are only positive semidefinite up to
    rounding. *)

open Linalg

exception Not_positive_definite of int
(** Raised when a diagonal pivot is non-positive; the payload is the
    offending index. *)

type t
(** A factorization [A = L * L^T] with [L] lower-triangular. *)

val factorize : Mat.t -> t
(** Factorize a symmetric positive-definite matrix.  Only the lower
    triangle of the input is read.  Raises {!Not_positive_definite}
    if a pivot fails. *)

val factorize_jittered :
  ?initial:float -> ?growth:float -> ?max_tries:int -> Mat.t -> t * float
(** [factorize_jittered a] tries [factorize a]; on failure it retries
    with [a + jitter*I], growing [jitter] geometrically from [initial]
    (default [1e-10] scaled by the diagonal magnitude) by [growth]
    (default [10.0]) up to [max_tries] (default [20]) times.  Returns
    the factorization and the jitter that succeeded ([0.0] if none was
    needed).  Raises {!Not_positive_definite} if all attempts fail. *)

val preallocate : int -> t
(** An [n x n] factor workspace for the in-place entry points below;
    its contents are meaningless until the first
    {!factorize_jittered_into}. *)

val dim : t -> int

val factorize_jittered_into :
  ?initial:float -> ?growth:float -> ?max_tries:int -> t -> Mat.t -> float * int
(** [factorize_jittered_into f a] overwrites the factor [f] with the
    (jittered) Cholesky factorization of [a], allocating nothing: the
    jitter is added to the diagonal on the fly rather than by copying
    [a].  Same retry schedule as {!factorize_jittered}.  Returns the
    jitter that succeeded and the number of factorization attempts
    (>= 1 — the solver's factorization counter).  Raises
    {!Not_positive_definite} if all attempts fail, leaving [f]'s
    contents unspecified. *)

val solve_factorized_into : t -> Vec.t -> dst:Vec.t -> unit
(** Like {!solve_factorized} but writes into [dst] without allocating.
    [dst] may be [b] itself (the substitution runs in place). *)

val solve_factorized : t -> Vec.t -> Vec.t

val solve : Mat.t -> Vec.t -> Vec.t

val lower : t -> Mat.t
(** The lower-triangular factor [L]. *)

val log_det : t -> float
(** [log det A], computed stably from the factor diagonal. *)
