(** QR factorization by Householder reflections, and least squares.

    Used by the system-identification reference
    ({!Calibrate_reference.fit_discrete}). *)

open Linalg

exception Rank_deficient of int
(** Raised by {!solve_least_squares} when a diagonal entry of [R] is
    negligibly small; the payload is the column index. *)

type t

val factorize : Mat.t -> t
(** Factorize an [m x n] matrix with [m >= n] as [A = Q R]. *)

val r : t -> Mat.t
(** The [n x n] upper-triangular factor. *)

val qt_mul : t -> Vec.t -> Vec.t
(** [qt_mul f b] is [Q^T b] (length [m]), applied implicitly. *)

val solve_least_squares : Mat.t -> Vec.t -> Vec.t
(** Minimize [||A x - b||_2] for a full-column-rank [A]. *)

val residual_norm : Mat.t -> Vec.t -> Vec.t -> float
(** [residual_norm a x b] is [||A x - b||_2]; handy for tests. *)
