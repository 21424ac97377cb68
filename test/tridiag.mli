(** Tridiagonal systems (Thomas algorithm).

    Used by the 3-layer HotSpot-style validation model ({!Hotspot3l}),
    whose vertical heat path per block is a small tridiagonal chain,
    and as the scalar-block reference for {!Linalg.Block_tridiag}. *)

open Linalg

exception Singular of int

val solve :
  lower:Vec.t -> diag:Vec.t -> upper:Vec.t -> rhs:Vec.t -> Vec.t
(** [solve ~lower ~diag ~upper ~rhs] solves the [n x n] tridiagonal
    system.  [diag] and [rhs] have length [n]; [lower] and [upper]
    have length [n-1] ([lower.(i)] couples row [i+1] to column [i],
    [upper.(i)] couples row [i] to column [i+1]).  Raises {!Singular}
    on a zero pivot. *)

val mul_vec :
  lower:Vec.t -> diag:Vec.t -> upper:Vec.t -> Vec.t -> Vec.t
(** Multiply a tridiagonal matrix by a vector; for residual checks. *)
