(** Sparse matrices in compressed-sparse-row form, with a conjugate
    gradient solver for symmetric positive-definite systems.

    Large RC thermal meshes (fine-grained floorplans) have a few
    neighbours per node; CSR + CG solves their steady states without
    densifying. *)

type t

type triplet = { row : int; col : int; value : float }

val of_triplets : rows:int -> cols:int -> triplet list -> t
(** Build from coordinate triplets.  Duplicate [(row, col)] entries are
    summed; explicit zeros are dropped. *)

val rows : t -> int
val cols : t -> int
val nnz : t -> int

val get : t -> int -> int -> float
(** [get m i j] is the stored value at [(i, j)] or [0.0]. *)

val mul_vec : t -> Vec.t -> Vec.t

val to_dense : t -> Mat.t

val transpose : t -> t

type cg_result = {
  solution : Vec.t;
  iterations : int;
  residual : float;  (** Final 2-norm of [b - A x]. *)
  converged : bool;
}

val cg :
  ?tol:float -> ?max_iter:int -> ?x0:Vec.t -> t -> Vec.t -> cg_result
(** Conjugate gradients on an SPD matrix.  [tol] (default [1e-10]) is
    relative to [||b||]; [max_iter] defaults to [10 * rows]. *)
