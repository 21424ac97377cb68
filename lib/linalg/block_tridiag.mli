(** Cholesky factorization of block-tridiagonal SPD matrices.

    Generalizes {!Tridiag} (scalar blocks, Thomas algorithm) to an
    arbitrary partition of the index range into K contiguous blocks:
    the matrix may couple index [i] to index [j] only when their
    blocks are equal or adjacent.  The Cholesky factor of such a
    matrix fills in nothing outside the block band, so both the
    factorization and the triangular solves skip every out-of-band
    entry — cost O(sum n_k^3) instead of O((sum n_k)^3).

    The interior-point solver's normal-equations matrix G^T W^-2 G is
    exactly of this shape under the thermal model's variable order
    (frequency block, power block, gradient-bound block): the
    epigraph cones couple [f_j] to [p_j] (adjacent blocks), the
    thermal rows touch only powers, and the gradient rows couple
    powers to [(u, l)] — frequencies and gradient bounds never meet.

    The input is a plain dense {!Mat.t}; only in-band entries of its
    lower triangle are read, so the caller may assemble into a dense
    buffer with any garbage outside the band.  Jitter and retry
    semantics mirror {!Chol} (including {!Chol.Not_positive_definite}
    on failure), and the factor is preallocated for the solver's
    allocation-free hot path: it is a flat row-major array, the
    dimensions are checked once per call and the inner loops run
    without bounds checks. *)

type t
(** A preallocated block-tridiagonal factor workspace. *)

val preallocate : int array -> t
(** [preallocate sizes] is a factor workspace for the partition with
    block [k] of dimension [sizes.(k)].  All sizes must be positive
    ([Invalid_argument] otherwise).  Contents are meaningless until
    the first factorization. *)

val dim : t -> int
(** Total dimension [sum sizes]. *)

val sizes : t -> int array
(** The block partition (a copy). *)

val factor : t -> Mat.t
(** A copy of the factor [L]: its in-band lower entries, zero
    elsewhere.  Meaningful after a successful factorization. *)

val factorize_attempt_into : t -> jitter:float -> Mat.t -> unit
(** One factorization attempt of [a + jitter*I] into the preallocated
    factor, reading only in-band entries of [a]'s lower triangle.
    [a] must be {!dim} x {!dim} ([Invalid_argument] otherwise).
    Raises {!Chol.Not_positive_definite} on a failed pivot, leaving
    the factor's contents unspecified.  Allocation-free. *)

val factorize_jittered_into :
  ?initial:float -> ?growth:float -> ?max_tries:int -> t -> Mat.t -> float * int
(** Same retry schedule and return convention as
    {!Chol.factorize_jittered_into}: returns the jitter that succeeded
    ([0.0] if none was needed) and the number of attempts ([1] for a
    clean first factorization; each extra attempt is a jitter
    retry). *)

val solve_factorized_into : t -> Vec.t -> dst:Vec.t -> unit
(** Solve [A x = b] from the factor, writing into [dst] ([dst] may be
    [b] itself).  Skips every out-of-band entry.  Allocation-free. *)
