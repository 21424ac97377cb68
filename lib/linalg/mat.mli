(** Dense matrices stored row-major in a flat float array.

    The representation is immutable-by-convention: all pure operations
    allocate a fresh matrix; the few mutating operations are suffixed
    [_into] or clearly named ([set]).  Dimensions are checked and
    [Invalid_argument] is raised on mismatch. *)

type t

(** {1 Construction} *)

val zeros : int -> int -> t

val identity : int -> t

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] has entry [f i j] at row [i], column [j]. *)

val of_rows : float array array -> t
(** Rows must all have the same length. *)

val of_diag : Vec.t -> t

val copy : t -> t

(** {1 Access} *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val data : t -> float array
(** The row-major storage itself, entry [(i, j)] at [i * cols + j]:
    shared, not copied, so writes to it write the matrix.  For kernels
    that check the dimensions once and then index it directly, without
    a boxed call per entry. *)

val row : t -> int -> Vec.t
val col : t -> int -> Vec.t
val diag : t -> Vec.t
val to_rows : t -> float array array

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val transpose : t -> t
val matmul : t -> t -> t

val fill : t -> float -> unit
(** Set every entry to the given value in place. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec a x] is [a * x]. *)

val mul_vec_into : t -> Vec.t -> dst:Vec.t -> unit
(** Like {!mul_vec} but writes into [dst] (which must not alias the
    input vector).  Allocates nothing.

    Summation order, guaranteed: every entry is the left-to-right sum
    [(((0.0 + a_i0 x_0) + a_i1 x_1) + ...) + a_i(n-1) x_(n-1)], one
    rounded product and one rounded add per column, with no
    reassociation and no fused multiply-add.
    [Thermal.Rc_model.step_temperature] inherits it, and the compiled
    stepper's bit-identity to that dense step rests on it.  {!mul_vec}
    sums in the same order. *)

val tmul_vec : t -> Vec.t -> Vec.t
(** [tmul_vec a x] is [transpose a * x], without forming the
    transpose. *)

val outer : Vec.t -> Vec.t -> t
(** [outer x y] is the rank-one matrix [x * y^T]. *)

val add_into : dst:t -> t -> unit
(** [add_into ~dst b] updates [dst := dst + b] in place. *)

val pow : t -> int -> t
(** [pow a k] is [a] raised to the non-negative integer power [k] by
    repeated squaring.  [a] must be square. *)

(** {1 Properties} *)

val is_square : t -> bool

val is_symmetric : ?tol:float -> t -> bool

val norm_inf : t -> float
(** Maximum absolute row sum. *)

val norm_fro : t -> float
(** Frobenius norm. *)

val trace : t -> float

val symmetrize : t -> t
(** [(a + a^T) / 2]. *)

val approx_equal : ?tol:float -> t -> t -> bool
