(** Dense floating-point vectors.

    A vector is a plain [float array]; this module provides the
    numerical operations the rest of the library needs, with functional
    ([map], [add], ...) and in-place ([axpy_into], [scale_into], ...)
    variants.  All binary operations require equal lengths and raise
    [Invalid_argument] otherwise. *)

type t = float array

(** {1 Construction} *)

val create : int -> float -> t
(** [create n x] is a vector of [n] copies of [x]. *)

val zeros : int -> t

val init : int -> (int -> float) -> t

val of_list : float list -> t

val copy : t -> t

val basis : int -> int -> t
(** [basis n i] is the [i]-th standard basis vector of length [n]. *)

val linspace : float -> float -> int -> t
(** [linspace a b n] is [n] points evenly spaced from [a] to [b]
    inclusive.  Requires [n >= 2]. *)

(** {1 Access} *)

val dim : t -> int

(** {1 Pure arithmetic} *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val neg : t -> t

val mul : t -> t -> t
(** Element-wise product. *)

val axpy : float -> t -> t -> t
(** [axpy a x y] is [a*x + y]. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float

val norm1 : t -> float

val dist2 : t -> t -> float
(** [dist2 x y] is [norm2 (sub x y)]. *)

val sum : t -> float

val mean : t -> float
(** Mean of the entries.  Requires a non-empty vector. *)

val min : t -> float
(** Smallest entry.  Requires a non-empty vector. *)

val max : t -> float
(** Largest entry.  Requires a non-empty vector. *)

val argmax : t -> int
(** Index of the largest entry (first on ties). *)

val argmin : t -> int

val map : (float -> float) -> t -> t

val concat : t -> t -> t

val slice : t -> int -> int -> t
(** [slice v pos len] copies [len] entries starting at [pos]. *)

(** {1 In-place arithmetic} *)

val fill : t -> float -> unit

val blit : src:t -> dst:t -> unit

val add_into : dst:t -> t -> unit
(** [add_into ~dst x] sets [dst := dst + x]. *)

val scale_into : dst:t -> float -> unit

val axpy_into : dst:t -> float -> t -> unit
(** [axpy_into ~dst a x] sets [dst := dst + a*x]. *)

(** {1 Comparison and printing} *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Entrywise comparison within absolute tolerance [tol]
    (default [1e-9]).  Vectors of different lengths are unequal. *)
