(** Chip floorplans: rectangular blocks with geometric adjacency.

    A floorplan is a list of named, axis-aligned rectangular blocks
    (dimensions in meters).  The RC thermal model derives lateral heat
    conduction from the length of the edge two blocks share, so the
    only geometric primitives needed are areas, center distances and
    shared edge lengths. *)

type kind = Core | Cache | Buffer | Interconnect | Other

type block = {
  name : string;
  kind : kind;
  x : float;  (** Left edge, meters. *)
  y : float;  (** Bottom edge, meters. *)
  width : float;
  height : float;
}

type t

val make : block list -> t
(** Build a floorplan.  Raises [Invalid_argument] if two blocks
    overlap (beyond a tiny tolerance), a block has non-positive
    dimensions, or two blocks share a name. *)

val size : t -> int

val index_of : t -> string -> int
(** Raises [Not_found] for an unknown block name. *)

val block_of : t -> int -> block

val area : block -> float

val center_distance : block -> block -> float

val shared_edge : block -> block -> float
(** Length of the common boundary of two blocks; [0.0] when they only
    touch at a corner or not at all. *)

val neighbours : t -> int -> (int * float) list
(** [neighbours fp i] lists the indices of blocks sharing an edge with
    block [i], with the shared length. *)

val cores : t -> int array
(** Indices of [Core] blocks, in declaration order. *)

val total_area : t -> float

val bounding_box : t -> float * float * float * float
(** [(xmin, ymin, xmax, ymax)]. *)
