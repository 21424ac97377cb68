(** Compact binary serving format for Phase-1 tables.

    A table is written once as a versioned little-endian image and
    then opened read-only by any number of controllers via
    [Unix.map_file]: every open shares the same page-cache-backed
    pages, costs no per-instance load or parse beyond the 32-byte
    header, and serves allocation-free lookups straight out of the
    mapping.  This is the serving half of the dense-table pipeline
    (DESIGN.md section 6h): {!Dense_table} fills grids, this module
    ships them to fleets of simulated controllers.

    {2 Layout (version 2, all fields little-endian)}

    {v
      offset  size  field
      0       4     magic "PTBL"
      4       4     version (u32) = 2
      8       4     n_rows (u32)
      12      4     n_cols (u32)
      16      4     n_cores (u32)
      20      4     flags (u32, reserved, 0)
      24      8     sentinel (f64) = 1.0 — endianness canary read
                    through the mapped float view
      32      8R    tstarts (f64 x n_rows, strictly increasing)
      ..      8C    ftargets (f64 x n_cols, strictly increasing)
      ..      8K    core_fmax (f64 x n_cores, per-core frequency
                    ceilings; all zeros when the writing platform was
                    unknown)
      ..      8RCK  cells (f64, row-major [i][j][core]; infeasible
                    cells hold zeros)
      ..      B     infeasibility bitmap: ceil(RC/8) bytes padded to a
                    multiple of 8; bit [k land 7] of byte [k lsr 3] is
                    set iff cell [k = i*n_cols + j] is infeasible
    v}

    Version 2 added the per-core fmax block (the platform refactor:
    tables built for an asymmetric machine record which ceilings the
    cells were certified against).  Version-1 images are rejected
    with a message naming the version so stale fleets fail loudly.

    Every numeric region is 8-byte aligned (the header is 32 bytes),
    so the sentinel-through-cells span maps directly as a float64
    {!Bigarray.Array1}. *)

open Linalg

val serialize : ?core_fmax:float array -> Table.t -> string
(** The version-2 image of a table.  Feasible cells must exist for the
    core count to be recorded; an all-infeasible table serializes with
    [n_cores = 0].  [core_fmax] (one ceiling per core, e.g.
    [Sim.Machine.core_fmax]) defaults to all zeros, meaning the
    writing platform was unknown; raises [Invalid_argument] on a
    length mismatch or a non-finite or negative entry. *)

val write : ?core_fmax:float array -> Table.t -> string -> unit
(** [write table path] writes {!serialize}'s image atomically enough
    for the tests (truncate + write). *)

type t
(** A read-only mapped image.  Safe to share across domains: all
    state is immutable after {!open_file}. *)

val open_file : string -> t
(** Map [path] read-only and validate it: magic, version, declared
    dimensions vs file size, the float-view sentinel, finite and
    strictly increasing axes, finite non-negative per-core ceilings,
    and finite non-negative frequencies in every feasible cell (which
    needs [n_cores > 0]).  Raises [Failure] with a descriptive message on
    truncated, corrupt, wrong-version or wrong-endianness images.
    The file descriptor is closed before returning (the mapping keeps
    the pages alive). *)

val n_rows : t -> int
val n_cols : t -> int

val n_cores : t -> int
(** Frequencies per cell; [0] for an all-infeasible image (every
    lookup misses). *)

val tstarts : t -> float array
val ftargets : t -> float array

val core_fmax : t -> float array
(** Per-core frequency ceilings recorded at write time; all zeros
    when the writer did not know the platform.  Fresh copy. *)

val row_index : t -> float -> int
(** As {!Table.row_index}: conservative covering row, [-1] when the
    temperature exceeds the hottest row.  Binary search, no
    allocation. *)

val col_start : t -> float -> int
(** As {!Table.col_start}. *)

val infeasible_bit : t -> int -> int -> bool
(** Bitmap test for cell [(i, j)] (unchecked indices: callers
    validate).  No allocation. *)

val cell_into : t -> int -> int -> into:Vec.t -> bool
(** Copy cell [(i, j)] into [into] ([false] = infeasible, [into]
    untouched).  Raises [Invalid_argument] on an out-of-range index or
    a core-count mismatch.  No allocation. *)

val lookup_into : t -> temperature:float -> required:float -> into:Vec.t -> bool
(** Exactly {!Table.lookup_into}, served from the mapping: covering
    row by binary search, round the requirement up to the starting
    column, walk down to the first feasible cell.  [false] when the
    temperature exceeds every row or the row has no feasible column.
    Allocation-free (listed in [lint.manifest] and Gc-asserted by the
    tests), so thousands of controllers can poll one shared image. *)

val to_table : t -> Table.t
(** Materialize the image back into a heap table (tests and
    offline tooling; allocates freely). *)
