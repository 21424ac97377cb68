(** Fixed-size domain pool with a shared task queue.

    A pool owns [size - 1] worker domains pulling tasks from a single
    queue (the submitting domain also participates while waiting, so a
    pool of size [k] really computes on [k] domains).  Results are
    assembled by index, so {!map_rows} is deterministic regardless of
    execution order; a pool of size 1 spawns no domains at all and runs
    the classic sequential loop, producing bit-identical results.

    The pool is built on stdlib [Domain]/[Mutex]/[Condition] only — no
    external dependencies.  Tasks must not themselves submit work to
    the pool they run on. *)

type t

val default_domains : unit -> int
(** Pool size used when none is given: the [PROTEMP_DOMAINS]
    environment variable when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

val parse_domains : string -> int option
(** [parse_domains s] is the pool size encoded by an environment
    value: [Some n] for a positive integer, [None] otherwise.
    Exposed for testing. *)

val size : t -> int

val map_rows : t -> (int -> 'a) -> int -> 'a array
(** [map_rows pool f n] computes [[| f 0; ...; f (n-1) |]].  Tasks run
    concurrently on the pool's domains; the result array is always in
    index order.  If any [f i] raises, the first exception (in task
    submission order) is re-raised after the batch drains.  Must not
    be called from two domains at once on the same pool. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] on a fresh pool of the given size
    (default {!default_domains}; sizes below 1 are clamped to 1) and
    joins its worker domains afterwards, also on exceptions. *)

val map : ?domains:int -> (int -> 'a) -> int -> 'a array
(** One-shot {!map_rows} on a transient pool of [min domains n]
    domains: no worker is spawned for a task that does not exist. *)
