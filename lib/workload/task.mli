(** Tasks: the unit of work the multi-core system executes.

    Following the paper's definitions: the workload of a task is the
    time it takes at the maximum core frequency; benchmark task
    lengths are 1-10 ms, much shorter than the 100 ms DFS window. *)

type benchmark = Web | Multimedia | Compute

type t = {
  id : int;
  arrival : float;  (** Seconds from trace start. *)
  work : float;  (** Execution time at the maximum frequency, seconds. *)
  benchmark : benchmark;
}

val benchmark_name : benchmark -> string

val service_time : t -> frequency:float -> fmax:float -> float
(** Time to finish the whole task at a constant [frequency]:
    [work * fmax / frequency].  Raises [Invalid_argument] for a
    non-positive frequency (a stopped core makes no progress). *)

val compare_by_arrival : t -> t -> int
