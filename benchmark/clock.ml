(* Monotonic nanoseconds (CLOCK_MONOTONIC, see clock_stubs.c). *)
external now_ns : unit -> (int[@untagged])
  = "protemp_bench_now_ns_byte" "protemp_bench_now_ns"
[@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* [time f] runs [f ()] and returns its result with the elapsed
   seconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)
