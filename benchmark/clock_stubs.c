/* Monotonic nanosecond clock for the benchmark harness.

   Unix.gettimeofday has microsecond resolution and follows wall-clock
   adjustments, so it can neither time a sub-microsecond call (a table
   lookup, a controller decision) nor be trusted across a long run.
   CLOCK_MONOTONIC through the vDSO costs a few tens of nanoseconds and
   allocates nothing, so the OCaml side binds it [@@noalloc] with an
   untagged int result. */

#include <time.h>
#include <caml/mlvalues.h>

intnat protemp_bench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value protemp_bench_now_ns_byte(value unit)
{
  return Val_long(protemp_bench_now_ns(unit));
}
