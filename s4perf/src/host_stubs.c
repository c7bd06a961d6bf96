/* Monotonic host clock for span and latency timing (nanoseconds). */

#include <stdint.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/mlvalues.h>

int64_t s4perf_now_ns_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec;
}

value s4perf_now_ns(value unit)
{
  return caml_copy_int64(s4perf_now_ns_unboxed(unit));
}
