# Runs the command in the header comment of examples/trace_gen.cpp, which
# writes the diurnal-replay scenario's trace as CSV, and requires the
# output's SHA-256 to equal the digest of the trace that scenario replays
# (registered with ctest as trace_gen_reproduces_fixture when the examples
# are built).
#
#   cmake -DCLI=<path to example_trace_gen> -DOUT=<output csv>
#         -P tests/trace_gen_fixture.cmake
set(want 3e3cb0eefdf45fdc514d0f54b1ef2bf30f096a03a74bcebe6d73d8148a2ce0eb)
execute_process(COMMAND "${CLI}" --duration-s 30 --rate 1260
    --diurnal-amp 0.5 --diurnal-period-s 20 --flash 22:3:2.5 --seed 42
    --out "${OUT}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "example_trace_gen exited ${rc}")
endif()
file(SHA256 "${OUT}" got)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "${OUT} has SHA-256 ${got}, want ${want}")
endif()
