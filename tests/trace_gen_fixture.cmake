# Regenerates the bundled trace fixture with the command in the header
# comment of examples/trace_gen.cpp and requires the output to equal
# tests/data/diurnal_50k.csv byte for byte (registered with ctest as
# trace_gen_reproduces_fixture when the examples are built).
#
#   cmake -DCLI=<path to example_trace_gen> -DFIXTURE=<committed csv>
#         -DOUT=<scratch csv> -P tests/trace_gen_fixture.cmake
execute_process(COMMAND "${CLI}" --duration-s 30 --rate 1260
    --diurnal-amp 0.5 --diurnal-period-s 20 --flash 22:3:2.5 --seed 42
    --out "${OUT}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "example_trace_gen exited ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}"
    "${FIXTURE}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the committed ${FIXTURE}")
endif()
