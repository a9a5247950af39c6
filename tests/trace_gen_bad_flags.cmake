# Runs example_trace_gen once per malformed or out-of-range flag value and
# requires exit status 2 from every run (registered with ctest as
# trace_gen_rejects_bad_flags when the examples are built).
#
#   cmake -DCLI=<path to example_trace_gen> -P tests/trace_gen_bad_flags.cmake
set(cases
  "--rate abc" "--rate 0" "--rate -5" "--rate nan" "--rate inf"
  "--duration-s 1x" "--duration-s 0" "--duration-s -1" "--duration-s nan"
  "--rate 1e-9 --duration-s 1e10"
  "--diurnal-amp 1" "--diurnal-amp -0.1" "--diurnal-amp 0.5x"
  "--diurnal-period-s 0" "--diurnal-period-s -20"
  "--diurnal-phase nan" "--diurnal-phase x"
  "--seed -1" "--seed 12x" "--seed abc"
  "--flash 22:3:0" "--flash 22:3:-1" "--flash 22:3" "--flash a:3:2"
  "--flash 22:3:2x" "--flash 22:nan:2"
  "--mix resnet18:hp:0" "--mix resnet18:hp:abc" "--mix resnet18:hp:1x")
set(failed "")
foreach(case IN LISTS cases)
  separate_arguments(argv UNIX_COMMAND "${case}")
  execute_process(COMMAND "${CLI}" ${argv}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    list(APPEND failed "'${case}' exited ${rc}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "example_trace_gen accepted bad flag values: ${failed}")
endif()
