# Runs example_daris_cli once per malformed or out-of-range flag value and
# requires exit status 2 from every run (registered with ctest as
# cli_rejects_bad_flags when the examples are built).
#
#   cmake -DCLI=<path to example_daris_cli> -P tests/cli_bad_flags.cmake
set(cases
  "--contexts 0" "--contexts -3" "--contexts abc" "--contexts 2x"
  "--contexts 32768"
  "--streams 0" "--batch 0" "--window 0" "--window 65" "--window 2147483647"
  "--os nan" "--os 0.5" "--os inf"
  "--duration -1" "--duration 0" "--duration nan"
  "--load 0" "--load inf"
  "--hp-frac 1.5" "--hp-frac -0.1"
  "--seed -1" "--seed 12x")
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
  message(FATAL_ERROR "example_daris_cli accepted bad flag values: ${failed}")
endif()
