# Runs each example program with no flags and requires exit status 0 from
# every run (registered with ctest as examples_run when the examples are
# built). Each takes well under a second.
#
#   cmake -DDIR=<directory holding the example_* binaries>
#         -P tests/examples_run.cmake
set(examples
  quickstart autonomous_driving medical_imaging edge_inference_server
  cluster_serving daris_cli)
set(failed "")
foreach(name IN LISTS examples)
  execute_process(COMMAND "${DIR}/example_${name}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    list(APPEND failed "example_${name} exited ${rc}: ${err}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "examples failed: ${failed}")
endif()
