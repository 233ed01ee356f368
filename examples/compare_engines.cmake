# Smoke test of one example: run it under the ambient FARGO_PARALLEL, then
# under the deterministic sim (FARGO_PARALLEL=0). Both runs must exit 0 and
# print byte-identical stdout: the engine may change how the example is
# scheduled, never what it observes.
#
#   cmake -DEXAMPLE=<path to the example binary> -P compare_engines.cmake
execute_process(COMMAND "${EXAMPLE}" RESULT_VARIABLE ambient_rc
                OUTPUT_VARIABLE ambient_out)
if(NOT ambient_rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${ambient_rc}")
endif()
set(ENV{FARGO_PARALLEL} 0)
execute_process(COMMAND "${EXAMPLE}" RESULT_VARIABLE sim_rc
                OUTPUT_VARIABLE sim_out)
if(NOT sim_rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${sim_rc} under the sim")
endif()
if(NOT ambient_out STREQUAL sim_out)
  message(FATAL_ERROR "${EXAMPLE}: stdout differs from the sim's\n"
                      "--- ambient engine ---\n${ambient_out}"
                      "--- sim ---\n${sim_out}")
endif()
