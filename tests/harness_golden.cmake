# Run one paper harness and compare its stdout with its checked-in
# golden byte for byte:
#   cmake -DHARNESS=<binary> -DGOLDEN=<golden.txt> -DACTUAL=<out.txt> \
#         [-DARGS="<space-separated arguments>"] \
#         -P tests/harness_golden.cmake
# With WIVLIW_REGEN_GOLDEN=1 in the environment the golden is
# rewritten from the fresh output instead (an intended change only).

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${HARNESS}" ${args}
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${HARNESS} exited with ${status}")
endif()

if(DEFINED ENV{WIVLIW_REGEN_GOLDEN})
  configure_file("${ACTUAL}" "${GOLDEN}" COPYONLY)
  message(STATUS "regenerated ${GOLDEN}")
  return()
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${ACTUAL}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
          "${HARNESS} output differs from ${GOLDEN}; compare with "
          "diff ${GOLDEN} ${ACTUAL}, and regenerate with "
          "WIVLIW_REGEN_GOLDEN=1 only for an intended change")
endif()
