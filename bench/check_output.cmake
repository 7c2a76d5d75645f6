# Runs one paper bench and checks its stdout against the committed copy.
#
#   cmake -DBENCH=<binary> -DEXPECTED=<file> -DACTUAL=<file> \
#         -P check_output.cmake
#
# Fails when the bench exits non-zero (one of its claims failed) or when its
# stdout differs from EXPECTED by a single byte, printing the diff.
# tools/bench_expected.sh rewrites the EXPECTED files.
execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  file(READ "${ACTUAL}" out)
  message("${out}")
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${EXPECTED}" "${ACTUAL}" RESULT_VARIABLE differ)
if(differ)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${EXPECTED}" "${ACTUAL}")
  else()
    file(READ "${ACTUAL}" out)
    message("${out}")
  endif()
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${EXPECTED}")
endif()
