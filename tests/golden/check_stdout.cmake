# Runs one program and compares its stdout byte for byte with a golden file.
#
#   cmake -DEXE=<program> "-DARGS=<space-separated arguments>"
#         -DGOLDEN=<expected.txt> -DOUT=<actual.txt> -P check_stdout.cmake
#
# Fails when the program exits nonzero or its output differs; on a mismatch
# it prints a unified diff (or, without a diff tool, both files).

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                OUTPUT_FILE "${OUT}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS} exited with ${status}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF_EXE diff)
  if(DIFF_EXE)
    execute_process(COMMAND "${DIFF_EXE}" -u "${GOLDEN}" "${OUT}")
  else()
    file(READ "${GOLDEN}" expected)
    file(READ "${OUT}" actual)
    message("--- expected: ${GOLDEN}\n${expected}--- actual: ${OUT}\n${actual}")
  endif()
  message(FATAL_ERROR "${EXE} ${ARGS}: stdout differs from ${GOLDEN}")
endif()
