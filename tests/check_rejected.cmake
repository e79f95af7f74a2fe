# Runs one program whose arguments must be rejected: exit status 2, one
# line on stderr, nothing on stdout, and no "pmx assertion failed" banner
# (an abort inside a constructor is not a rejection).
#
#   cmake -DEXE=<program> "-DARGS=<space-separated arguments>"
#         -P check_rejected.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
string(FIND "${out}${err}" "pmx assertion failed" banner)
if(NOT banner EQUAL -1)
  message(FATAL_ERROR "${EXE} ${ARGS}: assertion banner\n${err}")
endif()
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "${EXE} ${ARGS}: exited with '${status}', not 2\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${EXE} ${ARGS}: printed before rejecting\n${out}")
endif()
if(NOT err MATCHES "^[^\n]+\n$")
  message(FATAL_ERROR "${EXE} ${ARGS}: stderr is not one line\n${err}")
endif()
