# Run a command and require its exit code and a stderr pattern.
#
#   cmake -DCMD="prog|arg1|arg2" -DEXIT=2 -DSTDERR=regex -P expect_exit.cmake
#
# CMD separates its words with '|'. Used by ctest to pin how the bench tools
# reject malformed flags.
string(REPLACE "|" ";" command "${CMD}")
execute_process(COMMAND ${command} RESULT_VARIABLE code OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit '${code}', expected ${EXIT}; stderr: ${err}")
endif()
if(NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "stderr does not match '${STDERR}': ${err}")
endif()
