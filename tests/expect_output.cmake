# Run CMD (a ;-separated command line) and require its stdout to equal
# the contents of EXPECTED byte for byte.
#
#   cmake -DCMD="prog;arg1;arg2" -DEXPECTED=golden.txt -P expect_output.cmake
execute_process(COMMAND ${CMD}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "command exited with ${status}: ${CMD}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "output differs from ${EXPECTED}:\n${actual}")
endif()
