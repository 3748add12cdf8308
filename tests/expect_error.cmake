# Run CMD (a ;-separated command line) and require it to exit with
# status 1 and print a line matching the regular expression ERROR on
# stderr.
#
#   cmake -DCMD="prog;arg1" -DERROR="^bsisac: " -P expect_error.cmake
execute_process(COMMAND ${CMD}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status EQUAL 1)
    message(FATAL_ERROR "command exited with '${status}', not 1: ${CMD}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${ERROR}")
    message(FATAL_ERROR "stderr does not match '${ERROR}':\n${err}")
endif()
