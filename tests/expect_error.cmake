# Run CMD (a ;-separated command line) and require it to exit with
# status STATUS (default 1) and print a line matching the regular
# expression ERROR on stderr.
#
#   cmake -DCMD="prog;arg1" -DERROR="^bsisac: " [-DSTATUS=2] \
#         -P expect_error.cmake
if(NOT DEFINED STATUS)
    set(STATUS 1)
endif()
execute_process(COMMAND ${CMD}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status EQUAL STATUS)
    message(FATAL_ERROR "command exited with '${status}', not ${STATUS}: "
                        "${CMD}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${ERROR}")
    message(FATAL_ERROR "stderr does not match '${ERROR}':\n${err}")
endif()
