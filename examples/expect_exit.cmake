# Run a command; pass only when it exits with EXPECT_EXIT and its
# output (stdout and stderr together) matches EXPECT_OUTPUT.  ctest's
# WILL_FAIL would also pass a command killed by a signal, such as an
# abort on an uncaught exception.
#
#   cmake -DEXPECT_EXIT=1 "-DEXPECT_OUTPUT=regex" -P expect_exit.cmake \
#         -- command args...

set(command)
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(in_command)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(in_command TRUE)
    endif()
endforeach()

execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
message("${output}")
if(NOT "${code}" STREQUAL "${EXPECT_EXIT}")
    message(FATAL_ERROR "exit status ${code}, expected ${EXPECT_EXIT}")
endif()
if(NOT output MATCHES "${EXPECT_OUTPUT}")
    message(FATAL_ERROR "output does not match \"${EXPECT_OUTPUT}\"")
endif()
