# Run `fuzz_replay` on a repro that names an impossible experiment and
# require the documented rejection: exit status 2 (not an abort) with
# every violation on stderr.
#
#   cmake -DREPLAY=<fuzz_replay> -DREPRO=<file.json> -P expect_rejected.cmake

execute_process(COMMAND ${REPLAY} ${REPRO}
                RESULT_VARIABLE rc
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "fuzz_replay exited with '${rc}', want 2:\n${err}")
endif()
foreach(violation "lossRate: fault rates are probabilities"
                  "topology nodes is 0 \\(off\\) or in \\[2, 1024\\]")
    if(NOT err MATCHES "${violation}")
        message(FATAL_ERROR "stderr lacks '${violation}':\n${err}")
    endif()
endforeach()
