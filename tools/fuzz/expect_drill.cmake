# Run the fuzzer's planted-bug drill and hold its repro to the golden
# copy byte for byte: that pins the Experiment JSON writer, the
# knobDiff order and the shrink path at once.  The golden repro must
# also replay clean, since fuzz_replay runs without the planted bug.
#
#   cmake -DFUZZ=<fuzz> -DREPLAY=<fuzz_replay> -DGOLDEN=<drill_repro.json>
#         -DOUT=<output path> -P expect_drill.cmake

execute_process(COMMAND ${FUZZ} --runs 60 --seed 1987
                        --inject-bug retransmission --out ${OUT}
                RESULT_VARIABLE rc
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "fuzz exited with '${rc}', want 1:\n${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
    file(READ ${OUT} got)
    message(FATAL_ERROR "${OUT} differs from ${GOLDEN}:\n${got}")
endif()
execute_process(COMMAND ${REPLAY} ${GOLDEN}
                RESULT_VARIABLE rc
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "fuzz_replay exited with '${rc}', want 0:\n${err}")
endif()
