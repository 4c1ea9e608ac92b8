# Double-channel stdout gate, run by ctest (cli_baselines_golden_t*).
#
# `statsched_cli baselines` measures through the whole decorator
# stack, Metered(Memoizing(Resilient(Parallel(FaultInjecting(sim))))),
# on the double channel (measureBatch / measure), which every
# decorator derives from its outcome channel. With faults injected,
# its stdout must stay byte-identical to the committed golden file
# for the given thread count.
#
# Usage: cmake -DCLI=<statsched_cli> -DTHREADS=<n> -DGOLDEN=<file>
#              -DWORK_DIR=<scratch> -P check_baselines_golden.cmake

if(NOT CLI OR NOT THREADS OR NOT GOLDEN OR NOT WORK_DIR)
    message(FATAL_ERROR
        "need -DCLI=... -DTHREADS=... -DGOLDEN=... -DWORK_DIR=...")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
    COMMAND ${CLI} baselines --fault-rate 10 --fault-garbage 5
            --threads ${THREADS}
    OUTPUT_FILE "${WORK_DIR}/out_${THREADS}.txt"
    ERROR_FILE "${WORK_DIR}/err_${THREADS}.txt"
    RESULT_VARIABLE code)
if(NOT code EQUAL 0)
    message(FATAL_ERROR "baselines --threads ${THREADS} exited ${code}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${GOLDEN}" "${WORK_DIR}/out_${THREADS}.txt"
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR "baselines --threads ${THREADS} stdout differs "
        "from ${GOLDEN} (see ${WORK_DIR}/out_${THREADS}.txt)")
endif()
