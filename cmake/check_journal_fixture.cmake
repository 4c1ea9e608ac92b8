# Journal-format gate, run by ctest (cli_journal_fixture_t*).
#
# tests/golden/journal_v1_6tasks.jnl is a version-1 journal written by
# an earlier build: the campaign below, stopped by `--max-rounds 5`
# after 220 measurements. Resuming a copy of it must print exactly the
# report of the uninterrupted campaign
# (tests/golden/journal_v1_6tasks_stdout.txt) and exit 3 (sample cap),
# at any thread count. A format change that stops reading the file
# must refuse it cleanly instead (and replace this gate).
#
# Usage: cmake -DCLI=<statsched_cli> -DTHREADS=<n> -DFIXTURE=<jnl>
#              -DGOLDEN=<stdout file> -DWORK_DIR=<scratch>
#              -P check_journal_fixture.cmake

if(NOT CLI OR NOT THREADS OR NOT FIXTURE OR NOT GOLDEN OR NOT WORK_DIR)
    message(FATAL_ERROR "need -DCLI=... -DTHREADS=... -DFIXTURE=... "
        "-DGOLDEN=... -DWORK_DIR=...")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(journal "${WORK_DIR}/resume_${THREADS}.jnl")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E copy "${FIXTURE}" "${journal}"
    RESULT_VARIABLE copied)
if(NOT copied EQUAL 0)
    message(FATAL_ERROR "cannot copy ${FIXTURE} to ${journal}")
endif()

execute_process(
    COMMAND ${CLI} iterate --benchmark ipfwd-l1 --instances 2 --seed 6
            --ninit 200 --ndelta 50 --max 700 --loss 0.001
            --fault-rate 10 --fault-garbage 5 --retries 3
            --threads ${THREADS} --journal "${journal}" --resume
    OUTPUT_FILE "${WORK_DIR}/out_${THREADS}.txt"
    ERROR_FILE "${WORK_DIR}/err_${THREADS}.txt"
    RESULT_VARIABLE code)
if(NOT code EQUAL 3)
    message(FATAL_ERROR "resume --threads ${THREADS} exited ${code}, "
        "not 3 (see ${WORK_DIR}/err_${THREADS}.txt)")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${GOLDEN}" "${WORK_DIR}/out_${THREADS}.txt"
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR "resume --threads ${THREADS} stdout differs "
        "from ${GOLDEN} (see ${WORK_DIR}/out_${THREADS}.txt)")
endif()
