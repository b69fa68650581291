# Test driver: run BINARY twice with the given ARGS, --threads 1 vs
# --threads 4, and require byte-identical stdout — the engine's
# determinism contract at the harness level. With GOLDEN set, the stdout
# must also equal that file byte for byte (a capture from an earlier
# build, so a refactor cannot move the numbers on every thread count).
#
# Usage: cmake -DBINARY=<path> -DARGS=<;-list> [-DGOLDEN=<file>]
#              -P compare_thread_runs.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")

execute_process(
  COMMAND ${BINARY} ${arg_list} --threads 1
  OUTPUT_VARIABLE out_serial
  RESULT_VARIABLE rc_serial
  ERROR_VARIABLE err_serial)
if(NOT rc_serial EQUAL 0)
  message(FATAL_ERROR "--threads 1 run failed (${rc_serial}): ${err_serial}")
endif()

execute_process(
  COMMAND ${BINARY} ${arg_list} --threads 4
  OUTPUT_VARIABLE out_wide
  RESULT_VARIABLE rc_wide
  ERROR_VARIABLE err_wide)
if(NOT rc_wide EQUAL 0)
  message(FATAL_ERROR "--threads 4 run failed (${rc_wide}): ${err_wide}")
endif()

if(NOT out_serial STREQUAL out_wide)
  message(FATAL_ERROR
    "stdout differs between --threads 1 and --threads 4\n"
    "--- threads=1 ---\n${out_serial}\n--- threads=4 ---\n${out_wide}")
endif()

if(DEFINED GOLDEN)
  file(READ ${GOLDEN} golden)
  if(NOT out_serial STREQUAL golden)
    message(FATAL_ERROR
      "stdout differs from ${GOLDEN}\n"
      "--- golden ---\n${golden}\n--- got ---\n${out_serial}")
  endif()
endif()
