# Test driver: run BINARY twice with the given ARGS, --threads 1 vs
# --threads 4, and require byte-identical stdout — the engine's
# determinism contract at the harness level. With GOLDEN set, the stdout
# must also equal that file byte for byte (a capture from an earlier
# build, so a refactor cannot move the numbers on every thread count).
# With IGNORE_REGEX set, lines matching it are dropped from both runs and
# from the golden before comparing (e.g. a peak-RSS line that varies from
# run to run).
#
# Usage: cmake -DBINARY=<path> -DARGS=<;-list> [-DGOLDEN=<file>]
#              [-DIGNORE_REGEX=<regex>] -P compare_thread_runs.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")

# Drops the lines of the named variable that match IGNORE_REGEX. Lines
# are cut with string(FIND) rather than turned into a CMake list, so
# brackets and semicolons in the output survive untouched.
function(drop_ignored_lines var)
  set(text "${${var}}")
  set(kept "")
  while(NOT text STREQUAL "")
    string(FIND "${text}" "\n" newline)
    if(newline EQUAL -1)
      set(line "${text}")
      set(text "")
    else()
      math(EXPR line_end "${newline} + 1")
      string(SUBSTRING "${text}" 0 ${line_end} line)
      string(SUBSTRING "${text}" ${line_end} -1 text)
    endif()
    if(NOT line MATCHES "${IGNORE_REGEX}")
      string(APPEND kept "${line}")
    endif()
  endwhile()
  set(${var} "${kept}" PARENT_SCOPE)
endfunction()

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

if(DEFINED IGNORE_REGEX)
  drop_ignored_lines(out_serial)
  drop_ignored_lines(out_wide)
endif()

if(NOT out_serial STREQUAL out_wide)
  message(FATAL_ERROR
    "stdout differs between --threads 1 and --threads 4\n"
    "--- threads=1 ---\n${out_serial}\n--- threads=4 ---\n${out_wide}")
endif()

if(DEFINED GOLDEN)
  file(READ ${GOLDEN} golden)
  if(DEFINED IGNORE_REGEX)
    drop_ignored_lines(golden)
  endif()
  if(NOT out_serial STREQUAL golden)
    message(FATAL_ERROR
      "stdout differs from ${GOLDEN}\n"
      "--- golden ---\n${golden}\n--- got ---\n${out_serial}")
  endif()
endif()
