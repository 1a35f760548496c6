# CLI hardening checks, run as one CTest case:
#   cmake -DCLI=<path to fairjob_cli> -P cli_test.cmake
# Each case pins BOTH the exit code and a regex over combined stdout+stderr
# (plain WILL_FAIL / PASS_REGULAR_EXPRESSION cannot check the two together).

if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to fairjob_cli>")
endif()

set(failures 0)

# run_case(<name> <expected-exit-code> <must-match-regex> [args...])
function(run_case name expected regex)
  execute_process(
    COMMAND "${CLI}" ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code
  )
  set(combined "${out}${err}")
  set(ok TRUE)
  if(NOT code STREQUAL expected)
    message(WARNING "${name}: exit code ${code}, expected ${expected}")
    set(ok FALSE)
  endif()
  if(NOT combined MATCHES "${regex}")
    message(WARNING "${name}: output does not match '${regex}':\n${combined}")
    set(ok FALSE)
  endif()
  if(NOT ok)
    math(EXPR failures "${failures} + 1")
    set(failures "${failures}" PARENT_SCOPE)
  else()
    message(STATUS "${name}: ok")
  endif()
endfunction()

# Bad invocations: nonzero exit AND usage/diagnostic text.
run_case(no_command 2 "no command given.*usage:")
run_case(unknown_command 2 "unknown command 'frobnicate'.*usage:" frobnicate)
run_case(help_exits_zero 0 "usage:" help)
run_case(unknown_flag 1 "unknown flag '--bogus'" serve-bench --bogus 1)
run_case(typoed_flag_not_silently_ignored 1 "unknown flag '--request'"
         serve-bench --request 10)
run_case(non_numeric_flag 1 "expects an integer" serve-bench --requests ten)
run_case(non_positive_flag 1 "must be positive" serve-bench --requests=-5)
run_case(bad_algorithm 1 "unknown --algorithm 'bogus'"
         serve-bench --algorithm bogus --requests 10)
run_case(unknown_flag_other_command 1 "unknown flag '--bogus'" topk --bogus 1)

# A tiny serve-bench must succeed end to end and report the speedup line.
run_case(serve_bench_smoke 0 "hot/cold speedup:"
         serve-bench --requests 80 --keyspace 8 --workers 40 --cities 2)

# --metrics_json exports the serve counts after serve-bench's services are
# gone, so this checks that destroyed services' counts are retired, not lost.
set(metrics_json "${CMAKE_CURRENT_BINARY_DIR}/cli_serve_bench_metrics.json")
file(REMOVE "${metrics_json}")
run_case(serve_bench_metrics_json 0 "hot/cold speedup:"
         serve-bench --requests 80 --keyspace 8 --workers 40 --cities 2
         --metrics_json "${metrics_json}")
set(metrics_text "")
if(EXISTS "${metrics_json}")
  file(READ "${metrics_json}" metrics_text)
endif()
foreach(counter serve.requests serve.cache.hits)
  if(NOT metrics_text MATCHES "\"${counter}\": [1-9]")
    message(WARNING "serve_bench_metrics_json: ${counter} is not positive in "
                    "'${metrics_json}':\n${metrics_text}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} CLI case(s) failed")
endif()
