# Flag hardening at the CLI surface: every malformed --max-steps value, a
# trailing --edb/--bedb with no spec, an --update= with no path, a second
# program path, a misspelt --edbx and the retired --scan/--values/--threads
# flags must take the usage-error path — exit 1 with a message on stderr —
# never an uncaught exception, an abort or a run that ignores the flag.
#
# Invoked by CTest as:
#   cmake -DCLI=<datalogo_cli> -DPROGRAM=<.dl> -DEDGES=<.tsv>
#         -P cli_bad_flags_smoke.cmake
foreach(var CLI PROGRAM EDGES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_bad_flags_smoke: missing -D${var}=...")
  endif()
endforeach()

set(bad_flags
    --max-steps=99999999999 --max-steps=0 --max-steps=-1 --max-steps=12abc
    --max-steps= --max-steps=+2 --edb --bedb --update= ${PROGRAM}
    --edbx --scan=simd --values=simd --threads=4)
foreach(flag IN LISTS bad_flags)
  execute_process(
    COMMAND ${CLI} ${PROGRAM} --semiring=trop --edb E=${EDGES} ${flag}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "${flag}: expected exit 1, got '${rc}'")
  endif()
  if(err STREQUAL "")
    message(FATAL_ERROR "${flag}: exit 1 without a message on stderr")
  endif()
endforeach()

# Control: an in-range --max-steps still runs.
execute_process(
  COMMAND ${CLI} ${PROGRAM} --semiring=trop --edb E=${EDGES}
          --max-steps=1000
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "--max-steps=1000: exit '${rc}'")
endif()
message(STATUS "bad-flags smoke: every malformed value exits 1")
