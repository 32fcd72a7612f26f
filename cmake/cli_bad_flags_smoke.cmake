# Numeric-flag hardening at the CLI surface: every malformed --threads /
# --max-steps value must take the usage-error path — exit 1 with a
# message on stderr — never an uncaught exception or abort.
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
    --threads=abc --threads=-3 --threads=4x --threads= --threads=+2
    --threads=99999999999 --max-steps=99999999999 --max-steps=0
    --max-steps=-1 --max-steps=12abc --max-steps=)
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

# Control: in-range values of both flags still run.
execute_process(
  COMMAND ${CLI} ${PROGRAM} --semiring=trop --edb E=${EDGES}
          --threads=0 --max-steps=1000
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "--threads=0 --max-steps=1000: exit '${rc}'")
endif()
message(STATUS "bad-flags smoke: every malformed value exits 1")
