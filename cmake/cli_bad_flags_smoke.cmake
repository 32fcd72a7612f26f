# Flag hardening at the CLI surface: every malformed --max-steps value, a
# trailing --edb/--bedb with no spec, an --update= with no path, a second
# program path, a misspelt --edbx and the retired --scan/--values/--threads/
# --index flags must take the usage-error path — exit 1 with a message on
# stderr — never an uncaught exception, an abort or a run that ignores the
# flag. So must an EDB value outside the chosen carrier, whether it comes
# from the TSV or from an --update= batch, and a program with a negated
# product atom (the bad inputs are written to OUT_DIR).
#
# Invoked by CTest as:
#   cmake -DCLI=<datalogo_cli> -DPROGRAM=<.dl> -DEDGES=<.tsv>
#         -DOUT_DIR=<dir> -P cli_bad_flags_smoke.cmake
foreach(var CLI PROGRAM EDGES OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_bad_flags_smoke: missing -D${var}=...")
  endif()
endforeach()

set(bad_flags
    --max-steps=99999999999 --max-steps=0 --max-steps=-1 --max-steps=12abc
    --max-steps= --max-steps=+2 --edb --bedb --update= ${PROGRAM}
    --edbx --scan=simd --values=simd --threads=4 --index=hash --index=auto)
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

# EDB values against the carrier: "<semiring>:<exit code>:<TSV text>".
# Trop+ takes v >= 0 (inf allowed), fuzzy and viterbi take 0 <= v <= 1.
# An out-of-carrier value must fail with a line-numbered error; the
# carrier bounds themselves must load.
set(value_cases
    "trop:1:a b -1\nb a -1\n" "viterbi:1:a b 2\nb a 2\n" "fuzzy:1:a b 2.5\n"
    "fuzzy:1:a b -3\n" "viterbi:1:a b -0.5\n" "trop:1:a b nan\n"
    "trop:0:a b 0\nb c inf\n" "fuzzy:0:a b 0\nb c 1\n"
    "viterbi:0:a b 0\nb c 1\n")
set(i 0)
foreach(c IN LISTS value_cases)
  string(REGEX MATCH "^([a-z]+):([01]):" prefix "${c}")
  set(semiring ${CMAKE_MATCH_1})
  set(want ${CMAKE_MATCH_2})
  string(REPLACE "${prefix}" "" text "${c}")
  set(tsv "${OUT_DIR}/cli_value_${i}.tsv")
  file(WRITE ${tsv} "${text}")
  execute_process(
    COMMAND ${CLI} ${PROGRAM} --semiring=${semiring} --edb E=${tsv}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc STREQUAL want OR
     (want STREQUAL "1" AND NOT err MATCHES "line [0-9]+: cannot parse value"))
    message(FATAL_ERROR "${semiring} TSV '${text}': expected exit ${want}, "
                        "got '${rc}': ${err}")
  endif()
  math(EXPR i "${i} + 1")
endforeach()

# The same check on the --update= batch path.
set(batch "${OUT_DIR}/cli_bad_value.batch")
file(WRITE ${batch} "+ E v1 v3 -2\n")
execute_process(
  COMMAND ${CLI} ${PROGRAM} --semiring=trop --edb E=${EDGES}
          --update=${batch}
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc STREQUAL "1" OR NOT err MATCHES "line 1: cannot parse value")
  message(FATAL_ERROR "--update= with a negative trop weight: expected "
                      "exit 1 with a line-numbered error, got '${rc}': ${err}")
endif()

# Negated product atoms: a negated POPS EDB atom is invalid everywhere,
# and the CLI runs only the relational engine, which has no negated IDB
# atoms either. Both must fail validation, never reach an engine CHECK.
set(negated_programs
    "edb E/2.\nedb F/2.\nidb T/2.\nT(X,Y) :- E(X,Y) * !F(X,Y).\n"
    "edb E/2.\nidb T/2.\nidb U/2.\nU(X,Y) :- E(X,Y).\nT(X,Y) :- E(X,Y) * !U(X,Y).\n")
set(i 0)
foreach(text IN LISTS negated_programs)
  set(dl "${OUT_DIR}/cli_negated_${i}.dl")
  file(WRITE ${dl} "${text}")
  execute_process(
    COMMAND ${CLI} ${dl} --semiring=trop --edb E=${EDGES}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "1" OR err STREQUAL "" OR err MATCHES "CHECK failed")
    message(FATAL_ERROR "negated atom in '${text}': expected exit 1 with a "
                        "validation message, got '${rc}': ${err}")
  endif()
  math(EXPR i "${i} + 1")
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
message(STATUS "bad-flags smoke: every malformed flag and value exits 1")
