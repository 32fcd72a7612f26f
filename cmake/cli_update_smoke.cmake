# Incremental-maintenance byte-identity smoke at the CLI surface: running
# the fixpoint on the ORIGINAL edges and servicing a mutation batch with
# --update= (Engine::Update — delete cascade + insert cascade, no full
# re-run) must print tables byte-identical to a cold full run over the
# PRE-MUTATED edge file. The leading '# ...' status comment legitimately
# differs between the two modes ("update applied via ..." vs "converged,
# stability index ..."), so comment lines are stripped before comparing;
# the '## PRED' table headers and every fact row must match exactly.
#
# Invoked by CTest as:
#   cmake -DCLI=<datalogo_cli> -DPROGRAM=<.dl> -DEDGES=<.tsv>
#         -DBATCH=<.batch> -DEDGES_UPDATED=<.tsv> -DOUT_DIR=<dir>
#         -P cli_update_smoke.cmake
foreach(var CLI PROGRAM EDGES BATCH EDGES_UPDATED OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_update_smoke: missing -D${var}=...")
  endif()
endforeach()

function(run_cli out_file)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    OUTPUT_FILE ${out_file}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "datalogo_cli ${ARGN} failed (exit ${rc})")
  endif()
endfunction()

# Rewrites `in_file` with every "# " status-comment line removed. The
# "## PRED" table headers survive: their second character is '#', not ' '.
function(strip_comments in_file out_file)
  file(READ ${in_file} text)
  string(REGEX REPLACE "(^|\n)# [^\n]*\n" "\\1" text "${text}")
  file(WRITE ${out_file} "${text}")
endfunction()

function(require_identical a b what)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "${what} differ: ${a} vs ${b}")
  endif()
endfunction()

set(base_args --semiring=trop --seminaive)

# Reference: cold full run over the post-batch edge file.
set(ref_out "${OUT_DIR}/cli_update_ref.out")
run_cli(${ref_out} ${PROGRAM} ${base_args} --edb E=${EDGES_UPDATED})
strip_comments(${ref_out} "${ref_out}.stripped")

# Incremental: fixpoint over the original edges, then the batch through
# Engine::Update — default config and a deliberately different one
# (threads and index tier changed); every variant must match the
# recompute byte-for-byte.
set(upd_out "${OUT_DIR}/cli_update_inc.out")
run_cli(${upd_out} ${PROGRAM} ${base_args} --edb E=${EDGES}
        --update=${BATCH})
strip_comments(${upd_out} "${upd_out}.stripped")
require_identical("${ref_out}.stripped" "${upd_out}.stripped"
                  "full recompute and --update output")

set(upd_t4_out "${OUT_DIR}/cli_update_inc_t4.out")
run_cli(${upd_t4_out} ${PROGRAM} ${base_args} --edb E=${EDGES}
        --update=${BATCH} --threads=4 --index=direct)
strip_comments(${upd_t4_out} "${upd_t4_out}.stripped")
require_identical("${ref_out}.stripped" "${upd_t4_out}.stripped"
                  "full recompute and parallel --update output")

message(STATUS "update smoke: incremental maintenance byte-identical")
