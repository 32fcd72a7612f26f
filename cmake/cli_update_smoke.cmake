# Incremental-maintenance byte-identity smoke at the CLI surface: running
# the fixpoint on the ORIGINAL edges and servicing a mutation batch with
# --update= (Engine::Update, no full re-run) must print tables
# byte-identical to a cold full run over the post-batch edge file. Three
# batches: BATCH deletes and inserts, so it takes DRed (over-delete,
# re-derive, insert seed); INSERT_BATCH only inserts, so it takes the
# insert cascade. Each runs under trop, tropnat and bool. DAG_BATCH
# deletes and inserts on the DAG DAG_EDGES under nat, so it takes exact
# deletion and then the insert cascade. The leading '# ...' status
# comment legitimately differs between the two modes ("update applied
# via ..." vs "converged, stability index ..."), so it is checked for
# the expected strategy and then stripped; the '## PRED' table headers
# and every fact row must match exactly.
#
# Invoked by CTest as:
#   cmake -DCLI=<datalogo_cli> -DPROGRAM=<.dl> -DEDGES=<.tsv>
#         -DBATCH=<.batch> -DEDGES_UPDATED=<.tsv>
#         -DINSERT_BATCH=<.batch> -DEDGES_INSERTED=<.tsv>
#         -DDAG_EDGES=<.tsv> -DDAG_BATCH=<.batch> -DDAG_EDGES_UPDATED=<.tsv>
#         -DOUT_DIR=<dir> -P cli_update_smoke.cmake
foreach(var CLI PROGRAM EDGES BATCH EDGES_UPDATED INSERT_BATCH EDGES_INSERTED
            DAG_EDGES DAG_BATCH DAG_EDGES_UPDATED OUT_DIR)
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

# Writes `in_file` to `out_file` with its weights in `semiring`'s carrier:
# trop keeps them, tropnat truncates each to its integer part, bool makes
# each one 1. Only a number ending a line changes, so keys, comments and
# the value-less "- PRED key..." delete lines pass through.
function(revalue in_file semiring out_file)
  file(READ ${in_file} text)
  if(semiring STREQUAL "tropnat")
    string(REGEX REPLACE "([ \t][0-9]+)\\.[0-9]+(\n|$)" "\\1\\2" text
           "${text}")
  elseif(semiring STREQUAL "bool")
    string(REGEX REPLACE "([ \t])[0-9]+(\\.[0-9]+)?(\n|$)" "\\11\\3" text
           "${text}")
  endif()
  file(WRITE ${out_file} "${text}")
endfunction()

# Runs `batch` under `semiring` over `edges` with --update= and checks
# that it took `strategy` and printed what a cold full run over `post`
# prints. Outputs go to `dir`, named after `tag`.
function(check_update semiring dir tag edges batch post strategy)
  set(base_args --semiring=${semiring} --seminaive)

  # Reference: cold full run over the post-batch edge file.
  set(ref_out "${dir}/${tag}_ref.out")
  run_cli(${ref_out} ${PROGRAM} ${base_args} --edb E=${post})
  strip_comments(${ref_out} "${ref_out}.stripped")

  # Incremental: fixpoint over the original edges, then the batch
  # through Engine::Update; must match the recompute byte-for-byte.
  set(upd_out "${dir}/${tag}_inc.out")
  run_cli(${upd_out} ${PROGRAM} ${base_args} --edb E=${edges}
          --update=${batch})
  file(READ ${upd_out} upd_text)
  if(NOT upd_text MATCHES "^# update applied via ${strategy},")
    message(FATAL_ERROR "${semiring} ${batch}: expected the update "
                        "to run via ${strategy}: ${upd_out}")
  endif()
  strip_comments(${upd_out} "${upd_out}.stripped")
  require_identical("${ref_out}.stripped" "${upd_out}.stripped"
                    "${semiring} full recompute and --update output")
endfunction()

set(batches ${BATCH} ${INSERT_BATCH})
set(post_batch_edges ${EDGES_UPDATED} ${EDGES_INSERTED})
set(strategies dred insert-cascade)
foreach(semiring trop tropnat bool)
  set(dir "${OUT_DIR}/cli_update_${semiring}")
  file(MAKE_DIRECTORY ${dir})
  revalue(${EDGES} ${semiring} "${dir}/edges.tsv")
  foreach(k 0 1)
    list(GET batches ${k} batch_in)
    list(GET post_batch_edges ${k} post_in)
    list(GET strategies ${k} strategy)
    revalue(${batch_in} ${semiring} "${dir}/${k}.batch")
    revalue(${post_in} ${semiring} "${dir}/${k}_post.tsv")
    check_update(${semiring} ${dir} ${k} "${dir}/edges.tsv" "${dir}/${k}.batch"
                 "${dir}/${k}_post.tsv" ${strategy})
  endforeach()
endforeach()

# nat keeps the DAG's integer weights as they are.
set(dir "${OUT_DIR}/cli_update_nat")
file(MAKE_DIRECTORY ${dir})
check_update(nat ${dir} dag ${DAG_EDGES} ${DAG_BATCH} ${DAG_EDGES_UPDATED}
             exact-deletion)

message(STATUS "update smoke: incremental maintenance byte-identical")
