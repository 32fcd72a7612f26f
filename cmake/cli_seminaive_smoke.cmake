# Semi-naive smoke at the CLI surface, over a single-group program
# (PROGRAM) and a multi-group one (MULTI_PROGRAM), each under trop (on
# EDGES) and under fuzzy and viterbi (on UNIT_EDGES, the same graph with
# weights in (0, 1]): after stripping '#' comment lines, each run's
# --seminaive rows must equal its naive rows — naive (the global
# Algorithm-1 loop) is the reference; the stability index legitimately
# differs, since semi-naive sums group-local rounds.
#
# Invoked by CTest as:
#   cmake -DCLI=<datalogo_cli> -DPROGRAM=<.dl> -DMULTI_PROGRAM=<.dl>
#         -DEDGES=<.tsv> -DUNIT_EDGES=<.tsv> -DOUT_DIR=<dir>
#         -P cli_seminaive_smoke.cmake
foreach(var CLI PROGRAM MULTI_PROGRAM EDGES UNIT_EDGES OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_seminaive_smoke: missing -D${var}=...")
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

# Drops '#'-prefixed comment lines, keeping only the TSV fixpoint rows.
function(strip_comments in_file out_file)
  file(STRINGS ${in_file} lines)
  set(kept "")
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "^#")
      string(APPEND kept "${line}\n")
    endif()
  endforeach()
  file(WRITE ${out_file} "${kept}")
endfunction()

function(require_identical a b what)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "${what} differ: ${a} vs ${b}")
  endif()
endfunction()

foreach(carrier_edges "trop;${EDGES}" "fuzzy;${UNIT_EDGES}"
                      "viterbi;${UNIT_EDGES}")
  list(GET carrier_edges 0 carrier)
  list(GET carrier_edges 1 edges)
  set(base_args --semiring=${carrier} --edb E=${edges})
  foreach(tag_program "single;${PROGRAM}" "multi;${MULTI_PROGRAM}")
    list(GET tag_program 0 tag)
    list(GET tag_program 1 program)
    set(semi_out "${OUT_DIR}/cli_smoke_${tag}_${carrier}_seminaive.out")
    set(naive_out "${OUT_DIR}/cli_smoke_${tag}_${carrier}_naive.out")
    run_cli(${semi_out} ${program} ${base_args} --seminaive)
    run_cli(${naive_out} ${program} ${base_args})
    strip_comments(${naive_out} "${naive_out}.rows")
    strip_comments(${semi_out} "${semi_out}.rows")
    require_identical("${naive_out}.rows" "${semi_out}.rows"
                      "${tag}-group ${carrier} naive and --seminaive fixpoints")
  endforeach()
endforeach()
message(STATUS "seminaive smoke: naive and --seminaive rows agree")
