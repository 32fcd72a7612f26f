# Semi-naive smoke at the CLI surface, over a single-group program
# (PROGRAM) and a multi-group one (MULTI_PROGRAM), each under trop (on
# EDGES), under fuzzy and viterbi (on UNIT_EDGES, the same graph with
# weights in (0, 1]) and under nat (on DAG_EDGES, the graph without its
# back edge, integer-weighted): after stripping '#' comment lines, each
# run's --seminaive rows must equal its naive rows — naive (the global
# Algorithm-1 loop) is the reference; the stability index legitimately
# differs, since semi-naive sums group-local rounds. nat also runs on
# EDGES' cycle, integer-weighted: its path counts grow until every one
# saturates at inf (about 40 steps), where both modes must agree, and
# both must stop at a 5-step budget with exit 2.
#
# Invoked by CTest as:
#   cmake -DCLI=<datalogo_cli> -DPROGRAM=<.dl> -DMULTI_PROGRAM=<.dl>
#         -DEDGES=<.tsv> -DUNIT_EDGES=<.tsv> -DDAG_EDGES=<.tsv>
#         -DOUT_DIR=<dir> -P cli_seminaive_smoke.cmake
foreach(var CLI PROGRAM MULTI_PROGRAM EDGES UNIT_EDGES DAG_EDGES OUT_DIR)
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

# EDGES with its weights truncated to integers, for nat on the cycle.
file(READ ${EDGES} text)
string(REGEX REPLACE "([ \t][0-9]+)\\.[0-9]+(\n|$)" "\\1\\2" text
       "${text}")
set(cyclic_nat "${OUT_DIR}/cli_smoke_cyclic_nat.tsv")
file(WRITE ${cyclic_nat} "${text}")

# Each leg: carrier, edges, and the name its output files carry.
foreach(leg "trop;${EDGES};trop" "fuzzy;${UNIT_EDGES};fuzzy"
            "viterbi;${UNIT_EDGES};viterbi" "nat;${DAG_EDGES};nat"
            "nat;${cyclic_nat};nat_cyclic")
  list(GET leg 0 carrier)
  list(GET leg 1 edges)
  list(GET leg 2 name)
  set(base_args --semiring=${carrier} --edb E=${edges})
  foreach(tag_program "single;${PROGRAM}" "multi;${MULTI_PROGRAM}")
    list(GET tag_program 0 tag)
    list(GET tag_program 1 program)
    set(semi_out "${OUT_DIR}/cli_smoke_${tag}_${name}_seminaive.out")
    set(naive_out "${OUT_DIR}/cli_smoke_${tag}_${name}_naive.out")
    run_cli(${semi_out} ${program} ${base_args} --seminaive)
    run_cli(${naive_out} ${program} ${base_args})
    strip_comments(${naive_out} "${naive_out}.rows")
    strip_comments(${semi_out} "${semi_out}.rows")
    require_identical("${naive_out}.rows" "${semi_out}.rows"
                      "${tag}-group ${name} naive and --seminaive fixpoints")
  endforeach()
endforeach()
foreach(mode "" --seminaive)
  execute_process(
    COMMAND ${CLI} ${PROGRAM} --semiring=nat --edb E=${cyclic_nat}
            --max-steps=5 ${mode}
    OUTPUT_QUIET ERROR_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "nat ${mode} at 5 steps on the cycle exited ${rc}, expected 2")
  endif()
endforeach()
message(STATUS "seminaive smoke: naive and --seminaive rows agree")
