# Index-tier equivalence smoke at the CLI surface: every
# --index=hash|direct|auto run must be
# byte-identical to the default run — fixpoint rows AND the
# stability-index comment line. The index tier changes how lookups are
# served; it may not change a single output byte.
#
# Invoked by CTest as:
#   cmake -DCLI=<datalogo_cli> -DPROGRAM=<.dl> -DEDGES=<.tsv>
#         -DOUT_DIR=<dir> -P cli_index_smoke.cmake
foreach(var CLI PROGRAM EDGES OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_index_smoke: missing -D${var}=...")
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

function(require_identical a b what)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "${what} differ: ${a} vs ${b}")
  endif()
endfunction()

set(base_args --semiring=trop --edb E=${EDGES} --seminaive)

# Reference: defaults (--index=auto).
set(ref_out "${OUT_DIR}/cli_index_ref.out")
run_cli(${ref_out} ${PROGRAM} ${base_args})

foreach(index hash direct auto)
  set(out "${OUT_DIR}/cli_index_${index}.out")
  run_cli(${out} ${PROGRAM} ${base_args} --index=${index})
  require_identical(${ref_out} ${out}
                    "default and --index=${index} output")
endforeach()

message(STATUS "index smoke: all index tiers byte-identical")
