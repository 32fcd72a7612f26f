# Index-tier / scan-kernel equivalence smoke at the CLI surface,
# mirroring cli_threads_smoke.cmake: every --index=hash|direct|auto ×
# --scan=scalar|simd combination must be byte-identical to the default
# run — fixpoint rows AND the stability-index comment line. The index
# tier changes how lookups are served and the scan kernel changes how
# index builds walk columns AND which join kernel the engine runs
# (row-at-a-time scalar vs SIMD batched bind/check); none of it may
# change a single output byte.
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

# Reference: defaults (--index=auto, --scan per build/environment).
set(ref_out "${OUT_DIR}/cli_index_ref.out")
run_cli(${ref_out} ${PROGRAM} ${base_args})

foreach(index hash direct auto)
  foreach(scan scalar simd)
    set(out "${OUT_DIR}/cli_index_${index}_${scan}.out")
    run_cli(${out} ${PROGRAM} ${base_args} --index=${index} --scan=${scan})
    require_identical(${ref_out} ${out}
                      "default and --index=${index} --scan=${scan} output")
  endforeach()
endforeach()

# Tier/kernel choice must also commute with parallelism: spot-check the
# least hash-like combination at 4 threads against the reference.
set(t4_out "${OUT_DIR}/cli_index_direct_simd_t4.out")
run_cli(${t4_out} ${PROGRAM} ${base_args} --index=direct --scan=simd
        --threads=4)
require_identical(${ref_out} ${t4_out}
                  "default and --index=direct --scan=simd --threads=4 output")

# And the scalar join kernel under parallelism: the batched and
# row-at-a-time joins must replay the same deterministic merge order.
set(t4_scalar_out "${OUT_DIR}/cli_index_scalar_t4.out")
run_cli(${t4_scalar_out} ${PROGRAM} ${base_args} --scan=scalar --threads=4)
require_identical(${ref_out} ${t4_scalar_out}
                  "default and --scan=scalar --threads=4 output")

# Value-plane kernel: the batched join with scalar values (per-row ⊗ and
# head merges) must be byte-identical to the vectorized value plane
# (SIMD ⊗ products, pre-hashed ⊕-coalesced head emission), serial and
# parallel.
foreach(values scalar simd)
  set(out "${OUT_DIR}/cli_index_values_${values}.out")
  run_cli(${out} ${PROGRAM} ${base_args} --scan=simd --values=${values})
  require_identical(${ref_out} ${out}
                    "default and --scan=simd --values=${values} output")
endforeach()
set(vt4_out "${OUT_DIR}/cli_index_values_scalar_t4.out")
run_cli(${vt4_out} ${PROGRAM} ${base_args} --scan=simd --values=scalar
        --threads=4)
require_identical(${ref_out} ${vt4_out}
                  "default and --scan=simd --values=scalar --threads=4 output")

message(STATUS "index smoke: all index/scan combinations byte-identical")
