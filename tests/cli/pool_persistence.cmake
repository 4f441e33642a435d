# End-to-end check of the CLI pool flags: `solve --save-pool F` then
# `solve --load-pool F` on the same small instance. Passes only if both
# runs exit 0, the second prints "attached pool", and both print the same
# seeds (an attached pool must be invisible in the results).
#
# Usage: cmake -DIMC_CLI=<imc_cli> -DWORK_DIR=<dir> -P pool_persistence.cmake
set(pool "${WORK_DIR}/cli_pool_persistence.pool")
file(REMOVE "${pool}")
set(solve solve --dataset facebook --scale 0.05 --algo ubg --k 5
          --max-samples 4000)

foreach(run save load)
  execute_process(COMMAND "${IMC_CLI}" ${solve} --${run}-pool "${pool}"
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE ${run}_out
                  ERROR_VARIABLE ${run}_err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "--${run}-pool run exited ${status}:\n"
                        "${${run}_out}${${run}_err}")
  endif()
  string(REGEX MATCH "seeds:[^\n]*" ${run}_seeds "${${run}_out}")
endforeach()
file(REMOVE "${pool}")

if(NOT load_out MATCHES "attached pool")
  message(FATAL_ERROR "--load-pool run did not attach:\n${load_out}")
endif()
if(save_seeds STREQUAL "" OR NOT save_seeds STREQUAL load_seeds)
  message(FATAL_ERROR "seeds differ after attach: '${save_seeds}' vs "
                      "'${load_seeds}'")
endif()
