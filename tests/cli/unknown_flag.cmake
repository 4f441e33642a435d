# End-to-end check that imc_cli rejects a flag its subcommand does not
# read: `solve --no-pipeline` (a removed flag) must exit 2 with a usage
# error naming the flag, and `stats --save-pool` (a solve-only flag) must
# too, instead of running with defaults.
#
# Usage: cmake -DIMC_CLI=<imc_cli> -P unknown_flag.cmake
foreach(case "solve;--no-pipeline" "stats;--save-pool;x.pool")
  list(GET case 0 command)
  list(GET case 1 flag)
  list(SUBLIST case 1 -1 args)
  execute_process(COMMAND "${IMC_CLI}" ${command} --dataset facebook
                          --scale 0.05 ${args}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "${command} ${flag} exited ${status}, want 2:\n"
                        "${out}${err}")
  endif()
  if(NOT err MATCHES "error: ${flag} is not an option of the ${command}")
    message(FATAL_ERROR "${command} ${flag}: no usage error naming the "
                        "flag:\n${err}")
  endif()
endforeach()
