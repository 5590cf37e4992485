# Test driver: every malformed --faults spec below must make `arvy_cli run`
# and `arvy_cli serve` exit 2 with an "arvy_cli: fault spec" message. An
# uncaught exception (exit 134) or a run that accepts the spec fails it.
#
# Expects: CLI (the arvy_cli binary).

if(NOT DEFINED CLI)
  message(FATAL_ERROR "CliRejectsBadFaultSpecs.cmake: CLI not set")
endif()

set(specs "reorder=" "seed=abc" "shards=x" "drop=x" "dup=nan" "pause=3:nan:1"
          "pause=-1:1:1" "pause=999:1:1" "storm=1:-5")
set(run_args run --graph ring:8 --policy ivy --requests 4)
set(serve_args serve --graph ring:8 --objects 8 --requests 16)

foreach(spec IN LISTS specs)
  foreach(command run serve)
    execute_process(
      COMMAND "${CLI}" ${${command}_args} --faults "${spec}"
      RESULT_VARIABLE rc
      OUTPUT_QUIET
      ERROR_VARIABLE err)
    if(NOT rc STREQUAL "2" OR NOT err MATCHES "arvy_cli: fault spec")
      message(FATAL_ERROR
        "arvy_cli ${command} --faults '${spec}': exit ${rc}, stderr:\n${err}")
    endif()
  endforeach()
endforeach()
