# Test driver: every malformed number, out-of-range graph-spec field and
# unknown transport below must make arvy_cli exit 2 with an "arvy_cli:"
# usage message. An abort (exit 134) or a run that accepts the input fails.
#
# Expects: CLI (the arvy_cli binary).

if(NOT DEFINED CLI)
  message(FATAL_ERROR "CliRejectsBadNumbers.cmake: CLI not set")
endif()


# Graph specs, through `run`.
set(graphs "ring:abc" "ring:99999999999999999999" "gnp:10:x" "gnp:10" "geo:10"
           "ring:1" "star:1" "tree:0" "tree:1" "hypercube:30" "grid:0x3"
           "torus:2x2" "gnp:10:2" "geo:10:-1")
# Flags, each appended to a valid command line.
set(run_flags "--requests=abc" "--seed=x" "--concurrent=x" "--concurrent=0"
              "--transport=bogus")
set(serve_flags "--objects=x" "--alpha=x" "--alpha=nan" "--verify-sample=x")

set(cases "")
foreach(spec IN LISTS graphs)
  list(APPEND cases "run --graph ${spec} --policy ivy --requests 4")
endforeach()
foreach(flag IN LISTS run_flags)
  list(APPEND cases "run --graph ring:8 --policy ivy --requests 4 ${flag}")
endforeach()
foreach(flag IN LISTS serve_flags)
  list(APPEND cases "serve --graph ring:8 --objects 8 --requests 16 ${flag}")
endforeach()

foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(
    COMMAND "${CLI}" ${args}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "^arvy_cli: ")
    message(FATAL_ERROR "arvy_cli ${case}: exit ${rc}, stderr:\n${err}")
  endif()
endforeach()
