# End-to-end check that `doduo_cli annotate` has one pipeline:
#   1. --threads 1 and --threads 4 print byte-identical output;
#   2. the plain labels equal the labels printed by --outcomes --no-sanitize.
#
#   cmake -DCLI=<doduo_cli> -DMODEL=<model dir> -DCSVS="a.csv;b.csv" \
#         -P cli_one_pipeline.cmake

function(annotate out_var)
  execute_process(COMMAND ${CLI} annotate --model ${MODEL} ${ARGN} ${CSVS}
                  OUTPUT_VARIABLE output ERROR_VARIABLE error
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "doduo_cli annotate ${ARGN} exited ${status}:\n${error}")
  endif()
  set(${out_var} "${output}" PARENT_SCOPE)
endfunction()

annotate(sequential --threads 1)
annotate(fanned --threads 4)
if(NOT sequential STREQUAL fanned)
  message(FATAL_ERROR "--threads 1 and --threads 4 differ:\n"
                      "${sequential}\n---\n${fanned}")
endif()

# Plain output also lists key-column relations, as "(a, b): relation"
# lines; outcome lines end in " (confidence=x.xxx)".
annotate(outcomes --threads 4 --outcomes --no-sanitize)
string(REGEX REPLACE "\n\\([^\n]*" "" plain_labels "${sequential}")
string(REGEX REPLACE " \\(confidence=[0-9.]+\\)" "" outcome_labels
       "${outcomes}")
if(plain_labels STREQUAL "" OR NOT plain_labels STREQUAL outcome_labels)
  message(FATAL_ERROR "plain labels differ from --outcomes --no-sanitize:\n"
                      "${plain_labels}\n---\n${outcome_labels}")
endif()
