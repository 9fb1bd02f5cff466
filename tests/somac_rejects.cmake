# Runs somac and expects it to reject its input: a non-zero exit and
# EXPECT (a literal substring) on stderr. ARGS separates somac's
# arguments with '|'.
#
#   cmake -DSOMAC=build/somac "-DARGS=run|--model|resnet50|--batch|-3" \
#         "-DEXPECT=field \"batch\" must be in [1, 1000000]" \
#         -P tests/somac_rejects.cmake
string(REPLACE "|" ";" argv "${ARGS}")
execute_process(COMMAND ${SOMAC} ${argv}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "somac ${argv} exited 0; expected a rejection")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
    "somac ${argv} exited ${code} without \"${EXPECT}\"; stderr:\n${err}")
endif()
