# gosh_embed --eval on graphs too small to evaluate (driven by ctest, see
# CMakeLists.txt): each must exit 1 with an `error:` line, promptly. K2
# leaves no test edge and no non-edge (the negative sampler used to spin
# forever on it); the 3-vertex path leaves no test edge (AUCROC used to
# throw past main and abort); K5 leaves test edges but no test non-edge.
#
# Expects -DGOSH_EMBED=... and -DWORK_DIR=...
foreach(var GOSH_EMBED WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_eval_tiny_inputs.cmake needs -D${var}=...")
  endif()
endforeach()
file(MAKE_DIRECTORY ${WORK_DIR})

function(expect_clean_rejection name edges)
  set(input ${WORK_DIR}/${name}.txt)
  file(WRITE ${input} "${edges}")
  execute_process(COMMAND ${GOSH_EMBED} --input ${input} --eval
                          --dim 8 --epochs 5
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE errors
                  TIMEOUT 30)
  if(NOT result EQUAL 1)
    message(FATAL_ERROR "gosh_embed --eval on ${name} gave '${result}', "
                        "expected exit 1:\n${output}${errors}")
  endif()
  string(FIND "${errors}" "error: " at)
  if(at EQUAL -1)
    message(FATAL_ERROR "gosh_embed --eval on ${name} printed no error "
                        "line:\n${errors}")
  endif()
endfunction()

expect_clean_rejection(k2 "0 1\n")
expect_clean_rejection(path3 "0 1\n1 2\n")
expect_clean_rejection(k5 "0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
