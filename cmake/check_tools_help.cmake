# --help check for the three tools (driven by ctest, see CMakeLists.txt):
# each must exit 0 and list the flags its options table generates, so a
# broken help generator fails the test suite.
#
# Expects -DGOSH_EMBED=..., -DGOSH_QUERY=..., -DGOSH_SERVE=...
foreach(var GOSH_EMBED GOSH_QUERY GOSH_SERVE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_tools_help.cmake needs -D${var}=...")
  endif()
endforeach()

function(expect_help tool)
  execute_process(COMMAND ${tool} --help
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE errors)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "${tool} --help exited ${result}: ${errors}")
  endif()
  foreach(flag ${ARGN})
    string(FIND "${output}" " ${flag}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${tool} --help does not list ${flag}:\n${output}")
    endif()
  endforeach()
endfunction()

expect_help(${GOSH_EMBED} --preset --dim --options --help)
expect_help(${GOSH_QUERY} --require-all-shards --store --no-verify)
expect_help(${GOSH_SERVE} --require-all-shards --scan-threads --port --store)
