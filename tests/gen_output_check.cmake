# Runs `CLI gen SYSTEM METHOD` and compares its stdout with the file
# EXPECTED and its stderr with EXPECTED.err, byte for byte.  The run writes
# OUT and OUT.err.
#
#   cmake -DCLI=... -DSYSTEM=... -DMETHOD=... -DEXPECTED=... -DOUT=...
#         -P gen_output_check.cmake
execute_process(COMMAND ${CLI} gen ${SYSTEM} ${METHOD}
                OUTPUT_FILE ${OUT} ERROR_FILE ${OUT}.err
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "cfsmdiag gen ${SYSTEM} ${METHOD} exited ${status}")
endif()
foreach(suffix "" ".err")
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${OUT}${suffix} ${EXPECTED}${suffix}
                  RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${OUT}${suffix} differs from ${EXPECTED}${suffix}")
  endif()
endforeach()
