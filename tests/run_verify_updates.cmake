# End-to-end test for `merlin-verify --updates`: replays an update script
# over the smoke policy on a generated fat tree and checks both the exit
# status and the output (stdout and stderr together).
#
# Invoked as:
#   cmake -DVERIFY=<bin> -DPOLICY=<mln> -DUPDATES=<upd> -DEXIT=<status>
#         -DREGEX=<regex> -P run_verify_updates.cmake
foreach(var VERIFY POLICY UPDATES EXIT REGEX)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_verify_updates.cmake: missing -D${var}=")
  endif()
endforeach()

execute_process(
  COMMAND "${VERIFY}" --generate fat-tree:4 "${POLICY}" --updates "${UPDATES}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL EXIT)
  message(FATAL_ERROR "merlin-verify exited ${code}, expected ${EXIT}:\n"
                      "${out}\n${err}")
endif()
if(NOT "${out}${err}" MATCHES "${REGEX}")
  message(FATAL_ERROR "merlin-verify output does not match '${REGEX}':\n"
                      "${out}\n${err}")
endif()
