# The CLI fails fast on an image it cannot mount: `format` then `objects`
# succeed on a fresh disk image, and once the format stamp (sys.format) is
# gone a mounting command exits non-zero and names the format error.
#
#   cmake -DCLI=<path to arkfs_cli> -DDIR=<scratch image dir> -P format_gate.cmake
file(REMOVE_RECURSE "${DIR}")

function(cli expect_ok)
  execute_process(COMMAND "${CLI}" "${DIR}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(expect_ok AND NOT rc EQUAL 0)
    message(FATAL_ERROR "arkfs_cli ${ARGN} exited ${rc}: ${err}")
  elseif(NOT expect_ok AND rc EQUAL 0)
    message(FATAL_ERROR "arkfs_cli ${ARGN} mounted an unstamped image")
  endif()
  set(cli_err "${err}" PARENT_SCOPE)
endfunction()

cli(TRUE format)
cli(TRUE objects)
cli(TRUE mkdir /kept)
# DiskObjectStore names each object's file by the hex of its key.
file(REMOVE "${DIR}/7379732e666f726d6174")
cli(FALSE ls /)
if(NOT cli_err MATCHES "no format stamp \\(sys\\.format\\); reformat")
  message(FATAL_ERROR "missing format error in: ${cli_err}")
endif()
file(REMOVE_RECURSE "${DIR}")
