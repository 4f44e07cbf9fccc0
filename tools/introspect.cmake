# The CLI renders the typed introspection report: on a fresh disk image,
# `introspect` prints every section (with at least one span and a journal
# counter), `tier demote` then `tier status` show a demotion and a
# cold-resident key, `tier migrate` runs and counts one pass (nothing
# migrates in the background, so an operator's pass is how migration runs),
# and `scrub` prints the ec.* slice.
#
#   cmake -DCLI=<path to arkfs_cli> -DDIR=<scratch dir> -P introspect.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
file(WRITE "${DIR}/payload" "introspection payload\n")

# Runs arkfs_cli on image `${DIR}/<image>` with the given env assignments
# (a list, possibly empty); fails on a non-zero exit, else sets cli_out.
function(cli image env)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env ${env}
                          "${CLI}" "${DIR}/${image}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "arkfs_cli ${ARGN} exited ${rc}: ${err}")
  endif()
  set(cli_out "${out}" PARENT_SCOPE)
endfunction()

function(expect pattern)
  if(NOT cli_out MATCHES "${pattern}")
    message(FATAL_ERROR "no match for '${pattern}' in:\n${cli_out}")
  endif()
endfunction()

cli(plain "" format)
cli(plain "" mkdir /d)
cli(plain "" put "${DIR}/payload" /d/f)
cli(plain "" introspect /d)
foreach(section delegations journal metrics spans)
  expect("--- ${section} ---\n")
endforeach()
expect("durability mode: [a-z]+\n")
expect("\n  +[a-z_.]+ span=[0-9]+ parent=[0-9]+ dur=-?[0-9]+ns\n")
expect("\ncounter journal\\.[a-z_.]+ [0-9]+\n")

set(tiered ARKFS_PLACEMENT=tiered)
cli(tiered "${tiered}" format)
cli(tiered "${tiered}" mkdir /d)
cli(tiered "${tiered}" put "${DIR}/payload" /d/f)
cli(tiered "${tiered}" tier demote)
expect("counter tier\\.demotions [0-9]+\n")
cli(tiered "${tiered}" tier status)
expect(" cold_keys=[1-9][0-9]* ")
cli(tiered "${tiered}" tier migrate)
expect("tier migrate: ")
expect("counter tier\\.migrate\\.passes [1-9]")

set(ec ARKFS_PLACEMENT=ec)
cli(ec "${ec}" format)
cli(ec "${ec}" mkdir /d)
cli(ec "${ec}" put "${DIR}/payload" /d/f)
cli(ec "${ec}" scrub)
expect("counter ec\\.scrub\\.passes [0-9]+\n")
file(REMOVE_RECURSE "${DIR}")
