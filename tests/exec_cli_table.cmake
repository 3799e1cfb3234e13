# exec/cli-table: dqbf_solve answers every row of data/exec/table.txt as the
# row says (execute_test.cpp checks the library front ends against the same
# table): the verdict on the `s` line and in the exit code, the engine label
# on the `c engine` line, the failure kind on the `c failure` line, and a
# --certify file that dqbf_check accepts exactly for the listed labels.  A
# row validate() refuses exits 1 with "invalid request".
#
# Invoked as: cmake -DDQBF_SOLVE=... -DDQBF_CHECK=... -DDATA_DIR=...
#             -DWORK_DIR=... -P exec_cli_table.cmake

cmake_policy(SET CMP0057 NEW) # if(... IN_LIST ...)
file(MAKE_DIRECTORY "${WORK_DIR}")
file(STRINGS "${DATA_DIR}/exec/table.txt" lines REGEX "^[^#]")
set(n 0)
foreach(line IN LISTS lines)
  math(EXPR n "${n} + 1")
  string(REGEX REPLACE "[ \t]+" ";" cols "${line}")
  list(GET cols 0 engine)
  list(GET cols 1 certify)
  list(GET cols 2 instance)
  list(GET cols 3 verdict)
  list(GET cols 4 labels)
  list(GET cols 5 failure)
  list(GET cols 6 certificates)
  string(REPLACE "," ";" labels "${labels}")
  string(REPLACE "," ";" certificates "${certificates}")

  set(args "--solver=${engine}")
  if(engine MATCHES "^portfolio(:(.+))?$")
    set(args "--portfolio")
    if(CMAKE_MATCH_2)
      set(args "--portfolio=${CMAKE_MATCH_2}")
    endif()
  endif()
  set(cert "${WORK_DIR}/row${n}.cert")
  file(REMOVE "${cert}")
  if(certify STREQUAL "1")
    list(APPEND args "--certify=${cert}")
  endif()
  execute_process(COMMAND "${DQBF_SOLVE}" ${args} "${DATA_DIR}/${instance}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  string(REPLACE ";" " " shown "${args}")
  set(where "exec/cli-table: dqbf_solve ${shown} ${instance}")

  if(verdict STREQUAL "refused")
    if(NOT rc EQUAL 1 OR NOT out MATCHES "invalid request")
      message(FATAL_ERROR "${where}: want a validate() refusal, got exit ${rc}: ${out}")
    endif()
    continue()
  endif()

  set(want_rc 1)
  if(verdict STREQUAL "SAT")
    set(want_rc 10)
  elseif(verdict STREQUAL "UNSAT")
    set(want_rc 20)
  endif()
  string(REGEX MATCH "\nc engine +: ([^\n]+)\n" ignored "${out}")
  set(label "${CMAKE_MATCH_1}")
  string(REGEX MATCH "\nc failure +: kind=([^ ]+)" ignored "${out}")
  set(kind "${CMAKE_MATCH_1}")
  if(kind STREQUAL "")
    set(kind "none")
  endif()
  if(NOT rc EQUAL want_rc OR NOT out MATCHES "\ns ${verdict}\n" OR
     NOT label IN_LIST labels OR NOT kind STREQUAL failure)
    message(FATAL_ERROR "${where}: want s ${verdict} (exit ${want_rc}), engine in "
                        "${labels}, failure ${failure}; got exit ${rc}: ${out}")
  endif()

  if(label IN_LIST certificates)
    execute_process(COMMAND "${DQBF_CHECK}" "${cert}"
                    RESULT_VARIABLE rc OUTPUT_VARIABLE check ERROR_VARIABLE check)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${where}: dqbf_check rejected the certificate (exit ${rc}): "
                          "${check} ${out}")
    endif()
  elseif(EXISTS "${cert}")
    message(FATAL_ERROR "${where}: a certificate was written for ${label}: ${out}")
  endif()
endforeach()

if(n LESS 42)
  message(FATAL_ERROR "exec/cli-table: the table has ${n} rows, want 42")
endif()
message(STATUS "exec/cli-table: dqbf_solve answers all ${n} rows as the table says")
