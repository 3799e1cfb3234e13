# cache/cli-roundtrip: the result cache through the binaries.
#   1. A plain dqbf_solve --cache-dir run stores a verdict-only entry.
#   2. dqbf_solve --certify on the same instance must NOT serve the bare
#      cached verdict: it falls through to a fresh solve, writes a
#      certificate that dqbf_check accepts, and upgrades the cache entry.
#   3. A second --certify run serves the byte-identical artifact from the
#      cache, and dqbf_check still accepts it.
#   4. --cache-control=off neither hits nor stores; --cache-control=bypass
#      skips the hit but stores.
#   5. Circuit (DQCIR) input under --cache-dir prints the bypass line and
#      writes no entry.
#
# Invoked as: cmake -DDQBF_SOLVE=... -DDQBF_CHECK=... -DDATA_DIR=...
#             -DWORK_DIR=... -P cache_cli_roundtrip.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(cachedir "${WORK_DIR}/cache")
set(instance "${DATA_DIR}/example1_sat.dqdimacs")
set(cert1 "${WORK_DIR}/first.cert")
set(cert2 "${WORK_DIR}/second.cert")

execute_process(COMMAND "${DQBF_SOLVE}" "--cache-dir=${cachedir}" "${instance}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 10)
  message(FATAL_ERROR "seeding solve exited ${rc} (want 10/SAT): ${out}")
endif()

execute_process(COMMAND "${DQBF_SOLVE}" "--cache-dir=${cachedir}"
                "--certify=${cert1}" "${instance}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 10)
  message(FATAL_ERROR "certify over verdict-only entry exited ${rc}: ${out}")
endif()
if(NOT out MATCHES "solving fresh to certify")
  message(FATAL_ERROR "certify request served the bare cached verdict: ${out}")
endif()
if(NOT EXISTS "${cert1}")
  message(FATAL_ERROR "certify fallthrough wrote no certificate: ${out}")
endif()

execute_process(COMMAND "${DQBF_CHECK}" "--formula=${instance}" "${cert1}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dqbf_check rejected the fallthrough certificate "
                      "(exit ${rc}): ${out}")
endif()

execute_process(COMMAND "${DQBF_SOLVE}" "--cache-dir=${cachedir}"
                "--certify=${cert2}" "${instance}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 10)
  message(FATAL_ERROR "second certify run exited ${rc}: ${out}")
endif()
if(NOT out MATCHES "bytes from cache")
  message(FATAL_ERROR "second certify run did not reuse the cached artifact: ${out}")
endif()

file(READ "${cert1}" a)
file(READ "${cert2}" b)
if(NOT a STREQUAL b)
  message(FATAL_ERROR "cached artifact differs from the freshly extracted one")
endif()

execute_process(COMMAND "${DQBF_CHECK}" "--formula=${instance}" "${cert2}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dqbf_check rejected the cache-served certificate "
                      "(exit ${rc}): ${out}")
endif()

# The per-run cache control overrides the (default "on") mode.
execute_process(COMMAND "${DQBF_SOLVE}" "--cache-dir=${cachedir}"
                "--cache-control=off" "${instance}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 10)
  message(FATAL_ERROR "--cache-control=off run exited ${rc}: ${out}")
endif()
if(out MATCHES "c cache [^\n]*hit" OR out MATCHES "stored")
  message(FATAL_ERROR "--cache-control=off touched the cache: ${out}")
endif()

execute_process(COMMAND "${DQBF_SOLVE}" "--cache-dir=${cachedir}"
                "--cache-control=bypass" "${instance}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 10)
  message(FATAL_ERROR "--cache-control=bypass run exited ${rc}: ${out}")
endif()
if(out MATCHES "c cache [^\n]*hit")
  message(FATAL_ERROR "--cache-control=bypass served a cached verdict: ${out}")
endif()
if(NOT out MATCHES "c cache +: stored")
  message(FATAL_ERROR "--cache-control=bypass did not refresh the entry: ${out}")
endif()

# Circuit input never touches the cache.
set(circuitcache "${WORK_DIR}/circuit-cache")
execute_process(COMMAND "${DQBF_SOLVE}" "--cache-dir=${circuitcache}"
                "${DATA_DIR}/dqcir/example2_sat.dqcir"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 10)
  message(FATAL_ERROR "circuit run exited ${rc} (want 10/SAT): ${out}")
endif()
if(NOT out MATCHES "c cache +: bypassed \\(circuit input\\)")
  message(FATAL_ERROR "circuit run did not report the cache bypass: ${out}")
endif()
file(GLOB circuitentries "${circuitcache}/*")
if(circuitentries)
  message(FATAL_ERROR "circuit run wrote cache entries: ${circuitentries}")
endif()

message(STATUS "cache/cli-roundtrip: verdict-only entry -> certify fallthrough -> cached artifact reuse, cache-control off/bypass, circuit bypass ok")
