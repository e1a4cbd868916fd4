# SimEngine byte-identity: reruns the two programs whose Sim output is
# committed under tests/golden/sim (trace_matmul's six trace_sim_* files,
# prof_apps' seven PROF_*.json) in a fresh WORK_DIR and compares each file
# with its golden byte for byte. Sim output is a pure function of the code:
# a change that means to move it regenerates the goldens with UPDATE=ON,
# from the repository root:
#
#   cmake -DBENCH_DIR=build/bench -DGOLDEN_DIR=tests/golden/sim \
#         -DWORK_DIR=build/sim_golden -DUPDATE=ON -P tests/golden/sim_golden.cmake
#
# The PROF_*.json goldens name each spawn site as basename:line of its source
# in src/apps/, so an edit that shifts a line there (a comment too) fails this
# test with Sim's schedule unchanged; regenerate after such an edit. A build
# with DFTH_TRACE or DFTH_PROF off writes empty outputs and does not run this.
foreach(var BENCH_DIR GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sim_golden.cmake: -D${var}=... is required")
  endif()
  # The programs run in WORK_DIR, so a path relative to the caller's
  # directory (as in the regeneration command above) must be made absolute.
  get_filename_component(${var} "${${var}}" ABSOLUTE)
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(cmd "trace_matmul;--n;128;--procs;4;--real=false"
            "prof_apps;--max-procs;4")
  list(POP_FRONT cmd prog)
  execute_process(COMMAND "${BENCH_DIR}/${prog}" ${cmd}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${prog} ${cmd} exited with ${rc}")
  endif()
endforeach()

file(GLOB outputs RELATIVE "${WORK_DIR}" "${WORK_DIR}/trace_sim_*"
     "${WORK_DIR}/PROF_*.json")
if(UPDATE)
  file(GLOB old "${GOLDEN_DIR}/*")
  if(old)
    file(REMOVE ${old})
  endif()
  foreach(f ${outputs})
    file(COPY "${WORK_DIR}/${f}" DESTINATION "${GOLDEN_DIR}")
  endforeach()
  list(LENGTH outputs n)
  message(STATUS "wrote ${n} goldens to ${GOLDEN_DIR}")
  return()
endif()

file(GLOB goldens RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/*")
set(differ "")
foreach(f ${goldens} ${outputs})
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${GOLDEN_DIR}/${f}" "${WORK_DIR}/${f}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(APPEND differ "${f}")
  endif()
endforeach()
list(REMOVE_DUPLICATES differ)
if(differ)
  message(FATAL_ERROR "Sim output differs from ${GOLDEN_DIR}: ${differ}\n"
                      "(new output kept in ${WORK_DIR})\n"
                      "PROF_*.json names spawn sites as basename:line of "
                      "src/apps/, so a shifted line there moves them too. If "
                      "the change means to move Sim output, regenerate from "
                      "the repository root with\n"
                      "  cmake -DBENCH_DIR=build/bench "
                      "-DGOLDEN_DIR=tests/golden/sim "
                      "-DWORK_DIR=build/sim_golden -DUPDATE=ON "
                      "-P tests/golden/sim_golden.cmake")
endif()
list(LENGTH goldens n)
message(STATUS "${n} Sim outputs match their goldens")
