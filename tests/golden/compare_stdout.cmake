# Run a program and compare its stdout byte for byte with a golden
# file. The program runs from its own directory as ./<name>, so a
# usage line that echoes argv[0] reads the same in every build tree.
#
#   cmake -DEXE=<program> -DGOLDEN=<file> [-DARGS="<arg>;<arg>..."] \
#         -P compare_stdout.cmake
#
# On a mismatch the actual output is left in <golden-name>.actual in
# the current directory for diffing.

get_filename_component(dir "${EXE}" DIRECTORY)
get_filename_component(name "${EXE}" NAME)
execute_process(COMMAND ./${name} ${ARGS}
    WORKING_DIRECTORY "${dir}"
    OUTPUT_VARIABLE actual
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} ${ARGS} exited with ${rc}")
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
    get_filename_component(stem "${GOLDEN}" NAME_WE)
    file(WRITE "${stem}.actual" "${actual}")
    message(FATAL_ERROR "${name} ${ARGS}: stdout differs from "
        "${GOLDEN}; see ${CMAKE_CURRENT_BINARY_DIR}/${stem}.actual")
endif()
