# Golden runner: checks the stdout goldens that bench/goldens.txt lists.
#
#   cmake -DBUILD_DIR=build [-DGOLDEN=bench/BENCH_table1.golden]
#         [-DUPDATE=ON] -P bench/goldens.cmake
#
# Checks the line of GOLDEN, or every line without it. The line's
# command must exit 2 on `--no-such-flag` and on `--threads abc`, exit 0
# at `--threads 1` and at `--threads 8`, and print the same bytes at
# both; those bytes must equal the golden, or with UPDATE=ON replace it.
# The outputs of a failing line stay in BUILD_DIR/goldens/<name>.t1, .t8.
cmake_minimum_required(VERSION 3.16)
get_filename_component(root "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
get_filename_component(build "${BUILD_DIR}" ABSOLUTE)
set(out_dir "${build}/goldens")
file(MAKE_DIRECTORY "${out_dir}")

# Fails the calling line, with a unified diff, when files a and b differ.
macro(require_same a b why)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
        RESULT_VARIABLE differ)
    if(differ)
        execute_process(COMMAND diff -u "${a}" "${b}")
        message(SEND_ERROR "${golden}: ${why}")
        return()
    endif()
endmacro()

function(check_line golden bin)
    set(cmd "${build}/${bin}" ${ARGN})
    get_filename_component(name "${golden}" NAME_WE)
    set(out "${out_dir}/${name}")
    foreach(bad "--no-such-flag" "--threads;abc")
        execute_process(COMMAND ${cmd} ${bad} WORKING_DIRECTORY "${root}"
            RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
        if(NOT rc EQUAL 2)
            string(REPLACE ";" " " bad "${bad}")
            message(SEND_ERROR "${golden}: '${bad}' exited ${rc}, not 2")
        endif()
    endforeach()
    foreach(t 1 8)
        execute_process(COMMAND ${cmd} --threads ${t}
            WORKING_DIRECTORY "${root}" RESULT_VARIABLE rc
            OUTPUT_FILE "${out}.t${t}" ERROR_VARIABLE err)
        if(NOT rc EQUAL 0)
            message(SEND_ERROR
                "${golden}: exited ${rc} at --threads ${t}\n${err}")
            return()
        endif()
    endforeach()
    require_same("${out}.t1" "${out}.t8"
        "--threads 1 and 8 print different bytes (diff above)")
    if(UPDATE)
        execute_process(COMMAND ${CMAKE_COMMAND} -E copy_if_different
            "${out}.t1" "${root}/${golden}")
    endif()
    require_same("${root}/${golden}" "${out}.t1" "stdout differs from the \
golden (diff above); if intended, run scripts/check.sh --goldens --update")
    file(REMOVE "${out}.t1" "${out}.t8")
endfunction()

file(STRINGS "${root}/bench/goldens.txt" lines REGEX "^[^#]")
set(checked 0)
foreach(line IN LISTS lines)
    separate_arguments(words UNIX_COMMAND "${line}")
    list(GET words 0 golden)
    if(NOT DEFINED GOLDEN OR golden STREQUAL GOLDEN)
        check_line(${words})
        math(EXPR checked "${checked} + 1")
    endif()
endforeach()
if(checked EQUAL 0)
    message(FATAL_ERROR "bench/goldens.txt has no line for '${GOLDEN}'")
endif()
