# Hooks the benchmark into a configure of the repository root without
# touching the root's own build files. run.py configures the root with
#
#   cmake -S . -B <build> -DCMAKE_PROJECT_INCLUDE=<this file> ...
#
# CMake includes this file right after the root's project() call. The
# deferred include of perfbench/CMakeLists.txt runs once the root
# CMakeLists has defined every manic_* library, so it can link against them
# (CMake allows no add_subdirectory during deferred execution).
get_property(_perfbench_attached GLOBAL PROPERTY PERFBENCH_ATTACHED)
if(NOT _perfbench_attached)
  set_property(GLOBAL PROPERTY PERFBENCH_ATTACHED TRUE)
  # EVAL pins the path now; a deferred call expands its arguments late.
  cmake_language(EVAL CODE
    "cmake_language(DEFER DIRECTORY [[${CMAKE_SOURCE_DIR}]]
                    CALL include [[${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt]])")
endif()
