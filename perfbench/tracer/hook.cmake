# Adds the benchmark's library-side driver (mcbench) to a build of the
# MiniCost tree without editing any file of that tree. perfbench/run.py
# configures the repository root with
#
#   -DCMAKE_PROJECT_minicost_INCLUDE=<checkout>/perfbench/tracer/hook.cmake
#
# CMake includes this file right after the root project() call. The
# deferred include of targets.cmake runs at the end of the root
# CMakeLists.txt, so mcbench inherits the tree's compile options, C++
# standard and sanitizer flags and links the very libraries the `minicost`
# CLI is built from.
set(MCBENCH_SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
  CALL include "${MCBENCH_SOURCE_DIR}/targets.cmake")
