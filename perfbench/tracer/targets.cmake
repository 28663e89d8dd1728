# mcbench: the library-side half of perfbench (see ../METRICS.md). Included
# at the end of the MiniCost root CMakeLists.txt through hook.cmake.
add_executable(mcbench "${MCBENCH_SOURCE_DIR}/mcbench.cpp")
target_link_libraries(mcbench PRIVATE minicost::minicost minicost_warnings)
