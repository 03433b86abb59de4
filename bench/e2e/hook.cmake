# run.py configures the repository build with
# -DCMAKE_PROJECT_qmax_INCLUDE=<this file>. CMake includes it at the end of
# the top-level project() call, before the library targets and the build's
# global flags are set, so this defers reading CMakeLists.txt here to the
# end of the top-level CMakeLists.txt. (CMake does not allow a deferred
# add_subdirectory.) A deferred call expands its arguments when it runs,
# so the path is kept in a variable of the top-level scope.
set(QMAX_E2E_LISTS "${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt")
cmake_language(DEFER CALL include "${QMAX_E2E_LISTS}")
