# Injected into the root project through
#   -DCMAKE_PROJECT_desalign_INCLUDE=<repo>/benchmark/project_include.cmake
# so the benchmark binary builds against the repo's libraries without an
# edit to the root CMakeLists.txt.
#
# This file runs inside project(), before the root file has set its compile
# options, so the target is added by a deferred call at the end of the root
# directory: created there, it inherits -ffp-contract=off, -O2 and the
# warnings like every library target. A deferred call expands ${...} when
# it runs, where CMAKE_CURRENT_LIST_DIR is the root, hence the copy.
set(DESALIGN_BENCHMARK_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${DESALIGN_BENCHMARK_DIR}/targets.cmake")
