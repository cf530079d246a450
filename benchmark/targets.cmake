# Included at the end of the root directory (see project_include.cmake).
add_executable(desalign_benchmark
  ${DESALIGN_BENCHMARK_DIR}/desalign_benchmark.cc)
target_link_libraries(desalign_benchmark PRIVATE
  desalign_index desalign_serve desalign_core desalign_align desalign_kg
  desalign_nn desalign_tensor desalign_obs desalign_common)
