# Fixture: serve linking only its declared dependencies (common, nn, obs,
# tensor) plus a non-module library — all DAG-legal.
add_library(desalign_serve
  topk.cc
)
target_link_libraries(desalign_serve PUBLIC desalign_nn desalign_tensor
  desalign_obs desalign_common Threads::Threads)
