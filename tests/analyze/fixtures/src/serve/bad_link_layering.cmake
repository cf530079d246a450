# Fixture: seeded serve→eval link edge. No serve source includes eval,
# yet linking it PUBLIC pulls core, baselines, align and kg into every
# serve consumer; tools/analyze/layering.toml allows serve only common,
# nn, obs and tensor.
add_library(desalign_serve
  topk.cc
)
target_link_libraries(desalign_serve PUBLIC
  desalign_eval  # ANALYZE-EXPECT: layering
  desalign_nn desalign_tensor desalign_obs desalign_common)
