// RunRetrievalBench on a tiny table: the report holds all five paths, and
// the bit-exactness gates that tools/ci.sh asserts on its smoke sweep hold
// here too.

#include "bench/retrieval_bench.h"

#include <map>
#include <string>

#include <gtest/gtest.h>

namespace desalign::bench {
namespace {

TEST(RetrievalBenchTest, TinySweepMeasuresEveryPathAgainstOneTruth) {
  RetrievalBenchOptions options;
  options.entity_counts = {2000};
  options.queries = 32;
  const RetrievalBenchReport report = RunRetrievalBench(options);
  ASSERT_EQ(report.cases.size(), 1u);
  const RetrievalBenchCase& c = report.cases[0];
  EXPECT_EQ(c.entities, 2000);
  EXPECT_GT(c.num_centroids, 0);

  std::map<std::string, const RetrievalBenchPath*> paths;
  for (const RetrievalBenchPath& p : c.paths) paths[p.path] = &p;
  ASSERT_EQ(paths.size(), 5u);
  for (const char* name : {"fp32", "bf16", "int8", "ivf_full", "ivf_partial"}) {
    ASSERT_EQ(paths.count(name), 1u) << name;
  }

  // Full probe scans every row and is brute force, bit for bit.
  const RetrievalBenchPath& full = *paths["ivf_full"];
  EXPECT_TRUE(full.bitexact);
  EXPECT_EQ(full.recall_at_k, 1.0);
  EXPECT_EQ(full.nprobe, c.num_centroids);
  EXPECT_EQ(full.mean_candidates, 2000.0);
  EXPECT_FALSE(full.bitexact_full.has_value());

  // Every brute-force dtype's exact mode equals its own table's reference;
  // fp32 brute force is the truth.
  for (const char* dtype : {"fp32", "bf16", "int8"}) {
    const RetrievalBenchPath& p = *paths[dtype];
    ASSERT_TRUE(p.bitexact_full.has_value()) << dtype;
    EXPECT_TRUE(*p.bitexact_full) << dtype;
  }
  EXPECT_TRUE(paths["fp32"]->bitexact);
  EXPECT_EQ(paths["fp32"]->recall_at_k, 1.0);
  EXPECT_EQ(paths["fp32"]->hits_at_1, 1.0);

  // Refined from fp32 rows, int8 exact mode is fp32 brute force.
  const RetrievalBenchPath& int8 = *paths["int8"];
  ASSERT_TRUE(int8.refined_exact_matches_fp32.has_value());
  EXPECT_TRUE(*int8.refined_exact_matches_fp32);
  EXPECT_EQ(int8.rerank_candidates, 64);
  EXPECT_LT(int8.table_bytes, paths["fp32"]->table_bytes);
  EXPECT_FALSE(paths["bf16"]->refined_exact_matches_fp32.has_value());

  EXPECT_NE(
      report.ToJson().find("\"schema\":\"desalign.retrieval_bench.v1\""),
      std::string::npos);
}

}  // namespace
}  // namespace desalign::bench
