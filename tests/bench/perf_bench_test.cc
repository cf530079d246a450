// perf_bench's command line: a malformed, non-positive or empty list flag
// fails its subcommand with exit code 1 before anything is measured — no
// summary printed, no report written — and a missing or unknown
// subcommand exits 2.

#include "bench/perf_bench.h"

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace desalign::bench {
namespace {

// Runs `perf_bench args...`; the printed summary lands in `*out_text`.
int RunBench(std::vector<std::string> args, std::string* out_text) {
  args.insert(args.begin(), "perf_bench");
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::ostringstream out;
  const int code =
      RunPerfBench(static_cast<int>(argv.size()), argv.data(), out);
  *out_text = out.str();
  return code;
}

class PerfBenchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    report_ = (std::filesystem::temp_directory_path() /
               ("desalign_perf_bench_test_" + std::to_string(::getpid()) +
                ".json"))
                  .string();
    std::filesystem::remove(report_);
  }
  void TearDown() override { std::filesystem::remove(report_); }

  void ExpectRejectedBeforeMeasuring(std::vector<std::string> args) {
    args.push_back("--out=" + report_);
    std::string out;
    EXPECT_EQ(RunBench(args, &out), 1) << args[1];
    EXPECT_EQ(out, "") << args[1];
    EXPECT_FALSE(std::filesystem::exists(report_)) << args[1];
  }

  std::string report_;
};

TEST_F(PerfBenchTest, MalformedListEntriesExitOneBeforeMeasuring) {
  // Every entry is parsed whole: a trailing suffix, an exponent, a
  // fraction in an integer list or a non-finite multiplier (an arrival
  // interval of 0 or NaN) is an error, never a truncated value. --smoke
  // replaces --multipliers, so overload runs without it.
  const std::vector<std::vector<std::string>> cases = {
      {"kernels", "--smoke", "--threads-list=1x"},
      {"retrieval", "--entities-list=2e3", "--queries=8"},
      {"overload", "--entities=2000", "--duration-s=0.2",
       "--submit-threads=1", "--multipliers=inf"},
      {"overload", "--entities=2000", "--duration-s=0.2",
       "--submit-threads=1", "--multipliers=nan"},
      {"kernels", "--smoke", "--threads-list=1,2.5"},
      {"retrieval", "--smoke", "--entities-list=10000,x"},
      {"overload", "--entities=2000", "--duration-s=0.2",
       "--submit-threads=1", "--multipliers=1,2x"},
  };
  for (const auto& args : cases) ExpectRejectedBeforeMeasuring(args);
}

TEST_F(PerfBenchTest, NonPositiveEmptyOrOutOfRangeListsExitOne) {
  // 2^32 + 1 threads would wrap to 1 in an int; it is rejected instead.
  const std::vector<std::vector<std::string>> cases = {
      {"kernels", "--smoke", "--threads-list=0"},
      {"kernels", "--smoke", "--threads-list=4294967297"},
      {"kernels", "--smoke", "--threads-list= , "},
      {"retrieval", "--smoke", "--entities-list=-10000"},
      {"retrieval", "--smoke", "--entities-list="},
      {"overload", "--entities=2000", "--duration-s=0.2",
       "--submit-threads=1", "--multipliers=0.5,0"},
      {"overload", "--entities=2000", "--duration-s=0.2",
       "--submit-threads=1", "--multipliers=,"},
  };
  for (const auto& args : cases) ExpectRejectedBeforeMeasuring(args);
}

TEST(PerfBenchCommandTest, MissingOrUnknownCommandExitsTwo) {
  std::string out;
  EXPECT_EQ(RunBench({}, &out), 2);
  EXPECT_NE(out.find("usage: perf_bench"), std::string::npos);
  EXPECT_EQ(RunBench({"bench-kernels"}, &out), 2);
  EXPECT_NE(out.find("unknown command 'bench-kernels'"), std::string::npos);
  EXPECT_EQ(RunBench({"help"}, &out), 0);
  for (const char* command : {"kernels", "retrieval", "overload"}) {
    EXPECT_NE(out.find(command), std::string::npos) << command;
  }
}

}  // namespace
}  // namespace desalign::bench
