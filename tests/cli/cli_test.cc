#include "cli/cli.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace desalign::cli {
namespace {

int RunTool(std::initializer_list<const char*> args, std::string* output) {
  std::ostringstream os;
  std::vector<std::string> v;
  for (const char* a : args) v.emplace_back(a);
  const int code = RunCli(v, os);
  *output = os.str();
  return code;
}

TEST(CliTest, NoArgsPrintsUsage) {
  std::string out;
  EXPECT_EQ(RunTool({}, &out), 2);
  EXPECT_NE(out.find("usage: desalign"), std::string::npos);
}

TEST(CliTest, HelpCommandSucceeds) {
  std::string out;
  EXPECT_EQ(RunTool({"help"}, &out), 0);
  EXPECT_NE(out.find("sweep"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  std::string out;
  EXPECT_EQ(RunTool({"frobnicate"}, &out), 2);
}

// The kernel, retrieval and overload benches are bench/perf_bench's
// subcommands; desalign no longer knows them.
TEST(CliTest, BenchCommandsAreUnknown) {
  for (const char* command :
       {"bench-kernels", "bench-retrieval", "bench-overload"}) {
    std::string out;
    EXPECT_EQ(RunTool({command, "--smoke"}, &out), 2) << command;
    EXPECT_NE(out.find("unknown command"), std::string::npos) << command;
  }
}

TEST(CliTest, StatsOnPreset) {
  std::string out;
  EXPECT_EQ(RunTool({"stats", "--preset=FBYG15K", "--entities=80"}, &out), 0);
  EXPECT_NE(out.find("FBYG15K-src"), std::string::npos);
  EXPECT_NE(out.find("R_seed"), std::string::npos);
}

TEST(CliTest, StatsUnknownPresetFails) {
  std::string out;
  EXPECT_EQ(RunTool({"stats", "--preset=NOPE"}, &out), 1);
}

TEST(CliTest, GenerateRequiresOut) {
  std::string out;
  EXPECT_EQ(RunTool({"generate", "--preset=FBDB15K"}, &out), 1);
}

TEST(CliTest, GenerateThenStatsRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("desalign_cli_test_" + std::to_string(::getpid()));
  std::string out;
  EXPECT_EQ(RunTool({"generate", "--preset=FBDB15K", "--entities=80",
                 "--out", dir.c_str()},
                &out),
            0);
  EXPECT_NE(out.find("wrote FBDB15K"), std::string::npos);
  std::string stats_out;
  std::string data_flag = "--data=" + dir.string();
  EXPECT_EQ(RunTool({"stats", data_flag.c_str()}, &stats_out), 0);
  EXPECT_NE(stats_out.find("FBDB15K-src"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CliTest, RunTrainsTinyModel) {
  std::string out;
  EXPECT_EQ(RunTool({"run", "--preset=FBDB15K", "--entities=80", "--epochs=5",
                 "--dim=8", "--method=EVA"},
                &out),
            0);
  EXPECT_NE(out.find("EVA"), std::string::npos);
  EXPECT_NE(out.find("H@1"), std::string::npos);
}

TEST(CliTest, RunUnknownMethodFails) {
  std::string out;
  EXPECT_EQ(RunTool({"run", "--preset=FBDB15K", "--method=NotAModel"}, &out), 1);
}

TEST(CliTest, SweepProducesOneRowPerMethod) {
  std::string out;
  EXPECT_EQ(RunTool({"sweep", "--preset=FBDB15K", "--entities=80", "--epochs=5",
                 "--dim=8", "--variable=image_ratio", "--values=0.2,0.8",
                 "--methods=EVA,DESAlign"},
                &out),
            0);
  EXPECT_NE(out.find("EVA"), std::string::npos);
  EXPECT_NE(out.find("DESAlign"), std::string::npos);
  EXPECT_NE(out.find("0.20"), std::string::npos);
  EXPECT_NE(out.find("0.80"), std::string::npos);
}

TEST(CliTest, SweepRejectsBadVariable) {
  std::string out;
  EXPECT_EQ(RunTool({"sweep", "--preset=FBDB15K", "--entities=80",
                 "--variable=nonsense", "--values=0.5", "--epochs=2",
                 "--dim=8", "--methods=EVA"},
                &out),
            1);
}

TEST(CliTest, SweepRejectsDataDir) {
  std::string out;
  EXPECT_EQ(
      RunTool({"sweep", "--data=/tmp/x", "--values=0.5", "--methods=EVA"}, &out),
      1);
}


TEST(CliTest, SweepWritesCsv) {
  const auto csv = std::filesystem::temp_directory_path() /
                   ("desalign_sweep_" + std::to_string(::getpid()) + ".csv");
  std::string out;
  std::string csv_flag = "--csv=" + csv.string();
  EXPECT_EQ(RunTool({"sweep", "--preset=FBDB15K", "--entities=80",
                     "--epochs=3", "--dim=8", "--variable=text_ratio",
                     "--values=0.3,0.9", "--methods=EVA",
                     csv_flag.c_str()},
                    &out),
            0);
  EXPECT_NE(out.find("wrote 2 rows"), std::string::npos);
  std::ifstream in(csv);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("method"), std::string::npos);
  EXPECT_NE(header.find("text_ratio"), std::string::npos);
  int data_rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++data_rows;
  }
  EXPECT_EQ(data_rows, 2);
  std::filesystem::remove(csv);
}

TEST(CliTest, RunWithCslsSucceeds) {
  std::string out;
  EXPECT_EQ(RunTool({"run", "--preset=FBDB15K", "--entities=80",
                     "--epochs=3", "--dim=8", "--method=EVA", "--csls"},
                    &out),
            0);
  EXPECT_NE(out.find("H@1"), std::string::npos);
}

TEST(CliTest, ServeBenchEndToEnd) {
  std::string out;
  EXPECT_EQ(RunTool({"serve-bench", "--preset=FBDB15K", "--entities=80",
                     "--epochs=2", "--dim=8", "--queries=60",
                     "--submitters=3", "--k=5", "--max-batch=16",
                     "--threads=2"},
                    &out),
            0);
  EXPECT_NE(out.find("p50(ms)"), std::string::npos);
  EXPECT_NE(out.find("p95(ms)"), std::string::npos);
  EXPECT_NE(out.find("qps"), std::string::npos);
  EXPECT_NE(out.find("recall@1"), std::string::npos);
  EXPECT_NE(out.find("recall@5"), std::string::npos);
}

TEST(CliTest, ServeBenchPersistsCheckpointWhenAsked) {
  const auto ckpt = std::filesystem::temp_directory_path() /
                    ("desalign_cli_serve_" + std::to_string(::getpid()) +
                     ".ckpt");
  std::string out;
  EXPECT_EQ(RunTool({"serve-bench", "--preset=FBDB15K", "--entities=60",
                     "--epochs=1", "--dim=8", "--queries=20",
                     "--submitters=1",
                     ("--checkpoint=" + ckpt.string()).c_str()},
                    &out),
            0);
  EXPECT_TRUE(std::filesystem::exists(ckpt));
  std::filesystem::remove(ckpt);
}

TEST(CliTest, ServeBenchRejectsNonFusionMethod) {
  std::string out;
  EXPECT_EQ(RunTool({"serve-bench", "--preset=FBDB15K", "--entities=60",
                     "--epochs=1", "--dim=8", "--method=TransE"},
                    &out),
            1);
}

TEST(CliTest, ServeBenchRejectsBadThreads) {
  std::string out;
  EXPECT_EQ(RunTool({"serve-bench", "--threads=-2"}, &out), 1);
}

std::string ReadAll(const std::filesystem::path& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(CliTest, RunWritesMetricsReport) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("desalign_cli_metrics_" + std::to_string(::getpid()) +
                     ".json");
  std::string out;
  EXPECT_EQ(RunTool({"run", "--preset=FBDB15K", "--entities=80", "--epochs=4",
                     "--dim=8", "--method=DESAlign",
                     ("--metrics-out=" + path.string()).c_str()},
                    &out),
            0);
  EXPECT_NE(out.find("wrote metrics report"), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(path));
  const std::string json = ReadAll(path);
  std::filesystem::remove(path);
  // Training counters/series from the unified registry.
  EXPECT_NE(json.find("\"train.epochs\":4"), std::string::npos);
  EXPECT_NE(json.find("\"train.loss\""), std::string::npos);
  EXPECT_NE(json.find("\"train.epoch_ms\""), std::string::npos);
  // Detail-gated per-iteration propagation energy curve.
  EXPECT_NE(json.find("\"propagation.dirichlet_energy\":["),
            std::string::npos);
  EXPECT_NE(json.find("\"propagation.runs\""), std::string::npos);
  EXPECT_NE(json.find("\"dirichlet.energy_evals\""), std::string::npos);
  // Span tree covers the training phases.
  EXPECT_NE(json.find("\"name\":\"train\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"epoch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"forward\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"backward\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mmsl\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"decode\""), std::string::npos);
}

TEST(CliTest, ServeBenchWritesServeHistogramsToMetricsReport) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("desalign_cli_serve_metrics_" +
                     std::to_string(::getpid()) + ".json");
  std::string out;
  EXPECT_EQ(RunTool({"serve-bench", "--preset=FBDB15K", "--entities=60",
                     "--epochs=1", "--dim=8", "--queries=20",
                     "--submitters=1", "--method=EVA",
                     ("--metrics-out=" + path.string()).c_str()},
                    &out),
            0);
  ASSERT_TRUE(std::filesystem::exists(path));
  const std::string json = ReadAll(path);
  std::filesystem::remove(path);
  // One registry: training metrics and serve-path histograms side by side.
  EXPECT_NE(json.find("\"train.epochs\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.latency_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.batch_size\""), std::string::npos);
}

TEST(CliTest, TrainWritesCheckpointsAndMetricsRow) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("desalign_cli_train_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const auto metrics = dir.string() + "_metrics.json";
  std::string out;
  EXPECT_EQ(RunTool({"train", "--preset=FBDB15K", "--entities=60",
                     "--epochs=4", "--dim=8", "--method=EVA",
                     "--checkpoint-every=2",
                     ("--checkpoint-dir=" + dir.string()).c_str(),
                     ("--metrics-out=" + metrics).c_str()},
                    &out),
            0);
  EXPECT_NE(out.find("H@1"), std::string::npos);
  EXPECT_NE(out.find("skips"), std::string::npos);
  EXPECT_NE(out.find("rollbacks"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(dir / "MANIFEST"));
  EXPECT_TRUE(std::filesystem::exists(dir / "ckpt_00000003.dckpt"));
  // The crash-safety metrics flow through the unified registry.
  const std::string json = ReadAll(metrics);
  std::filesystem::remove(metrics);
  EXPECT_NE(json.find("\"train.nonfinite_skips\""), std::string::npos);
  EXPECT_NE(json.find("\"train.rollbacks\""), std::string::npos);
  EXPECT_NE(json.find("\"checkpoint.write_ms\""), std::string::npos);

  // A second invocation with --resume finds the final-epoch checkpoint,
  // has nothing left to train, and still reports metrics cleanly.
  std::string resumed;
  EXPECT_EQ(RunTool({"train", "--preset=FBDB15K", "--entities=60",
                     "--epochs=4", "--dim=8", "--method=EVA",
                     "--checkpoint-every=2", "--resume",
                     ("--checkpoint-dir=" + dir.string()).c_str()},
                    &resumed),
            0);
  EXPECT_NE(resumed.find("H@1"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CliTest, TrainRequiresCheckpointDir) {
  std::string out;
  EXPECT_EQ(RunTool({"train", "--preset=FBDB15K", "--entities=60",
                     "--epochs=2", "--dim=8"},
                    &out),
            1);
}

TEST(CliTest, TrainRejectsNonFusionMethod) {
  std::string out;
  EXPECT_EQ(RunTool({"train", "--preset=FBDB15K", "--entities=60",
                     "--epochs=2", "--dim=8", "--method=TransE",
                     "--checkpoint-dir=/tmp/desalign_cli_train_bad"},
                    &out),
            1);
}

TEST(CliTest, TrainExportsFinalParameters) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("desalign_cli_train_out_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const auto params = dir / "final.ckpt";
  std::string out;
  EXPECT_EQ(RunTool({"train", "--preset=FBDB15K", "--entities=60",
                     "--epochs=2", "--dim=8", "--method=EVA",
                     ("--checkpoint-dir=" + (dir / "ckpts").string()).c_str(),
                     ("--out=" + params.string()).c_str()},
                    &out),
            0);
  EXPECT_NE(out.find("wrote final parameters"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(params));
  std::filesystem::remove_all(dir);
}

TEST(CliTest, MetricsOutSupportsCsv) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("desalign_cli_metrics_" + std::to_string(::getpid()) +
                     ".csv");
  std::string out;
  EXPECT_EQ(RunTool({"stats", "--preset=FBDB15K", "--entities=60",
                     ("--metrics-out=" + path.string()).c_str()},
                    &out),
            0);
  ASSERT_TRUE(std::filesystem::exists(path));
  const std::string csv = ReadAll(path);
  std::filesystem::remove(path);
  EXPECT_EQ(csv.rfind("kind,name,field,value", 0), 0u);
}

TEST(CliTest, MetricsOutRejectsUnknownExtension) {
  std::string out;
  EXPECT_EQ(RunTool({"stats", "--preset=FBDB15K", "--entities=60",
                     "--metrics-out=/tmp/desalign_metrics.txt"},
                    &out),
            1);
}

}  // namespace
}  // namespace desalign::cli
