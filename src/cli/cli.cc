#include "cli/cli.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <thread>

#include "align/fusion_model.h"
#include "align/iterative.h"
#include "align/metrics.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/desalign.h"
#include "eval/csv.h"
#include "eval/harness.h"
#include "common/table.h"
#include "index/ivf.h"
#include "index/retrieval_bench.h"
#include "nn/quant.h"
#include "kg/io.h"
#include "kg/presets.h"
#include "kg/synthetic.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/batch_queue.h"
#include "serve/embedding_store.h"
#include "serve/overload_bench.h"
#include "serve/stats.h"
#include "serve/topk.h"
#include "tensor/kernels/kernel_bench.h"

namespace desalign::cli {

namespace {

using common::FlagParser;
using common::Result;
using common::Status;

std::vector<const char*> ToArgv(const std::vector<std::string>& args) {
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const auto& a : args) argv.push_back(a.c_str());
  return argv;
}

// Global --threads flag, registered by every subcommand so one knob sizes
// ThreadPool::Global() for all parallel kernels.
struct ThreadsFlag {
  int64_t threads = 0;

  void Register(FlagParser& parser) {
    common::AddThreadsFlag(parser, &threads);
  }
  Status Apply() const { return common::ApplyThreadsFlag(threads); }
};

// Global --metrics-out flag, registered by every subcommand: when set, the
// run starts from a clean registry/span tree with detail-gated measurements
// enabled, and ends by writing an obs::RunReport (format by extension,
// .json or .csv). See docs/OBSERVABILITY.md for the schema.
struct MetricsFlag {
  std::string path;

  void Register(FlagParser& parser) {
    parser.AddString("metrics-out", "",
                     "write a metrics/trace report to this .json or .csv "
                     "file at exit (enables detailed instrumentation)",
                     &path);
  }
  Status Begin() const {
    if (path.empty()) return Status::Ok();
    // Reject a bad path before the run, not after a long training job.
    DESALIGN_RETURN_NOT_OK(obs::RunReport::ValidatePath(path));
    obs::MetricsRegistry::Global().ResetAll();
    obs::ResetSpanTree();
    obs::MetricsRegistry::Global().set_detail_enabled(true);
    return Status::Ok();
  }
  Status Finish(std::ostream& out) const {
    if (path.empty()) return Status::Ok();
    obs::MetricsRegistry::Global().set_detail_enabled(false);
    DESALIGN_RETURN_NOT_OK(obs::RunReport::Collect().WriteTo(path));
    out << "wrote metrics report to " << path << "\n";
    return Status::Ok();
  }
};

// Dataset source flags shared by stats/run/sweep.
struct DatasetFlags {
  std::string data_dir;
  std::string preset = "FBDB15K";
  int64_t entities = 0;       // 0 = preset default
  double seed_ratio = -1.0;   // <0 = preset default
  double image_ratio = -1.0;
  double text_ratio = -1.0;
  int64_t seed = -1;

  void Register(FlagParser& parser) {
    parser.AddString("data", "", "load a dataset directory instead of "
                     "generating one", &data_dir);
    parser.AddString("preset", "FBDB15K",
                     "generator preset (FBDB15K, FBYG15K, DBP15K-ZH-EN, "
                     "DBP15K-JA-EN, DBP15K-FR-EN)",
                     &preset);
    parser.AddInt64("entities", 0, "entities per KG (0 = preset default)",
                    &entities);
    parser.AddDouble("seed-ratio", -1.0, "R_seed (<0 = preset default)",
                     &seed_ratio);
    parser.AddDouble("image-ratio", -1.0, "R_img (<0 = preset default)",
                     &image_ratio);
    parser.AddDouble("text-ratio", -1.0, "R_tex (<0 = preset default)",
                     &text_ratio);
    parser.AddInt64("seed", -1, "generator seed (<0 = preset default)",
                    &seed);
  }

  Result<kg::AlignedKgPair> Load() const {
    if (!data_dir.empty()) return kg::LoadDataset(data_dir);
    DESALIGN_ASSIGN_OR_RETURN(kg::SyntheticSpec spec,
                              kg::PresetByName(preset));
    if (entities > 0) spec.num_entities = entities;
    if (seed_ratio >= 0) spec.seed_ratio = seed_ratio;
    if (image_ratio >= 0) spec.image_ratio = image_ratio;
    if (text_ratio >= 0) spec.text_ratio = text_ratio;
    if (seed >= 0) spec.seed = static_cast<uint64_t>(seed);
    return kg::GenerateSyntheticPair(spec);
  }
};

Result<eval::NamedFactory> FindMethod(const std::string& name) {
  for (auto& f : eval::AllBasicMethods()) {
    if (f.name == name) return f;
  }
  return Status::NotFound("unknown method '" + name +
                          "'; see `desalign run --help`");
}

Status CmdGenerate(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser parser("desalign generate: sample a synthetic MMEA dataset");
  DatasetFlags dataset;
  dataset.Register(parser);
  ThreadsFlag threads;
  threads.Register(parser);
  MetricsFlag metrics;
  metrics.Register(parser);
  std::string out_dir;
  parser.AddString("out", "", "output directory (required)", &out_dir);
  auto argv = ToArgv(args);
  DESALIGN_RETURN_NOT_OK(
      parser.Parse(static_cast<int>(argv.size()), argv.data(), 0));
  DESALIGN_RETURN_NOT_OK(threads.Apply());
  DESALIGN_RETURN_NOT_OK(metrics.Begin());
  if (out_dir.empty()) {
    return Status::InvalidArgument("generate requires --out=DIR");
  }
  DESALIGN_ASSIGN_OR_RETURN(auto pair, dataset.Load());
  DESALIGN_RETURN_NOT_OK(kg::SaveDataset(pair, out_dir));
  out << "wrote " << pair.name << " (" << pair.source.num_entities << "+"
      << pair.target.num_entities << " entities, "
      << pair.train_pairs.size() << " seeds) to " << out_dir << "\n";
  return metrics.Finish(out);
}

Status CmdStats(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser parser("desalign stats: dataset statistics");
  DatasetFlags dataset;
  dataset.Register(parser);
  ThreadsFlag threads;
  threads.Register(parser);
  MetricsFlag metrics;
  metrics.Register(parser);
  auto argv = ToArgv(args);
  DESALIGN_RETURN_NOT_OK(
      parser.Parse(static_cast<int>(argv.size()), argv.data(), 0));
  DESALIGN_RETURN_NOT_OK(threads.Apply());
  DESALIGN_RETURN_NOT_OK(metrics.Begin());
  DESALIGN_ASSIGN_OR_RETURN(auto pair, dataset.Load());
  common::TablePrinter table({"KG", "Ent.", "Rel.", "Att.", "R.Triples",
                            "A.Triples", "Image", "text%", "image%"});
  for (const auto* kg : {&pair.source, &pair.target}) {
    auto s = kg::ComputeStatistics(*kg);
    table.AddRow({kg->name, std::to_string(s.entities),
                  std::to_string(s.relations), std::to_string(s.attributes),
                  std::to_string(s.relation_triples),
                  std::to_string(s.attribute_triples),
                  std::to_string(s.images),
                  common::Pct(kg->text_features.PresentRatio()),
                  common::Pct(kg->visual_features.PresentRatio())});
  }
  table.Print(out);
  out << "alignments: " << pair.train_pairs.size() << " seed / "
      << pair.test_pairs.size() << " test (R_seed="
      << common::Pct(pair.SeedRatio()) << "%)\n";
  return metrics.Finish(out);
}

Status CmdRun(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser parser("desalign run: train and evaluate one method");
  DatasetFlags dataset;
  dataset.Register(parser);
  ThreadsFlag threads;
  threads.Register(parser);
  MetricsFlag metrics;
  metrics.Register(parser);
  std::string method_name;
  int64_t epochs;
  int64_t dim;
  int64_t np;
  int64_t method_seed;
  bool iterative;
  bool csls;
  parser.AddString("method", "DESAlign",
                   "TransE, IPTransE, PoE, GCN-align, AttrGNN, MMEA, EVA, "
                   "MCLEA, MEAformer or DESAlign",
                   &method_name);
  parser.AddInt64("epochs", 60, "training epochs", &epochs);
  parser.AddInt64("dim", 32, "hidden dimension", &dim);
  parser.AddInt64("np", 2, "DESAlign propagation iterations", &np);
  parser.AddInt64("method-seed", 7, "model init seed", &method_seed);
  parser.AddBool("iterative", false, "apply the iterative strategy",
                 &iterative);
  parser.AddBool("csls", false, "apply CSLS to the decoded similarities",
                 &csls);
  auto argv = ToArgv(args);
  DESALIGN_RETURN_NOT_OK(
      parser.Parse(static_cast<int>(argv.size()), argv.data(), 0));
  DESALIGN_RETURN_NOT_OK(threads.Apply());
  DESALIGN_RETURN_NOT_OK(metrics.Begin());

  DESALIGN_ASSIGN_OR_RETURN(auto data, dataset.Load());
  auto& settings = eval::GlobalHarnessSettings();
  settings.dim = dim;
  settings.epochs = static_cast<int>(epochs);
  settings.propagation_iterations = static_cast<int>(np);
  DESALIGN_ASSIGN_OR_RETURN(auto factory, FindMethod(method_name));

  align::IterativeConfig iter;
  iter.epochs_per_round = static_cast<int>(epochs) / 2;
  auto result =
      eval::RunCell(factory, data, static_cast<uint64_t>(method_seed),
                    iterative, iter, csls);
  common::TablePrinter table({"Method", "Dataset", "H@1", "H@5", "H@10",
                            "MRR", "train(s)", "decode(s)"});
  table.AddRow({method_name, data.name, common::Pct(result.metrics.h_at_1),
                common::Pct(result.metrics.h_at_5),
                common::Pct(result.metrics.h_at_10),
                common::Pct(result.metrics.mrr),
                common::Secs(result.train_seconds),
                common::Secs(result.decode_seconds)});
  table.Print(out);
  return metrics.Finish(out);
}

// train: crash-safe training of one fusion-family model. Unlike `run`, it
// writes rotating checksummed checkpoints while training and `--resume`
// continues an interrupted run bit-exactly (same final weights and metrics
// as an uninterrupted run with the same seed and thread count). The final
// parameters can additionally be exported with --out. See
// docs/ROBUSTNESS.md for the checkpoint format and resume semantics.
Status CmdTrain(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser parser("desalign train: crash-safe training with checkpoints");
  DatasetFlags dataset;
  dataset.Register(parser);
  ThreadsFlag threads;
  threads.Register(parser);
  MetricsFlag metrics;
  metrics.Register(parser);
  std::string method_name;
  std::string checkpoint_dir;
  std::string out_path;
  int64_t epochs;
  int64_t dim;
  int64_t np;
  int64_t method_seed;
  int64_t checkpoint_every;
  int64_t checkpoint_keep;
  bool resume;
  parser.AddString("method", "DESAlign",
                   "fusion-family method (EVA, MCLEA, MEAformer, DESAlign)",
                   &method_name);
  parser.AddInt64("epochs", 60, "training epochs", &epochs);
  parser.AddInt64("dim", 32, "hidden dimension", &dim);
  parser.AddInt64("np", 2, "DESAlign propagation iterations", &np);
  parser.AddInt64("method-seed", 7, "model init seed", &method_seed);
  parser.AddString("checkpoint-dir", "",
                   "directory for rotating training checkpoints (required)",
                   &checkpoint_dir);
  parser.AddInt64("checkpoint-every", 5, "epochs between checkpoints",
                  &checkpoint_every);
  parser.AddInt64("checkpoint-keep", 3, "checkpoints retained",
                  &checkpoint_keep);
  parser.AddBool("resume", false,
                 "resume from the newest valid checkpoint in "
                 "--checkpoint-dir",
                 &resume);
  parser.AddString("out", "",
                   "also export the final parameters to this file",
                   &out_path);
  auto argv = ToArgv(args);
  DESALIGN_RETURN_NOT_OK(
      parser.Parse(static_cast<int>(argv.size()), argv.data(), 0));
  DESALIGN_RETURN_NOT_OK(threads.Apply());
  DESALIGN_RETURN_NOT_OK(metrics.Begin());
  if (checkpoint_dir.empty()) {
    return Status::InvalidArgument("train requires --checkpoint-dir=DIR");
  }
  if (checkpoint_every <= 0 || checkpoint_keep <= 0) {
    return Status::InvalidArgument(
        "--checkpoint-every and --checkpoint-keep must be positive");
  }

  DESALIGN_ASSIGN_OR_RETURN(auto data, dataset.Load());
  auto& settings = eval::GlobalHarnessSettings();
  settings.dim = dim;
  settings.epochs = static_cast<int>(epochs);
  settings.propagation_iterations = static_cast<int>(np);
  DESALIGN_ASSIGN_OR_RETURN(auto factory, FindMethod(method_name));
  auto method = factory.make(static_cast<uint64_t>(method_seed));
  auto* fusion = dynamic_cast<align::FusionAlignModel*>(method.get());
  if (fusion == nullptr) {
    return Status::InvalidArgument(
        "train needs a fusion-family method (EVA, MCLEA, MEAformer, "
        "DESAlign); '" + method_name + "' does not support checkpointing");
  }
  fusion->ConfigureCheckpointing(checkpoint_dir,
                                 static_cast<int>(checkpoint_every),
                                 static_cast<int>(checkpoint_keep), resume);

  common::Stopwatch train_clock;
  fusion->Fit(data);
  const double train_seconds = train_clock.ElapsedSeconds();
  auto sim = fusion->DecodeSimilarity(data);
  const auto ranking = align::MetricsFromSimilarity(*sim);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  common::TablePrinter table({"Method", "Dataset", "H@1", "H@10", "MRR",
                            "loss", "skips", "rollbacks", "train(s)"});
  table.AddRow({method_name, data.name, common::Pct(ranking.h_at_1),
                common::Pct(ranking.h_at_10), common::Pct(ranking.mrr),
                common::FormatDouble(reg.GetGauge("train.loss").value(), 6),
                std::to_string(reg.GetCounter("train.nonfinite_skips").value()),
                std::to_string(reg.GetCounter("train.rollbacks").value()),
                common::Secs(train_seconds)});
  table.Print(out);
  if (!out_path.empty()) {
    DESALIGN_RETURN_NOT_OK(fusion->SaveCheckpoint(out_path));
    out << "wrote final parameters to " << out_path << "\n";
  }
  return metrics.Finish(out);
}

Status CmdSweep(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser parser("desalign sweep: robustness sweep over a dataset knob");
  DatasetFlags dataset;
  dataset.Register(parser);
  ThreadsFlag threads;
  threads.Register(parser);
  MetricsFlag metrics;
  metrics.Register(parser);
  std::string variable;
  std::string values_text;
  std::string methods_text;
  std::string csv_path;
  int64_t epochs;
  int64_t dim;
  parser.AddString("variable", "image_ratio",
                   "image_ratio, text_ratio or seed_ratio", &variable);
  parser.AddString("csv", "", "also write results to this CSV file",
                   &csv_path);
  parser.AddString("values", "0.1,0.3,0.5,0.7,0.9",
                   "comma-separated ratios", &values_text);
  parser.AddString("methods", "EVA,MEAformer,DESAlign",
                   "comma-separated method names", &methods_text);
  parser.AddInt64("epochs", 40, "training epochs", &epochs);
  parser.AddInt64("dim", 32, "hidden dimension", &dim);
  auto argv = ToArgv(args);
  DESALIGN_RETURN_NOT_OK(
      parser.Parse(static_cast<int>(argv.size()), argv.data(), 0));
  DESALIGN_RETURN_NOT_OK(threads.Apply());
  DESALIGN_RETURN_NOT_OK(metrics.Begin());
  if (!dataset.data_dir.empty()) {
    return Status::InvalidArgument(
        "sweep regenerates datasets per ratio; use --preset, not --data");
  }

  DESALIGN_ASSIGN_OR_RETURN(auto values,
                            common::ParseDoubleList(values_text));
  if (values.empty()) {
    return Status::InvalidArgument("--values is empty");
  }
  auto method_names = common::ParseStringList(methods_text);
  std::vector<eval::NamedFactory> methods;
  for (const auto& name : method_names) {
    DESALIGN_ASSIGN_OR_RETURN(auto factory, FindMethod(name));
    methods.push_back(std::move(factory));
  }

  auto& settings = eval::GlobalHarnessSettings();
  settings.dim = dim;
  settings.epochs = static_cast<int>(epochs);

  std::vector<std::string> headers = {"Model (H@1)"};
  for (double v : values) headers.push_back(common::FormatDouble(v, 2));
  common::TablePrinter table(headers);
  eval::CsvRecorder csv;
  std::vector<std::vector<std::string>> rows(methods.size());
  for (size_t mi = 0; mi < methods.size(); ++mi) {
    rows[mi].push_back(methods[mi].name);
  }
  for (double value : values) {
    DatasetFlags point = dataset;
    if (variable == "image_ratio") {
      point.image_ratio = value;
    } else if (variable == "text_ratio") {
      point.text_ratio = value;
    } else if (variable == "seed_ratio") {
      point.seed_ratio = value;
    } else {
      return Status::InvalidArgument("unknown sweep variable '" + variable +
                                     "'");
    }
    DESALIGN_ASSIGN_OR_RETURN(auto data, point.Load());
    for (size_t mi = 0; mi < methods.size(); ++mi) {
      auto cell = eval::RunCell(methods[mi], data, /*seed=*/7);
      rows[mi].push_back(common::Pct(cell.metrics.h_at_1));
      csv.AddResult(methods[mi].name, data.name, cell,
                    {{variable, common::FormatDouble(value, 4)}});
    }
  }
  for (auto& row : rows) table.AddRow(std::move(row));
  table.Print(out);
  if (!csv_path.empty()) {
    DESALIGN_RETURN_NOT_OK(csv.WriteFile(csv_path));
    out << "wrote " << csv.num_rows() << " rows to " << csv_path << "\n";
  }
  return metrics.Finish(out);
}

// serve-bench: the full online-retrieval journey — generate (or load) a
// dataset, train a fusion model briefly, persist its fused embeddings
// through an nn::serialize checkpoint, rebuild an EmbeddingStore from that
// checkpoint, then replay queries through BatchQueue + TopKRetriever from
// concurrent submitter threads and report latency/throughput.
Status CmdServeBench(const std::vector<std::string>& args,
                     std::ostream& out) {
  FlagParser parser(
      "desalign serve-bench: checkpoint-backed alignment query benchmark");
  DatasetFlags dataset;
  dataset.Register(parser);
  ThreadsFlag threads;
  threads.Register(parser);
  MetricsFlag metrics;
  metrics.Register(parser);
  std::string method_name;
  std::string checkpoint;
  int64_t epochs;
  int64_t dim;
  int64_t method_seed;
  int64_t num_queries;
  int64_t k;
  int64_t max_batch;
  int64_t submitters;
  int64_t block_rows;
  double max_wait_ms;
  std::string index_kind;
  int64_t nprobe;
  int64_t centroids;
  int64_t shards;
  parser.AddString("method", "DESAlign",
                   "fusion-family method to train (EVA, MCLEA, MEAformer, "
                   "DESAlign)",
                   &method_name);
  parser.AddString("checkpoint", "",
                   "embedding checkpoint path (empty = temp file, removed "
                   "after the run)",
                   &checkpoint);
  parser.AddInt64("epochs", 10, "training epochs before serving", &epochs);
  parser.AddInt64("dim", 32, "hidden dimension", &dim);
  parser.AddInt64("method-seed", 7, "model init seed", &method_seed);
  parser.AddInt64("queries", 2000, "queries to replay", &num_queries);
  parser.AddInt64("k", 10, "candidates per query", &k);
  parser.AddInt64("max-batch", 64, "BatchQueue max batch size", &max_batch);
  parser.AddInt64("submitters", 4, "concurrent submitter threads",
                  &submitters);
  parser.AddInt64("block", 256, "target rows per retrieval block",
                  &block_rows);
  parser.AddDouble("max-wait-ms", 1.0, "BatchQueue batching window",
                   &max_wait_ms);
  parser.AddString("index", "brute",
                   "retriever: brute (exact scan) or ivf (two-stage ANN)",
                   &index_kind);
  parser.AddInt64("nprobe", 8, "IVF cells probed per query", &nprobe);
  parser.AddInt64("centroids", 0, "IVF coarse cells (0 = ~sqrt(n))",
                  &centroids);
  parser.AddInt64("shards", 4, "IVF inverted-list shards", &shards);
  auto argv = ToArgv(args);
  DESALIGN_RETURN_NOT_OK(
      parser.Parse(static_cast<int>(argv.size()), argv.data(), 0));
  DESALIGN_RETURN_NOT_OK(threads.Apply());
  DESALIGN_RETURN_NOT_OK(metrics.Begin());
  if (num_queries <= 0 || k <= 0 || submitters <= 0) {
    return Status::InvalidArgument(
        "--queries, --k and --submitters must be positive");
  }

  // ---- Train a fusion model briefly ----
  DESALIGN_ASSIGN_OR_RETURN(auto data, dataset.Load());
  if (data.test_pairs.empty()) {
    return Status::InvalidArgument("dataset has no test pairs to replay");
  }
  auto& settings = eval::GlobalHarnessSettings();
  settings.dim = dim;
  settings.epochs = static_cast<int>(epochs);
  DESALIGN_ASSIGN_OR_RETURN(auto factory, FindMethod(method_name));
  auto method = factory.make(static_cast<uint64_t>(method_seed));
  common::Stopwatch train_clock;
  method->Fit(data);
  const double train_seconds = train_clock.ElapsedSeconds();
  auto* fusion = dynamic_cast<align::FusionAlignModel*>(method.get());
  if (fusion == nullptr) {
    return Status::InvalidArgument(
        "serve-bench needs a fusion-family method (EVA, MCLEA, MEAformer, "
        "DESAlign); '" + method_name + "' does not expose fused embeddings");
  }

  // ---- Checkpoint round-trip: model embeddings -> disk -> store ----
  auto embeddings = fusion->FusedEmbeddings();
  const int64_t num_source = fusion->num_source_entities();
  const int64_t num_target = embeddings->rows() - num_source;
  const int64_t d = embeddings->cols();
  std::vector<float> target_block(
      embeddings->data().begin() + num_source * d, embeddings->data().end());
  const auto built = serve::EmbeddingStore::FromRows(num_target, d,
                                                     std::move(target_block));
  const bool temp_checkpoint = checkpoint.empty();
  if (temp_checkpoint) {
    checkpoint = (std::filesystem::temp_directory_path() /
                  ("desalign_serve_" + std::to_string(::getpid()) + ".ckpt"))
                     .string();
  }
  DESALIGN_RETURN_NOT_OK(built.Save(checkpoint));
  DESALIGN_ASSIGN_OR_RETURN(auto store,
                            serve::EmbeddingStore::Load(checkpoint));
  if (temp_checkpoint) {
    std::error_code ec;
    std::filesystem::remove(checkpoint, ec);
  }

  // ---- Replay queries through the batching front door ----
  index::RetrieverConfig retriever_config;
  DESALIGN_ASSIGN_OR_RETURN(retriever_config.kind,
                            index::ParseRetrieverKind(index_kind));
  retriever_config.topk.block_rows = block_rows;
  retriever_config.ivf.nprobe = nprobe;
  retriever_config.ivf.num_centroids = centroids;
  retriever_config.ivf.num_shards = static_cast<int>(shards);
  const std::unique_ptr<serve::Retriever> retriever =
      index::MakeRetriever(&store, retriever_config);
  serve::ServeStats stats;
  serve::BatchQueueOptions queue_options;
  queue_options.max_batch = max_batch;
  queue_options.max_wait_ms = max_wait_ms;
  queue_options.k = k;

  const auto& tests = data.test_pairs;
  std::atomic<int64_t> hits_at_1{0};
  std::atomic<int64_t> hits_at_k{0};
  stats.Reset();
  {
    serve::BatchQueue queue(retriever.get(), queue_options, &stats);
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(submitters));
    for (int64_t s = 0; s < submitters; ++s) {
      workers.emplace_back([&, s] {
        std::vector<std::future<serve::TopKResult>> futures;
        std::vector<int64_t> truths;
        for (int64_t i = s; i < num_queries; i += submitters) {
          const auto& pair = tests[static_cast<size_t>(i) % tests.size()];
          const float* row = embeddings->data().data() + pair.source * d;
          futures.push_back(
              queue.Submit(std::vector<float>(row, row + d)));
          truths.push_back(pair.target);
        }
        int64_t h1 = 0;
        int64_t hk = 0;
        for (size_t i = 0; i < futures.size(); ++i) {
          const serve::TopKResult result = futures[i].get();
          if (!result.ids.empty() && result.ids[0] == truths[i]) ++h1;
          for (int64_t id : result.ids) {
            if (id == truths[i]) {
              ++hk;
              break;
            }
          }
        }
        hits_at_1 += h1;
        hits_at_k += hk;
      });
    }
    for (auto& w : workers) w.join();
  }

  // ---- Report ----
  out << "serve-bench: " << data.name << ", " << store.size()
      << " target entities, dim " << store.dim() << ", index " << index_kind
      << ", trained " << method_name << " for " << epochs << " epochs ("
      << common::Secs(train_seconds) << "), "
      << common::ThreadPool::Global().num_threads() << " threads\n";
  if (const auto* ivf = dynamic_cast<const index::IvfRetriever*>(
          retriever.get())) {
    out << "ivf index: " << ivf->num_centroids() << " cells, "
        << ivf->num_shards() << " shards, nprobe " << nprobe << ", built in "
        << common::Secs(ivf->last_build_ms() / 1e3) << "\n";
  }
  stats.PrintTable(out);
  const double q = static_cast<double>(num_queries);
  out << "recall@1 " << common::Pct(static_cast<double>(hits_at_1) / q)
      << "%, recall@" << k << " "
      << common::Pct(static_cast<double>(hits_at_k) / q)
      << "% over " << num_queries << " replayed queries\n";
  return metrics.Finish(out);
}

// bench-kernels: the tensor kernel regression benchmark — times every major
// kernel against the serial scalar reference across a thread-count x ISA
// grid and writes BENCH_kernels.json. tools/ci.sh runs the --smoke
// configuration; docs/PERFORMANCE.md documents the schema.
Status CmdBenchKernels(const std::vector<std::string>& args,
                       std::ostream& out) {
  FlagParser parser(
      "desalign bench-kernels: tensor kernel layer vs scalar reference");
  std::string out_path;
  std::string threads_list;
  int64_t repeats;
  bool smoke;
  parser.AddString("out", "BENCH_kernels.json", "output JSON path",
                   &out_path);
  parser.AddString("threads-list", "1,2,4,8",
                   "comma-separated thread counts to sweep", &threads_list);
  parser.AddInt64("repeats", 5, "timing repeats per measurement (min wins)",
                  &repeats);
  parser.AddBool("smoke", false, "tiny shapes for CI smoke runs", &smoke);
  auto argv = ToArgv(args);
  DESALIGN_RETURN_NOT_OK(
      parser.Parse(static_cast<int>(argv.size()), argv.data(), 0));
  if (repeats <= 0) {
    return Status::InvalidArgument("--repeats must be positive");
  }

  tensor::kernels::KernelBenchOptions options;
  options.thread_counts.clear();
  for (const auto& tok : common::Split(threads_list, ',')) {
    const std::string trimmed(common::Trim(tok));
    if (trimmed.empty()) continue;
    const int t = std::atoi(trimmed.c_str());
    if (t <= 0) {
      return Status::InvalidArgument("--threads-list entries must be "
                                     "positive integers, got '" + tok + "'");
    }
    options.thread_counts.push_back(t);
  }
  if (options.thread_counts.empty()) {
    return Status::InvalidArgument("--threads-list is empty");
  }
  options.repeats = static_cast<int>(repeats);
  options.smoke = smoke;

  const auto report = tensor::kernels::RunKernelBench(options);

  std::ofstream file(out_path);
  if (!file) {
    return Status::InvalidArgument("cannot open '" + out_path +
                                   "' for writing");
  }
  file << report.ToJson();
  file.close();

  for (const auto& c : report.cases) {
    out << c.op << " " << c.rows << "x" << c.cols << ": ref "
        << common::FormatDouble(c.ref_ns_per_elem, 3) << " ns/elem, best "
        << common::FormatDouble(c.BestSpeedup(), 2) << "x\n";
  }
  out << "wrote " << out_path << " (" << report.cases.size() << " cases)\n";
  return Status::Ok();
}

// bench-retrieval: every retrieval path (brute force over fp32, bf16 and
// int8, IVF at full and partial probe) across an entity-count sweep, one
// table, query set and truth per size; writes BENCH_retrieval.json
// (schema desalign.retrieval_bench.v1, gated by tools/ci.sh --index and
// --quant).
Status CmdBenchRetrieval(const std::vector<std::string>& args,
                         std::ostream& out) {
  FlagParser parser(
      "desalign bench-retrieval: brute force over fp32/bf16/int8 and the "
      "IVF index, against one fp32 truth per size");
  ThreadsFlag threads;
  threads.Register(parser);
  std::string out_path;
  std::string entities_list;
  int64_t dim;
  int64_t num_queries;
  int64_t k;
  int64_t nprobe;
  int64_t centroids;
  int64_t shards;
  int64_t rerank;
  int64_t clusters;
  double noise;
  bool smoke;
  parser.AddString("out", "BENCH_retrieval.json", "output JSON path",
                   &out_path);
  parser.AddString("entities-list", "10000,100000,1000000",
                   "comma-separated entity counts to sweep", &entities_list);
  parser.AddInt64("dim", 64, "embedding dimension", &dim);
  parser.AddInt64("queries", 256, "queries per case", &num_queries);
  parser.AddInt64("k", 10, "candidates per query", &k);
  parser.AddInt64("nprobe", 8, "partial-probe width", &nprobe);
  parser.AddInt64("centroids", 0, "IVF coarse cells (0 = ~sqrt(n))",
                  &centroids);
  parser.AddInt64("shards", 4, "IVF inverted-list shards", &shards);
  parser.AddInt64("rerank", 0,
                  "int8 stage-2 re-rank width (0 = auto, <0 = all rows)",
                  &rerank);
  parser.AddInt64("clusters", 256, "synthetic mixture components",
                  &clusters);
  parser.AddDouble("noise", 0.25, "synthetic per-coordinate noise",
                   &noise);
  parser.AddBool("smoke", false,
                 "CI mode: smallest entity count only, fewer queries",
                 &smoke);
  auto argv = ToArgv(args);
  DESALIGN_RETURN_NOT_OK(
      parser.Parse(static_cast<int>(argv.size()), argv.data(), 0));
  DESALIGN_RETURN_NOT_OK(threads.Apply());
  if (num_queries <= 0 || k <= 0) {
    return Status::InvalidArgument("--queries and --k must be positive");
  }

  index::RetrievalBenchOptions options;
  options.entity_counts.clear();
  for (const auto& tok : common::Split(entities_list, ',')) {
    const std::string trimmed(common::Trim(tok));
    if (trimmed.empty()) continue;
    const int64_t n = std::atoll(trimmed.c_str());
    if (n <= 0) {
      return Status::InvalidArgument("--entities-list entries must be "
                                     "positive integers, got '" + tok + "'");
    }
    options.entity_counts.push_back(n);
  }
  if (options.entity_counts.empty()) {
    return Status::InvalidArgument("--entities-list is empty");
  }
  options.dim = dim;
  options.queries = num_queries;
  options.k = k;
  options.nprobe = nprobe;
  options.num_centroids = centroids;
  options.num_shards = static_cast<int>(shards);
  options.rerank_candidates = rerank;
  options.clusters = clusters;
  options.noise = noise;
  options.smoke = smoke;

  const auto report = index::RunRetrievalBench(options);

  std::ofstream file(out_path);
  if (!file) {
    return Status::InvalidArgument("cannot open '" + out_path +
                                   "' for writing");
  }
  file << report.ToJson();
  file.close();

  for (const auto& c : report.cases) {
    out << c.entities << " entities (dim " << c.dim << ", k " << c.k
        << ", truth " << common::Secs(c.truth_ms / 1e3) << "; IVF "
        << c.num_centroids << " cells, " << c.shards << " shards, built "
        << common::Secs(c.build_ms / 1e3) << "):\n";
    for (const auto& p : c.paths) {
      out << "  " << p.path << ": " << p.table_bytes << " B ("
          << common::FormatDouble(p.memory_reduction, 2) << "x), batch "
          << common::FormatDouble(p.batch_ms, 1) << " ms, p50 "
          << common::FormatDouble(p.p50_ms, 3) << " ms, p99 "
          << common::FormatDouble(p.p99_ms, 3) << " ms, recall@" << c.k
          << " " << common::FormatDouble(p.recall_at_k, 4)
          << (p.path == "int8"
                  ? " (raw " + common::FormatDouble(p.recall_at_k_raw, 4) +
                        ")"
                  : "")
          << ", hits@1 " << common::FormatDouble(p.hits_at_1, 4)
          << (p.bitexact ? " (bit-exact)" : "")
          << (p.bitexact_full.value_or(false) ? " (exact mode bit-exact)"
                                              : "")
          << (p.refined_exact_matches_fp32.value_or(false)
                  ? " (refined == fp32)"
                  : "")
          << "\n";
    }
  }
  out << "wrote " << out_path << " (" << report.cases.size() << " cases)\n";
  return Status::Ok();
}

// quantize: offline checkpoint conversion — loads an embedding tensor from
// any supported checkpoint (v1/v2/v3), quantizes it row-wise, and writes a
// dtype-tagged v3 checkpoint a serving process can Load or Reload.
Status CmdQuantize(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser parser(
      "desalign quantize: convert a checkpoint's embedding table to "
      "int8/bf16 v3 storage");
  std::string in_path;
  std::string out_path;
  std::string dtype_name;
  int64_t tensor_index;
  parser.AddString("in", "", "input checkpoint (v1/v2/v3)", &in_path);
  parser.AddString("out", "", "output v3 checkpoint path", &out_path);
  parser.AddString("dtype", "int8", "target dtype: int8|bf16|fp32",
                   &dtype_name);
  parser.AddInt64("tensor", 0, "tensor index within the checkpoint",
                  &tensor_index);
  auto argv = ToArgv(args);
  DESALIGN_RETURN_NOT_OK(
      parser.Parse(static_cast<int>(argv.size()), argv.data(), 0));
  if (in_path.empty() || out_path.empty()) {
    return Status::InvalidArgument("--in and --out are required");
  }
  DESALIGN_ASSIGN_OR_RETURN(const nn::TensorDtype dtype,
                            nn::ParseDtype(dtype_name));

  DESALIGN_ASSIGN_OR_RETURN(auto store,
                            serve::EmbeddingStore::Load(in_path, tensor_index));
  DESALIGN_ASSIGN_OR_RETURN(auto quantized, store.Quantize(dtype));
  DESALIGN_RETURN_NOT_OK(quantized.Save(out_path));

  const auto snap = quantized.Snapshot();
  const auto before = store.Snapshot().MemoryBytes();
  const auto after = snap.MemoryBytes();
  out << "quantized " << snap.size() << " x " << snap.dim() << " "
      << nn::DtypeName(store.Snapshot().dtype()) << " -> "
      << nn::DtypeName(snap.dtype()) << ": "
      << before << " -> " << after << " bytes ("
      << common::FormatDouble(
             after > 0 ? static_cast<double>(before) /
                             static_cast<double>(after)
                       : 0.0,
             2)
      << "x), wrote " << out_path << "\n";
  return Status::Ok();
}

// bench-overload: open-loop offered-QPS sweep past the serving queue's
// measured capacity; writes BENCH_overload.json (schema
// desalign.overload_bench.v1, gated by tools/ci.sh --overload).
Status CmdBenchOverload(const std::vector<std::string>& args,
                        std::ostream& out) {
  FlagParser parser(
      "desalign bench-overload: open-loop overload sweep of the serving "
      "queue — admission, deadlines, degradation ladder");
  ThreadsFlag threads;
  threads.Register(parser);
  std::string out_path;
  std::string multipliers;
  int64_t entities;
  int64_t dim;
  int64_t k;
  int64_t max_pending;
  int64_t submit_threads;
  double deadline_ms;
  double duration_s;
  bool smoke;
  parser.AddString("out", "BENCH_overload.json", "output JSON path",
                   &out_path);
  parser.AddInt64("entities", 30000, "synthetic table rows", &entities);
  parser.AddInt64("dim", 64, "embedding dimension", &dim);
  parser.AddInt64("k", 10, "candidates per query", &k);
  parser.AddDouble("deadline-ms", 50.0, "per-request deadline",
                   &deadline_ms);
  parser.AddInt64("max-pending", 256, "admission bound on the queue",
                  &max_pending);
  parser.AddDouble("duration-s", 2.0, "open-loop seconds per load point",
                   &duration_s);
  parser.AddString("multipliers", "0.5,1,2,4",
                   "offered load as multiples of measured capacity",
                   &multipliers);
  parser.AddInt64("submit-threads", 0,
                  "submitting client threads (0 = auto: min(4, cores))",
                  &submit_threads);
  parser.AddBool("smoke", false, "CI mode: small table, short points",
                 &smoke);
  auto argv = ToArgv(args);
  DESALIGN_RETURN_NOT_OK(
      parser.Parse(static_cast<int>(argv.size()), argv.data(), 0));
  DESALIGN_RETURN_NOT_OK(threads.Apply());
  if (entities <= 0 || dim <= 0 || k <= 0 || max_pending <= 0 ||
      submit_threads < 0 || duration_s <= 0.0) {
    return Status::InvalidArgument(
        "--entities, --dim, --k, --max-pending and --duration-s must be "
        "positive (--submit-threads may be 0 = auto)");
  }

  serve::OverloadBenchOptions options;
  options.entities = entities;
  options.dim = dim;
  options.k = k;
  options.deadline_ms = deadline_ms;
  options.max_pending = max_pending;
  options.duration_s = duration_s;
  options.submit_threads = static_cast<int>(submit_threads);
  options.smoke = smoke;
  options.load_multipliers.clear();
  for (const auto& tok : common::Split(multipliers, ',')) {
    const std::string trimmed(common::Trim(tok));
    if (trimmed.empty()) continue;
    const double m = std::atof(trimmed.c_str());
    if (m <= 0.0) {
      return Status::InvalidArgument(
          "--multipliers entries must be positive, got '" + tok + "'");
    }
    options.load_multipliers.push_back(m);
  }
  if (options.load_multipliers.empty()) {
    return Status::InvalidArgument("--multipliers is empty");
  }

  const auto report = serve::RunOverloadBench(options);

  std::ofstream file(out_path);
  if (!file) {
    return Status::InvalidArgument("cannot open '" + out_path +
                                   "' for writing");
  }
  file << report.ToJson();
  file.close();

  out << "capacity " << common::FormatDouble(report.capacity_qps, 0)
      << " qps (" << report.entities << " entities, dim " << report.dim
      << ", deadline " << common::FormatDouble(report.deadline_ms, 0)
      << " ms)\n";
  for (const auto& c : report.cases) {
    out << "  x" << common::FormatDouble(c.multiplier, 2) << " offered "
        << common::FormatDouble(c.offered_qps, 0) << " qps, goodput "
        << common::FormatDouble(c.goodput_qps, 0) << " qps, ok " << c.ok
        << ", shed " << c.shed_queue_full << "/" << c.shed_deadline
        << ", p99 " << common::FormatDouble(c.p99_ms, 2) << " ms, rung "
        << c.max_rung << "->" << c.end_rung << "\n";
  }
  out << "recovery: rung " << report.recovery.from_rung << " -> "
      << (report.recovery.reached_healthy ? "healthy" : "NOT healthy")
      << " in " << common::FormatDouble(report.recovery.recover_ms, 0)
      << " ms, "
      << (report.recovery.bitexact ? "bit-exact" : "NOT bit-exact") << "\n";
  out << "wrote " << out_path << " (" << report.cases.size()
      << " load points)\n";
  return Status::Ok();
}

constexpr char kTopLevelUsage[] =
    "usage: desalign <command> [flags]\n"
    "commands:\n"
    "  generate   sample a synthetic MMEA dataset and write it to disk\n"
    "  stats      print dataset statistics\n"
    "  run        train + evaluate one alignment method\n"
    "  train      crash-safe training: rotating checksummed checkpoints "
    "and --resume\n"
    "  sweep      robustness sweep over image/text/seed ratio\n"
    "  serve-bench  train, checkpoint, then replay top-k alignment queries\n"
    "  bench-kernels  time tensor kernels vs the scalar reference, write "
    "BENCH_kernels.json\n"
    "  quantize     convert a checkpoint's embeddings to int8/bf16 v3 "
    "storage\n"
    "  bench-retrieval  sweep entity counts, brute force over fp32/bf16/"
    "int8 and IVF, write BENCH_retrieval.json\n"
    "  bench-overload  open-loop overload sweep of the serving queue, "
    "write BENCH_overload.json\n"
    "run `desalign <command> --help` for command flags.\n";

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty()) {
    out << kTopLevelUsage;
    return 2;
  }
  const std::string& command = args[0];
  std::vector<std::string> rest(args.begin() + 1, args.end());
  Status status;
  if (command == "generate") {
    status = CmdGenerate(rest, out);
  } else if (command == "stats") {
    status = CmdStats(rest, out);
  } else if (command == "run") {
    status = CmdRun(rest, out);
  } else if (command == "train") {
    status = CmdTrain(rest, out);
  } else if (command == "sweep") {
    status = CmdSweep(rest, out);
  } else if (command == "serve-bench") {
    status = CmdServeBench(rest, out);
  } else if (command == "bench-kernels") {
    status = CmdBenchKernels(rest, out);
  } else if (command == "bench-retrieval") {
    status = CmdBenchRetrieval(rest, out);
  } else if (command == "quantize") {
    status = CmdQuantize(rest, out);
  } else if (command == "bench-overload") {
    status = CmdBenchOverload(rest, out);
  } else if (command == "--help" || command == "-h" || command == "help") {
    out << kTopLevelUsage;
    return 0;
  } else {
    out << "unknown command '" << command << "'\n" << kTopLevelUsage;
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

int RunCliMain(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return RunCli(args, std::cout);
}

}  // namespace desalign::cli
