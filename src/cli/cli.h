#ifndef DESALIGN_CLI_CLI_H_
#define DESALIGN_CLI_CLI_H_

#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace desalign::cli {

/// Entry point for the `desalign` command-line tool. Subcommands:
///
///   generate  --preset=FBDB15K --entities=600 --seed-ratio=0.2
///             --image-ratio=0.9 --text-ratio=0.95 --seed=7 --out=DIR
///       Samples a synthetic MMEA dataset and writes it to DIR.
///
///   stats     --data=DIR | --preset=NAME [--entities=N]
///       Prints Table-I-style statistics.
///
///   run       --method=DESAlign [--data=DIR | --preset=NAME] [--epochs=..]
///             [--dim=..] [--iterative] [--np=..] [--csls] [--seed=..]
///       Trains one method and reports H@1/H@5/H@10/MRR plus timings.
///
///   sweep     --variable=image_ratio|text_ratio|seed_ratio
///             --values=0.1,0.3,0.5 --methods=EVA,DESAlign --preset=NAME
///       Runs a robustness sweep and prints one row per method.
///
///   serve-bench  [--preset=NAME | --data=DIR] [--method=DESAlign]
///             [--epochs=..] [--queries=..] [--k=..] [--max-batch=..]
///             [--max-wait-ms=..] [--submitters=..] [--threads=..]
///             [--checkpoint=PATH]
///       Trains briefly, persists the fused embeddings through an
///       nn::serialize checkpoint, rebuilds a serve::EmbeddingStore from
///       it, replays queries through serve::BatchQueue from concurrent
///       submitters, and prints a latency/throughput table (p50/p95).
///
///   quantize  --in=CKPT --out=CKPT [--dtype=int8|bf16|fp32] [--tensor=0]
///       Loads an embedding table from a checkpoint, converts it to the
///       requested storage dtype (per-row symmetric int8 or bf16), and
///       writes a dtype-tagged v3 checkpoint for the serving path.
///
///   bench-retrieval  [--out=BENCH_retrieval.json] [--entities-list=..]
///             [--dim=..] [--queries=..] [--k=..] [--nprobe=..]
///             [--centroids=..] [--shards=..] [--rerank=..] [--clusters=..]
///             [--noise=..] [--smoke]
///       Retrieval bench: brute force over fp32, bf16 and int8 storage and
///       the IVF index at full and partial probe, each against one fp32
///       truth per size: footprint, latency, recall@k / Hits@1 and the
///       bit-exactness gates. Writes schema desalign.retrieval_bench.v1.
///
/// Every subcommand accepts --threads=N to size the global worker pool.
///
/// Returns the process exit code; all output goes to `out` (results) and
/// stderr (diagnostics), so the tool is scriptable and testable.
int RunCli(const std::vector<std::string>& args, std::ostream& out);

/// argv adapter used by the binary.
int RunCliMain(int argc, char** argv);

}  // namespace desalign::cli

#endif  // DESALIGN_CLI_CLI_H_
