#ifndef DESALIGN_NN_SERIALIZE_H_
#define DESALIGN_NN_SERIALIZE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

namespace desalign::nn {

/// Writes a parameter list to `path` (binary: magic, count, then per-tensor
/// rows/cols/float32 data). Order matters: the same module construction
/// order must be used when loading.
common::Status SaveParameters(const std::vector<tensor::TensorPtr>& params,
                              const std::string& path);

/// Loads the tensors of any checkpoint LoadCheckpoint reads (v1, v2 or
/// v3) into `params` in order. Fails with InvalidArgument, before any
/// data moves, when the count or any shape mismatches.
common::Status LoadParameters(const std::vector<tensor::TensorPtr>& params,
                              const std::string& path);

/// Every tensor of any checkpoint LoadCheckpoint reads, with count and
/// shapes from the file: for consumers that have no model to dictate
/// shapes. v3 records come back dequantized to float32. Corrupt,
/// truncated or implausible files produce a clean error Status, never a
/// crash or an over-allocation.
common::Result<std::vector<tensor::TensorPtr>> LoadAllParameters(
    const std::string& path);

}  // namespace desalign::nn

#endif  // DESALIGN_NN_SERIALIZE_H_
