// AVX2 instantiation of the elementwise span bodies and the GEMM loop
// nests. The whole translation unit is compiled with 256-bit codegen
// enabled via the target pragma (the build itself stays baseline-x86-64 so
// the binary runs on CPUs without AVX2); nothing here executes unless
// dispatch.cc confirmed AVX2 support at runtime. The bodies are the same C++
// as the scalar instantiation — lane-independent IEEE operations and
// ordered scalar reductions with -ffp-contract=off — so both levels are
// bit-identical; only the vector width differs.

#include "tensor/kernels/internal.h"

#if DESALIGN_KERNELS_HAVE_AVX2

#include <cmath>
#include <cstdint>
#include <cstring>

#pragma GCC push_options
#pragma GCC target("avx2")

namespace desalign::tensor::kernels {
namespace avx2_impl {
#include "tensor/kernels/span_bodies.inl"
#include "tensor/kernels/gemm_bodies.inl"
}  // namespace avx2_impl
}  // namespace desalign::tensor::kernels

#pragma GCC pop_options

#endif  // DESALIGN_KERNELS_HAVE_AVX2
