#ifndef DESALIGN_TENSOR_KERNELS_INTERNAL_H_
#define DESALIGN_TENSOR_KERNELS_INTERNAL_H_

// Internal ISA plumbing for the kernel layer. Not installed into ops.cc or
// any code outside src/tensor/kernels/.
//
// Every elementwise span body (span_bodies.inl) and every GEMM chunk loop
// nest (gemm_bodies.inl) is compiled twice, into kernels::scalar_impl
// (baseline codegen, elementwise.cc) and kernels::avx2_impl (256-bit
// codegen, avx2.cc). Both namespaces share the prototype lists below;
// span::Foo(isa, ...) picks the instantiation for the resolved IsaLevel.
// The two are bit-identical by construction — see span_bodies.inl for the
// lane-independence argument and gemm_bodies.inl for the ordered
// reductions.

#include <cstdint>

#include "tensor/kernels/dispatch.h"
#include "tensor/kernels/gemm.h"

#if defined(__x86_64__) || defined(__i386__)
#define DESALIGN_KERNELS_HAVE_AVX2 1
#else
#define DESALIGN_KERNELS_HAVE_AVX2 0
#endif

namespace desalign::tensor::kernels {

#define DESALIGN_KERNEL_SPAN_PROTOS                                          \
  void AddBody(const float* a, const float* b, float* y, int64_t n);         \
  void SubBody(const float* a, const float* b, float* y, int64_t n);         \
  void MulBody(const float* a, const float* b, float* y, int64_t n);         \
  void DivBody(const float* a, const float* b, float* y, int64_t n);         \
  void ScaleBody(const float* x, float s, float* y, int64_t n);              \
  void AddConstBody(const float* x, float s, float* y, int64_t n);           \
  void MulConstBody(const float* x, float s, float* y, int64_t n);           \
  void ReluBody(const float* x, float* y, int64_t n);                        \
  void LeakyReluBody(const float* x, float slope, float* y, int64_t n);      \
  void SigmoidBody(const float* x, float* y, int64_t n);                     \
  void TanhBody(const float* x, float* y, int64_t n);                        \
  void ExpBody(const float* x, float* y, int64_t n);                         \
  void LogEpsBody(const float* x, float eps, float* y, int64_t n);           \
  void SquareBody(const float* x, float* y, int64_t n);                      \
  void AbsBody(const float* x, float* y, int64_t n);                         \
  void ClipBody(const float* x, float lo, float hi, float* y, int64_t n);    \
  void AccBody(const float* g, float* out, int64_t n);                       \
  void AccNegBody(const float* g, float* out, int64_t n);                    \
  void AxpyBody(float alpha, const float* x, float* out, int64_t n);         \
  void AccConstBody(float v, float* out, int64_t n);                         \
  void AccMulConstBody(const float* g, float s, float* out, int64_t n);      \
  void AccMulBody(const float* g, const float* x, float* out, int64_t n);    \
  void AccDivBody(const float* g, const float* b, float* out, int64_t n);    \
  void DivGradBBody(const float* g, const float* a, const float* b,          \
                    float* out, int64_t n);                                  \
  void ReluGradBody(const float* g, const float* x, float* out, int64_t n);  \
  void LeakyReluGradBody(const float* g, const float* x, float slope,        \
                         float* out, int64_t n);                             \
  void SigmoidGradBody(const float* g, const float* y, float* out,           \
                       int64_t n);                                           \
  void TanhGradBody(const float* g, const float* y, float* out, int64_t n);  \
  void LogEpsGradBody(const float* g, const float* x, float eps, float* out, \
                      int64_t n);                                            \
  void SquareGradBody(const float* g, const float* x, float* out,            \
                      int64_t n);                                            \
  void AbsGradBody(const float* g, const float* x, float* out, int64_t n);   \
  void ClipGradBody(const float* g, const float* x, float lo, float hi,      \
                    float* out, int64_t n);                                  \
  void SqDistAccBody(float x, const float* c, float* out, int64_t n);

// One ParallelFor chunk of MatMul (output rows), MatMulGradA (output rows,
// `tmp` a k-float workspace), MatMulGradB (rows p of gb) and MatMulTransB
// (blocks of kTransBRows rows of c, b packed into panels).
#define DESALIGN_KERNEL_GEMM_PROTOS                                          \
  void MatMulRowsBody(const float* a, const float* b, float* y, int64_t k,   \
                      int64_t n, int64_t row_begin, int64_t row_end);        \
  void MatMulGradARowsBody(const float* g, const float* bt, float* ga,       \
                           float* tmp, int64_t k, int64_t n,                 \
                           int64_t row_begin, int64_t row_end);              \
  void MatMulGradBColsBody(const float* g, const float* a, float* gb,        \
                           int64_t m, int64_t k, int64_t n, int64_t p_begin, \
                           int64_t p_end);                                   \
  void MatMulTransBBlocksBody(const float* a, const float* bp, float* c,     \
                              int64_t m, int64_t k, int64_t n,               \
                              GemmEpilogue epilogue, float s,                \
                              int64_t block_begin, int64_t block_end);

// Rows of c per MatMulTransB register tile; its columns are two vectors.
inline constexpr int64_t kTransBRows = 6;

namespace scalar_impl {
// Bytes per vector of the MatMulTransB tile: SSE2's, the x86-64 baseline,
// whose 16 registers hold the tile's 12 sums.
inline constexpr int kTileVecBytes = 16;
DESALIGN_KERNEL_SPAN_PROTOS
DESALIGN_KERNEL_GEMM_PROTOS
}  // namespace scalar_impl

#if DESALIGN_KERNELS_HAVE_AVX2
namespace avx2_impl {
inline constexpr int kTileVecBytes = 32;
DESALIGN_KERNEL_SPAN_PROTOS
DESALIGN_KERNEL_GEMM_PROTOS
}  // namespace avx2_impl
#endif

// Floats per packed b panel of MatMulTransB: two of `isa`'s tile vectors.
inline int64_t TransBPanelWidth(IsaLevel isa) {
#if DESALIGN_KERNELS_HAVE_AVX2
  if (isa == IsaLevel::kAvx2) {
    return 2 * avx2_impl::kTileVecBytes / sizeof(float);
  }
#endif
  (void)isa;
  return 2 * scalar_impl::kTileVecBytes / sizeof(float);
}

#undef DESALIGN_KERNEL_SPAN_PROTOS
#undef DESALIGN_KERNEL_GEMM_PROTOS

// span::Foo(isa, args...) — single-threaded span dispatch. Rowwise and gemm
// kernels resolve ActiveIsa() once per kernel call and pass it down so the
// per-row inner loops avoid repeated atomic loads.
namespace span {

#if DESALIGN_KERNELS_HAVE_AVX2
#define DESALIGN_DEFINE_SPAN(NAME)                      \
  template <typename... Args>                           \
  inline void NAME(IsaLevel isa, Args... args) {        \
    if (isa == IsaLevel::kAvx2) {                       \
      avx2_impl::NAME##Body(args...);                   \
    } else {                                            \
      scalar_impl::NAME##Body(args...);                 \
    }                                                   \
  }
#else
#define DESALIGN_DEFINE_SPAN(NAME)                      \
  template <typename... Args>                           \
  inline void NAME(IsaLevel /*isa*/, Args... args) {    \
    scalar_impl::NAME##Body(args...);                   \
  }
#endif

DESALIGN_DEFINE_SPAN(Add)
DESALIGN_DEFINE_SPAN(Sub)
DESALIGN_DEFINE_SPAN(Mul)
DESALIGN_DEFINE_SPAN(Div)
DESALIGN_DEFINE_SPAN(Scale)
DESALIGN_DEFINE_SPAN(AddConst)
DESALIGN_DEFINE_SPAN(MulConst)
DESALIGN_DEFINE_SPAN(Relu)
DESALIGN_DEFINE_SPAN(LeakyRelu)
DESALIGN_DEFINE_SPAN(Sigmoid)
DESALIGN_DEFINE_SPAN(Tanh)
DESALIGN_DEFINE_SPAN(Exp)
DESALIGN_DEFINE_SPAN(LogEps)
DESALIGN_DEFINE_SPAN(Square)
DESALIGN_DEFINE_SPAN(Abs)
DESALIGN_DEFINE_SPAN(Clip)
DESALIGN_DEFINE_SPAN(Acc)
DESALIGN_DEFINE_SPAN(AccNeg)
DESALIGN_DEFINE_SPAN(Axpy)
DESALIGN_DEFINE_SPAN(AccConst)
DESALIGN_DEFINE_SPAN(AccMulConst)
DESALIGN_DEFINE_SPAN(AccMul)
DESALIGN_DEFINE_SPAN(AccDiv)
DESALIGN_DEFINE_SPAN(DivGradB)
DESALIGN_DEFINE_SPAN(ReluGrad)
DESALIGN_DEFINE_SPAN(LeakyReluGrad)
DESALIGN_DEFINE_SPAN(SigmoidGrad)
DESALIGN_DEFINE_SPAN(TanhGrad)
DESALIGN_DEFINE_SPAN(LogEpsGrad)
DESALIGN_DEFINE_SPAN(SquareGrad)
DESALIGN_DEFINE_SPAN(AbsGrad)
DESALIGN_DEFINE_SPAN(ClipGrad)
DESALIGN_DEFINE_SPAN(SqDistAcc)
DESALIGN_DEFINE_SPAN(MatMulRows)
DESALIGN_DEFINE_SPAN(MatMulGradARows)
DESALIGN_DEFINE_SPAN(MatMulGradBCols)
DESALIGN_DEFINE_SPAN(MatMulTransBBlocks)

#undef DESALIGN_DEFINE_SPAN

}  // namespace span

}  // namespace desalign::tensor::kernels

#endif  // DESALIGN_TENSOR_KERNELS_INTERNAL_H_
