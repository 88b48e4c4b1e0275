//===- InferRuntime.h - graph-free inference runtime ------------*- C++ -*-===//
///
/// \file
/// The inference-side execution engine of the Transformer (§VI-A): runs
/// the encoder stack and the batched KV-cached decoder directly on raw
/// float buffers with the tiled/AVX2 kernels — no autograd tape, no
/// per-node allocation. The Graph-based `encode`/`decode`/`pairLoss` in
/// Transformer remain the training path and the bit-exactness oracle:
/// every kernel here either IS the kernel the graph ops call (gemmAcc*,
/// softmaxRowInPlace, layerNormRow) or mirrors the op sequence
/// operation for operation, so `InferRuntime` outputs are bit-identical
/// to the training graph (pinned by tests/test_nn.cpp).
///
/// An InferRuntime is a cheap view over a Transformer (created on demand
/// by the Transformer's public inference entry points); the expensive
/// state — the `EncodeScratch` arena — is pooled process-wide and reused
/// across calls and threads.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_INFERRUNTIME_H
#define SLADE_NN_INFERRUNTIME_H

#include "nn/Parallel.h"
#include "nn/Transformer.h"

#include <cstddef>
#include <memory>
#include <vector>

namespace slade {
namespace nn {

/// Preallocated activation buffers for one encoder forward pass, sized
/// for the longest source seen so far and reused across calls (the
/// encoder allocates NOTHING per request once the arena is warm).
/// Acquired from a process-wide pool by InferRuntime::encodeSource, or
/// owned directly by callers that want single-threaded reuse.
struct EncodeScratch {
  std::vector<float> X;       ///< [T, D] residual stream.
  std::vector<float> Norm;    ///< [T, D] pre-LN block input.
  std::vector<float> Q, K, V; ///< [T, D] attention projections.
  std::vector<float> Qh, Kh, Vh; ///< [T, Dh] per-head slices.
  std::vector<float> Scores;  ///< [T, T] one head's attention matrix.
  std::vector<float> HeadOut; ///< [T, Dh] one head's output.
  std::vector<float> Attn;    ///< [T, D] concatenated head outputs.
  std::vector<float> Proj;    ///< [T, D] block output before residual.
  std::vector<float> FF1;     ///< [T, FF] feed-forward hidden.
  /// Tile-packing scratch for the per-head score GEMM (Kh^T). An explicit
  /// handle with the same pooled lifetime as the rest of the arena — the
  /// kernels hold NO hidden thread-local pack buffers, so sanitizer jobs
  /// (ASan/TSan) see every byte the encoder touches pinned to this
  /// scratch's owner. (The batched decoder needs no NT pack scratch: all
  /// its weight-side operands are pre-packed in DecodeConstants.)
  PackedMat PackB;

  /// Grows every buffer to fit a T-token source of \p Cfg's shape.
  /// Never shrinks, so a pooled scratch converges to the corpus maximum.
  void ensure(const TransformerConfig &Cfg, int T);
  /// Heap bytes currently held (capacity, not size).
  size_t bytes() const;
};

class InferRuntime {
public:
  /// \p TP (optional, non-owning) parallelizes the ENCODER-side entry
  /// points below across its workers; the decoder reads the pool from
  /// BatchDecodeState::TP instead so long-lived decode state carries its
  /// own pool. Null = sequential (identical either way by construction).
  explicit InferRuntime(const Transformer &M, ParallelFor *TP = nullptr)
      : M(M), TP(TP) {}

  /// -- encoder ------------------------------------------------------------

  /// Graph-free encoder forward + cross-K/V precompute over a pooled
  /// scratch arena. Bit-identical to Transformer::encodeSourceGraph.
  std::shared_ptr<const Transformer::EncoderCache>
  encodeSource(const std::vector<int> &Src) const;

  /// Same, over caller-owned scratch (no pool round-trip): fills
  /// Out.EncOut/TSrc only; call finishEncoderCache for cross-K/V+consts.
  /// Throws std::out_of_range, before any work, when a source id it
  /// reads lies outside [0, Vocab).
  void encodeInto(const std::vector<int> &Src, EncodeScratch &S,
                  Transformer::EncoderCache &Out) const;

  /// Cross-attention K/V precompute + shared decode constants from an
  /// already-filled EncOut. Shared by the fast path and the graph oracle
  /// so the two produce identical caches whenever EncOut matches.
  void finishEncoderCache(Transformer::EncoderCache &Cache) const;

  /// -- decoder (the batched KV-cached hot path) ----------------------------

  /// Builds the weight-version-tagged decode constants (fused self Q|K|V,
  /// packed decoder weights). Transformer::decodeConstants owns the
  /// per-model cache slot and calls this on a version miss.
  std::shared_ptr<const Transformer::DecodeConstants>
  buildDecodeConstants() const;

  /// Builds the weight-version-tagged encoder/cross packed-weight tiles
  /// (every persistent matrix the encoder-side GEMMs consume, pre-packed
  /// into the blocked tile-major microkernel layout). Cached per weight
  /// version by Transformer::packedWeights, invalidated together with
  /// DecodeConstants by bumpWeightVersion().
  std::shared_ptr<const Transformer::PackedWeights> buildPackedWeights() const;

  Transformer::BatchDecodeState
  startDecodeStream(int MaxSources, int BeamsPerSource, int MaxSteps) const;
  int admitStreamRow(Transformer::BatchDecodeState &St, int Seg,
                     std::shared_ptr<const Transformer::EncoderCache> Enc)
      const;
  std::vector<float> stepDecodeBatch(Transformer::BatchDecodeState &St,
                                     const std::vector<int> &Tokens) const;
  void reorderBeams(Transformer::BatchDecodeState &St,
                    const std::vector<int> &SrcIdx) const;
  void abortStreamSegment(Transformer::BatchDecodeState &St, int Seg) const;

private:
  const Transformer &M;
  ParallelFor *TP = nullptr; ///< Encoder-side pool (null = sequential).

  /// The batched-decoder forward: embeds, runs every decoder layer and
  /// the output projection over St.FwdRows (at most BMax rows), returns
  /// logits [FwdRows.size(), Vocab]. stepDecodeBatch lowers a step onto
  /// it.
  std::vector<float>
  forwardDecodeRows(Transformer::BatchDecodeState &St) const;

  /// Out = X * W over a PRE-PACKED weight, bias added AFTER the product
  /// (mirrors the graph's addRow(matmul(...)) rounding). Splits output
  /// rows (or column tiles when Rows is small) across \p TP when set;
  /// each output element's K-reduction stays on one thread, so results
  /// are bit-identical at any thread count.
  void linearRowsBiasAfter(const float *X, int Rows, const PackedMat &W,
                           const float *Bias, float *Out,
                           ParallelFor *TP) const;
  /// Out[r] = X[r] * W + Bias over a PRE-PACKED weight, bias seeded
  /// before accumulation (the decode-path layout). Same TP splitting
  /// contract as linearRowsBiasAfter.
  void linearRows(const float *X, int Rows, const PackedMat &W,
                  const float *Bias, float *Out, ParallelFor *TP) const;
  /// C += X * W over a PRE-PACKED weight with no bias handling (caller
  /// seeds C); row- or tile-split across \p TP like linearRows.
  void gemmPackedPar(const float *X, const PackedMat &W, float *C, int Rows,
                     ParallelFor *TP) const;
};

} // namespace nn
} // namespace slade

#endif // SLADE_NN_INFERRUNTIME_H
