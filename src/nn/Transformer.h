//===- Transformer.h - sequence-to-sequence Transformer ---------*- C++ -*-===//
///
/// \file
/// The paper's model (§V-B, §V-C): a pre-LN encoder-decoder Transformer
/// with shared token embeddings for encoder, decoder, and output layer,
/// learned positions, Adam + decoupled weight decay, and NO dropout by
/// default (§V-C: weight-decay-only regularization outperformed dropout).
/// Training uses teacher forcing; inference has a KV-cached fast path used
/// by beam-search decoding (§VI-A).
///
/// Execution is split by purpose: the Graph-based encode/decode/pairLoss
/// are the training path (autograd tape) and the bit-exactness oracle;
/// every serving entry point below (encodeSource, startDecodeStream,
/// admitStreamRow, stepDecodeBatch, decodeConstants) delegates to the
/// graph-free InferRuntime (nn/InferRuntime.h), which runs on raw
/// preallocated buffers with the tiled kernels.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_TRANSFORMER_H
#define SLADE_NN_TRANSFORMER_H

#include "nn/Mat.h"
#include "support/Error.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace slade {
namespace nn {

class InferRuntime;
class ParallelFor;

/// Row stride of the transposed cross-K layout (EncoderCache::CrossKT):
/// the source length rounded up to a whole 8-float vector.
inline int crossKStride(int TSrc) { return (TSrc + 7) & ~7; }

struct TransformerConfig {
  int Vocab = 512;
  int DModel = 64;
  int NHeads = 4;
  int FF = 128;
  int EncLayers = 2;
  int DecLayers = 2;
  int MaxLen = 256;
  float DropoutP = 0.0f; ///< Paper default: none.
  uint64_t Seed = 42;
};

/// A parameter with its weight-decay eligibility.
struct ParamRef {
  Mat *M;
  bool Decay;
};

class Transformer {
public:
  /// Special token ids (aligned with tok::Tokenizer).
  static constexpr int PadId = 0;
  static constexpr int BosId = 1;
  static constexpr int EosId = 2;

  explicit Transformer(const TransformerConfig &Cfg);

  const TransformerConfig &config() const { return Cfg; }
  std::vector<ParamRef> params();

  /// Teacher-forced loss for one (source, target) pair; gradients are
  /// accumulated into the parameters via \p G.
  float pairLoss(Graph &G, const std::vector<int> &Src,
                 const std::vector<int> &Tgt, bool Train);

  /// -- inference fast path (no autograd, KV cache) -----------------------

  /// Per-model decode constants, laid out for the batched kernels. They
  /// depend only on the weights, not on any source, so one copy is shared
  /// by every decode session and rebuilt only when the weight version
  /// changes (training step, weight load).
  struct DecodeConstants {
    /// Weight version the constants were derived from.
    uint64_t Version = 0;
    /// Per decoder layer: the self-attention biases Bq|Bk|Bv ([3D]) that
    /// seed the fused Q|K|V projection.
    std::vector<std::vector<float>> SelfQKVB;

    /// -- pre-packed decoder weights ----------------------------------------
    /// Every persistent B operand of the batched float decode,
    /// pre-packed into the tile-major layout the microkernels consume
    /// (nn::PackedMat), so the per-tick GEMMs skip operand packing
    /// entirely. Living INSIDE the decode constants pins packs and
    /// constants to one weight version — a decode session can never mix
    /// fresh packs with stale constants or vice versa.
    /// Per layer: column-concatenated Wq|Wk|Wv [D, 3D], so one GEMM
    /// projects Q, K and V.
    std::vector<PackedMat> SelfQKVWP;
    std::vector<PackedMat> SelfWoP;   ///< Per layer [D, D].
    std::vector<PackedMat> CrossWqP;  ///< Per layer [D, D].
    std::vector<PackedMat> CrossWoP;  ///< Per layer [D, D].
    std::vector<PackedMat> FF1P;      ///< Per layer [D, FF].
    std::vector<PackedMat> FF2P;      ///< Per layer [FF, D].
    /// TokEmb as the [D, Vocab] operand of the logits GEMM.
    PackedMat EmbTP;

    /// Heap bytes held by the pre-packed operands (slade_pack_bytes).
    size_t packedBytes() const {
      size_t B = EmbTP.bytes();
      for (const std::vector<PackedMat> *Vec :
           {&SelfQKVWP, &SelfWoP, &CrossWqP, &CrossWoP, &FF1P, &FF2P})
        for (const PackedMat &P : *Vec)
          B += P.bytes();
      return B;
    }
  };

  /// Pre-packed copies of every persistent weight operand consumed
  /// OUTSIDE the decoder tick: the encoder stack and the
  /// per-decoder-layer cross K/V projections (finishEncoderCache).
  /// Weight-versioned and cached exactly like DecodeConstants.
  struct PackedWeights {
    uint64_t Version = 0;
    struct EncLayerPack {
      PackedMat Wq, Wk, Wv, Wo; ///< Self-attention projections [D, D].
      PackedMat W1, W2;         ///< FFN [D, FF] and [FF, D].
    };
    std::vector<EncLayerPack> Enc; ///< Per encoder layer.
    /// Per decoder layer: the cross-attention K/V projections applied to
    /// the encoder output when an EncoderCache is built.
    std::vector<PackedMat> CrossWk, CrossWv; ///< [D, D] each.

    size_t bytes() const {
      size_t B = 0;
      for (const EncLayerPack &L : Enc)
        B += L.Wq.bytes() + L.Wk.bytes() + L.Wv.bytes() + L.Wo.bytes() +
             L.W1.bytes() + L.W2.bytes();
      for (const PackedMat &P : CrossWk)
        B += P.bytes();
      for (const PackedMat &P : CrossWv)
        B += P.bytes();
      return B;
    }
  };

  /// Immutable per-source encoder state: the encoder output, the
  /// per-decoder-layer cross-attention K/V, and a reference to the shared
  /// per-model decode constants. Computed once per source and shared (via
  /// shared_ptr) by every beam decoding that source.
  struct EncoderCache {
    std::vector<float> EncOut;              ///< [Tsrc, D].
    int TSrc = 0;
    /// Per layer: cross-attention keys transposed per head,
    /// [H][Dh][crossKStride(TSrc)] (so [D][TPad]), zero past TSrc. The
    /// decoder scores 8 source positions per vector from this layout.
    std::vector<std::vector<float>> CrossKT;
    std::vector<std::vector<float>> CrossV; ///< Per layer, [Tsrc, D].
    /// Shared model-level constants (weight-versioned, not per-source).
    std::shared_ptr<const DecodeConstants> Consts;

    /// Heap bytes held by this cache entry (the shared Consts are NOT
    /// counted: one copy serves every entry). Used by the EncoderLRU's
    /// byte accounting.
    size_t bytes() const {
      size_t B = sizeof(*this) + EncOut.capacity() * sizeof(float);
      for (const std::vector<float> &K : CrossKT)
        B += K.capacity() * sizeof(float);
      for (const std::vector<float> &V : CrossV)
        B += V.capacity() * sizeof(float);
      return B;
    }
  };

  /// One row descriptor of the shared batched-decoder forward pass (an
  /// InferRuntime internal; declared here so the reusable descriptor
  /// array can live in BatchDecodeState's scratch). A decode step lowers
  /// to a list of these: a token embedded at \c Pos, K/V written at
  /// (\c Seg, time \c WriteT, slot \c WriteSlot), self-attention over
  /// \c Slots[0..WriteT], cross attention over \c Enc.
  struct DecodeRowPlan {
    int Token = 0, Pos = 0, WriteT = 0;
    uint16_t Seg = 0, WriteSlot = 0;
    const EncoderCache *Enc = nullptr;
    const uint16_t *Slots = nullptr;
  };

  /// Monotonic version of the weights. Anything that mutates parameters
  /// in place (an optimizer step, an in-place weight load) must bump it so
  /// cached decode constants are invalidated instead of silently decoding
  /// with stale parameters. AdamW bumps it automatically when constructed
  /// with a model pointer; serving and training must not overlap (weights
  /// mutate in place), so no synchronization is needed on the counter.
  uint64_t weightVersion() const { return WeightVersion; }
  /// THE single invalidation path for every weight-version-keyed cache
  /// (decode constants AND pre-packed weights): bumps the version and
  /// drops both cached snapshots, so a forward pass after an in-place
  /// weight mutation can never read stale packs. Out of line so new
  /// caches have one place to hook into.
  void bumpWeightVersion();

  /// Returns the shared decode constants for the current weight version,
  /// rebuilding them only when the version changed since the last call.
  /// Thread-safe: concurrent decode sessions share one copy.
  std::shared_ptr<const DecodeConstants> decodeConstants() const;

  /// Returns the shared pre-packed encoder/cross weights for the current
  /// weight version (same caching discipline as decodeConstants).
  std::shared_ptr<const PackedWeights> packedWeights() const;

  /// Telemetry snapshot of the weight-versioned caches (slade_pack_*).
  struct PackCacheStats {
    uint64_t ConstBuilds = 0; ///< DecodeConstants rebuilds, lifetime.
    uint64_t PackBuilds = 0;  ///< PackedWeights rebuilds, lifetime.
    size_t PackedBytes = 0;   ///< Current packed bytes, both caches.
  };
  PackCacheStats packCacheStats() const;

  struct DecodeState {
    std::vector<float> EncOut;             ///< [Tsrc, D].
    int TSrc = 0;
    std::vector<std::vector<float>> SelfK; ///< Per decoder layer, growing.
    std::vector<std::vector<float>> SelfV;
    std::vector<std::vector<float>> CrossKT; ///< EncoderCache::CrossKT.
    std::vector<std::vector<float>> CrossV;  ///< Per layer, [Tsrc, D].
    int Len = 0; ///< Decoded positions so far.
  };

  /// Runs the encoder and prepares the shared cross-attention caches.
  /// Executes on the graph-free InferRuntime (raw buffers, pooled
  /// EncodeScratch arena, no tape/per-node allocation); bit-identical to
  /// encodeSourceGraph. \p TP, when given, splits the encoder's row
  /// ranges across its workers (nn/Parallel.h) — results stay
  /// byte-identical at any thread count. Throws std::out_of_range when a
  /// source id lies outside [0, Vocab).
  std::shared_ptr<const EncoderCache>
  encodeSource(const std::vector<int> &Src,
               ParallelFor *TP = nullptr) const;

  /// Reference encoder path through the autograd Graph (inference mode).
  /// Retained as the bit-exactness oracle for the runtime fast path and
  /// as the benchmark baseline; serving traffic never takes it.
  std::shared_ptr<const EncoderCache>
  encodeSourceGraph(const std::vector<int> &Src) const;

  /// Runs the encoder and prepares cross-attention caches (sequential
  /// reference path; copies the shared caches into the state).
  DecodeState startDecode(const std::vector<int> &Src) const;
  /// Feeds one token, returns the next-token logits [Vocab].
  std::vector<float> stepDecode(DecodeState &St, int Token) const;

  /// Batched decode over B parallel hypotheses. Each row carries its own
  /// encoder cache, so one state can fuse the beams of MANY sources into
  /// one batch (the serve engine's cross-request batching): the
  /// per-step GEMMs run over ALL rows, amortizing weight-matrix traffic
  /// across requests, while the decode constants are the shared per-model
  /// copy. Encoder output and cross-K/V are never copied per beam.
  ///
  /// Self-K/V layout: one SEGMENT per source, [Cap, KMax, D] time-major
  /// within the segment. Keeping each source's K/V compact (instead of a
  /// batch-wide [Cap, BMax, D] stride) preserves single-source attention
  /// locality no matter how many requests are fused — with KMax = 1 the
  /// segment is fully dense. Rows address their history through a
  /// per-beam ancestry table of segment-local slots, so survivor
  /// selection never moves cached K/V data — it only gathers the (tiny)
  /// index rows. Rows of one source must stay CONTIGUOUS in row order
  /// (nn/BeamCore.h's BeamBatch guarantees this).
  ///
  /// Decode positions are PER SEGMENT (SegLen), not batch-global: every
  /// source carries its own clock, so sources can join and leave the
  /// batch mid-flight (continuous batching). A retired source's segment
  /// can be recycled for a newly admitted source — admitStreamRow resets
  /// its SegLen and the new rows overwrite the stale K/V in place.
  struct BatchDecodeState {
    /// Per-row encoder cache (rows of one source share the pointer).
    std::vector<std::shared_ptr<const EncoderCache>> RowEnc;
    /// Per-row source index: selects the row's self-K/V segment.
    std::vector<uint16_t> RowSource;
    std::shared_ptr<const DecodeConstants> Consts;
    int B = 0;    ///< Active beams (rows).
    int BMax = 0; ///< Beam rows preallocated.
    int KMax = 0; ///< Beam rows preallocated per source (segment width).
    int Cap = 0;  ///< Positions preallocated per beam.
    int SegCount = 0; ///< Self-K/V segments allocated (max live sources).
    /// Per segment: positions decoded so far — each source's own decode
    /// clock. Reset to 0 when the segment is recycled for a new source.
    std::vector<int> SegLen;
    int Len = 0;  ///< Max of SegLen over live segments (informational).
    int MaxTSrc = 0; ///< Longest source among the rows (scratch sizing).
    std::vector<std::vector<float>> SelfK; ///< Per layer [Cap*BMax*D].
    std::vector<std::vector<float>> SelfV;
    /// Anc[b*Cap + t]: the segment-local slot holding beam b's K/V row
    /// for position t.
    std::vector<uint16_t> Anc;
    // Reused step scratch (sized at start; Scores grows in the forward).
    std::vector<float> X, Norm, QKV, AttnOut, Proj, FF1, Scores;
    std::vector<uint16_t> AncScratch, RowSourceScratch;
    std::vector<std::shared_ptr<const EncoderCache>> RowEncScratch;
    std::vector<DecodeRowPlan> FwdRows; ///< Shared-forward descriptors.
    /// First FwdRows index of each cross-attention group (adjacent rows
    /// sharing an EncoderCache), then FwdRows.size().
    std::vector<int> CrossGroups;
    /// Optional intra-tick worker pool (nn/Parallel.h): when set, the
    /// batched forward splits its row/tile ranges across the pool's
    /// threads. Not owned; null (the default) = sequential. Per-row
    /// results are byte-identical either way, so the pool can be
    /// attached or detached between steps freely.
    ParallelFor *TP = nullptr;
  };

  /// Allocates a state with \p MaxSources self-K/V segments of
  /// \p BeamsPerSource rows over \p MaxSteps positions each, but NO live
  /// rows — sources are bound later, one at a time, via admitStreamRow,
  /// and may join/leave at any step (nn/BeamCore.h's BeamBatch drives
  /// it). A one-source search is startDecodeStream(1, K, Steps) plus
  /// admitStreamRow(St, 0, Enc); reorderBeams then grows the source's BOS
  /// row up to K beams.
  BatchDecodeState startDecodeStream(int MaxSources, int BeamsPerSource,
                                     int MaxSteps) const;
  /// Admits a new source into segment \p Seg of a streaming state: binds
  /// \p Enc, resets the segment's decode clock, and appends one row (the
  /// source's BOS beam) at row index B. The segment must have no live
  /// rows — retired sources' segments are recycled this way. Returns the
  /// new row's index, or -1 when \p Enc was built from a different
  /// weight version than the live rows' constants (the caller must
  /// defer the admission until the batch drains; an idle state adopts
  /// the incoming version). The next stepDecodeBatch should feed BosId
  /// on the new row.
  int admitStreamRow(BatchDecodeState &St, int Seg,
                     std::shared_ptr<const EncoderCache> Enc) const;
  /// Feeds one token per active beam (Tokens.size() == B), returns logits
  /// [B, Vocab] row-major. Per-row results are bit-identical regardless
  /// of which other rows share the batch (the GEMM kernels accumulate
  /// each row in a fixed K-order) and regardless of the other rows'
  /// decode positions, which is what makes cross-request batching —
  /// batch-scoped or continuous — byte-deterministic.
  std::vector<float> stepDecodeBatch(BatchDecodeState &St,
                                     const std::vector<int> &Tokens) const;
  /// Survivor selection: beam row b of the new state is old row
  /// \p SrcIdx[b]. An index-gather over self-cache rows (the shared
  /// encoder/cross caches are untouched); B may shrink (to zero: every
  /// source retired) or grow up to BMax.
  void reorderBeams(BatchDecodeState &St,
                    const std::vector<int> &SrcIdx) const;

  /// Early retirement (deadline expiry / cancellation): drops EVERY live
  /// row of segment \p Seg in place, releasing the rows' encoder
  /// bindings, and leaves the segment ready for recycling by the next
  /// admitStreamRow. Equivalent to a reorderBeams over the surviving
  /// rows, so the remaining sources' results stay bit-identical.
  void abortStreamSegment(BatchDecodeState &St, int Seg) const;

  Status save(const std::string &Path) const;
  static Expected<Transformer> load(const std::string &Path);

  /// Total parameter count (for the "small language model" bookkeeping).
  size_t parameterCount();

private:
  /// The graph-free inference runtime executes the encoder and the
  /// batched decoder directly on the private weight matrices.
  friend class InferRuntime;

  TransformerConfig Cfg;

  struct LN {
    Mat Gamma, Beta;
  };
  struct Attn {
    Mat Wq, Bq, Wk, Bk, Wv, Bv, Wo, Bo;
  };
  struct EncLayer {
    LN LN1;
    Attn Self;
    LN LN2;
    Mat W1, B1, W2, B2;
  };
  struct DecLayer {
    LN LN1;
    Attn Self;
    LN LN2;
    Attn Cross;
    LN LN3;
    Mat W1, B1, W2, B2;
  };

  Mat TokEmb, EncPos, DecPos;
  std::vector<EncLayer> Enc;
  std::vector<DecLayer> Dec;
  LN EncFinal, DecFinal;
  mutable uint64_t DropRng = 0x5eed;

  uint64_t WeightVersion = 1;
  /// Model-level cache slot for a weight-versioned derived snapshot
  /// (decode constants, pre-packed weights). Boxed behind a shared_ptr
  /// so the Transformer stays movable (the box holds the mutex) and
  /// sessions holding the old snapshot stay valid after an
  /// invalidation. \c Cur is accessed only through the shared_ptr
  /// atomic free functions: steady-state reads (N decode shards
  /// admitting concurrently) are lock-free; the mutex serializes
  /// version-miss rebuilds only. Copies and moves get a FRESH box: two
  /// models must never alias one cache slot, or same-version-
  /// different-weights collisions could decode with the other model's
  /// snapshot.
  template <typename T> struct VersionedCache {
    std::mutex Mu;
    std::shared_ptr<const T> Cur;
    std::atomic<uint64_t> Builds{0}; ///< Lifetime rebuild count.
  };
  template <typename T> struct VersionedCacheHandle {
    std::shared_ptr<VersionedCache<T>> Box =
        std::make_shared<VersionedCache<T>>();
    VersionedCacheHandle() = default;
    VersionedCacheHandle(const VersionedCacheHandle &)
        : VersionedCacheHandle() {}
    VersionedCacheHandle(VersionedCacheHandle &&) noexcept
        : VersionedCacheHandle() {}
    VersionedCacheHandle &operator=(const VersionedCacheHandle &) {
      Box = std::make_shared<VersionedCache<T>>(); // Changed owner.
      return *this;
    }
    VersionedCacheHandle &operator=(VersionedCacheHandle &&) noexcept {
      Box = std::make_shared<VersionedCache<T>>();
      return *this;
    }
  };
  VersionedCacheHandle<DecodeConstants> ConstCache;
  VersionedCacheHandle<PackedWeights> PackCache;

  Mat *attention(Graph &G, Mat *XQ, Mat *XKV, Attn &P, bool Causal,
                 bool Train);
  Mat *encode(Graph &G, const std::vector<int> &Src, bool Train);
  Mat *decode(Graph &G, Mat *EncOut, const std::vector<int> &In,
              bool Train);

  // Row helpers for the sequential (reference) decode path. The batched
  // hot paths live in InferRuntime.
  void layerNormRow(const float *X, const LN &P, float *Out) const;
  void linearRow(const float *X, const Mat &W, const Mat &B,
                 float *Out) const;
};

/// Adam with decoupled weight decay (§V-C) and inverse-sqrt warmup.
class AdamW {
public:
  struct Config {
    float LR = 3e-3f;
    float Beta1 = 0.9f;
    float Beta2 = 0.98f;
    float Eps = 1e-9f;
    float WeightDecay = 0.01f;
    int WarmupSteps = 200;
    float ClipNorm = 1.0f;
  };

  /// \p Model, when given, is the transformer whose parameters are being
  /// updated: each step() bumps its weight version so cached decode
  /// constants are invalidated automatically.
  AdamW(std::vector<ParamRef> Params, const Config &Cfg,
        Transformer *Model = nullptr);

  /// Applies one update from the accumulated gradients, then zeroes them.
  void step();
  int stepCount() const { return Steps; }

private:
  std::vector<ParamRef> Params;
  Config Cfg;
  Transformer *Model = nullptr; ///< Weight-version bump target (optional).
  std::vector<std::vector<float>> M1, M2;
  int Steps = 0;
};

} // namespace nn
} // namespace slade

#endif // SLADE_NN_TRANSFORMER_H
