//===- DecodeLRU.h - decoded-hypotheses cache for repeated requests -*- C++ -*-===//
///
/// \file
/// An LRU cache of finished beam-search results (the k hypotheses a
/// source decodes to) keyed by a hash of the tokenized source, the
/// model's weight version, AND the beam configuration. It sits IN FRONT
/// of decode: a hit skips the entire beam search — every stepDecodeBatch
/// tick, the self-K/V traffic, and the selection bookkeeping — which is
/// the whole decode-bound cost of a repeated request.
///
/// This closes the one serving regime in-flight single-flight cannot:
/// duplicate-heavy streams whose repeats never overlap in time. The
/// engine's single-flight only attaches a request to a source that is
/// live RIGHT NOW; a repeat arriving after the original retired used to
/// re-decode from scratch (a batch front's corpus-wide dedup won that
/// regime by ~10% p95 — bench/README.md). With this cache the
/// streaming engine serves non-overlapping repeats from memory.
///
/// Correctness: beam decode is deterministic, so a cached result is
/// byte-identical to re-decoding. Entries are keyed by weight version
/// (stale entries stop matching after a training step and age out) and
/// by (BeamSize, MaxLen, LengthPenalty) so differently-configured
/// engines sharing one cache can never serve each other's hypotheses.
///
/// Entries are stored prefix-delta compressed: beam survivors diverge
/// late, so the k hypotheses of one result share long prefixes. The
/// top-1 token vector is stored whole and every other hypothesis as its
/// shared-prefix length against top-1 plus the differing suffix —
/// roughly halving bytes/entry on real beams, which doubles what a
/// given ByteBudget holds. A hit reconstructs the full vector (a few
/// hundred token copies against the whole decode it skips).
///
/// Eviction is bounded two ways, exactly like nn::EncoderLRU: by entry
/// count and, when a ByteBudget is set, by the heap bytes the cached
/// hypotheses hold. The most recently inserted entry always survives,
/// so one oversized result degrades to "no caching", never thrashing.
///
/// Thread-safe: N decode shards insert at retirement while the
/// dispatcher looks up concurrently; all operations are a short
/// critical section (shared_ptr copies — hypotheses are never copied).
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_DECODELRU_H
#define SLADE_NN_DECODELRU_H

#include "nn/Beam.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace slade {
namespace nn {

class DecodeLRU {
public:
  /// \p ByteBudget caps the heap bytes held by cached hypotheses (0 =
  /// only the entry-count bound applies).
  explicit DecodeLRU(size_t Capacity = 256, size_t ByteBudget = 0)
      : Cap(Capacity ? Capacity : 1), Budget(ByteBudget) {}

  /// The cached hypotheses for \p Src decoded under weight \p Version
  /// with \p Cfg, or nullptr on a miss. Never decodes on its own — the
  /// caller owns the decode (results land via put()). A hit returns a
  /// freshly reconstructed vector (entries are stored compressed), so
  /// consecutive hits do not share one object.
  std::shared_ptr<const std::vector<Hypothesis>>
  get(const std::vector<int> &Src, uint64_t Version, const BeamConfig &Cfg);

  /// Inserts a finished decode, compressed; the passed pointer is not
  /// retained. A key already present is refreshed (the hypotheses are
  /// identical by determinism — no overwrite needed).
  void put(const std::vector<int> &Src, uint64_t Version,
           const BeamConfig &Cfg,
           std::shared_ptr<const std::vector<Hypothesis>> Hyps);

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Insertions = 0;
    uint64_t Evictions = 0;
  };
  Stats stats() const;

  size_t size() const;
  size_t capacity() const { return Cap; }
  /// Heap bytes currently held by the cached entries (compressed
  /// hypotheses + key token vectors).
  size_t bytesUsed() const;
  size_t byteBudget() const { return Budget; }
  void clear();

private:
  struct Entry {
    uint64_t Hash = 0;
    uint64_t Version = 0;
    int BeamSize = 0;
    int MaxLen = 0;
    float LengthPenalty = 1.0f;
    /// Grammar-constrained decodes produce different hypotheses than
    /// unconstrained ones for the same source — they can never be
    /// served from each other's entries.
    bool Constrained = false;
    std::vector<int> Src; ///< Guards against hash collisions.
    /// One non-top hypothesis, prefix-delta compressed against Top.
    struct Delta {
      int Prefix = 0;          ///< Leading tokens shared with Top.
      std::vector<int> Suffix; ///< Tokens after the shared prefix.
      float Score = 0;
    };
    std::vector<int> Top; ///< Hypothesis 0's tokens, stored whole.
    float TopScore = 0;
    std::vector<Delta> Rest; ///< Hypotheses 1..k-1.
    bool Empty = true; ///< Result had no hypotheses (still cached).
    size_t Bytes = 0; ///< Accounted on insert (entries are immutable).
  };

  bool matches(const Entry &E, uint64_t Hash, uint64_t Version,
               const BeamConfig &Cfg, const std::vector<int> &Src) const;
  /// Unlinks the LRU tail entry. Caller holds the lock.
  void evictOne();

  mutable std::mutex Mu;
  size_t Cap;
  size_t Budget;
  size_t Bytes = 0; ///< Sum of Entry::Bytes over the cache.
  std::list<Entry> Order; ///< Front = most recently used.
  std::unordered_multimap<uint64_t, std::list<Entry>::iterator> Index;
  Stats St;
};

} // namespace nn
} // namespace slade

#endif // SLADE_NN_DECODELRU_H
