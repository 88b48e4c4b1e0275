//===- SourceLRU.h - the LRU policy of the per-source caches ----*- C++ -*-===//
///
/// \file
/// One LRU policy for both per-source caches: nn::EncoderLRU (encoder
/// outputs) and nn::DecodeLRU (finished beam results). An entry is keyed
/// by the tokenized source, the model's weight version and a per-cache
/// Tag (DecodeLRU's is the beam configuration), and holds one shared_ptr
/// to an immutable value. A hit returns the very object put() stored, so
/// every hit on a key shares it and nothing is copied under the lock.
///
/// Lookup hashes the source (FNV-1a over the token ids) and compares the
/// stored token vector, so a hash collision never matches. Entries from
/// an older weight version never match and age out.
///
/// Eviction is bounded two ways: by entry count (Capacity) and, when a
/// ByteBudget is set, by the heap bytes the entries hold (the entry
/// record, the stored key, and the value's bytes as put() reports them).
/// Count bound first, then budget; the newest entry always survives, so
/// one oversized value degrades to a cache of one instead of thrashing.
///
/// Thread-safe: every operation is one short critical section on one
/// mutex. Callers compute values outside it, so two callers that miss on
/// the same key may both compute; put() keeps the first value and
/// returns it to both.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_SOURCELRU_H
#define SLADE_NN_SOURCELRU_H

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace slade {
namespace nn {

/// The tag of a cache keyed by source and weight version alone.
struct NoTag {
  bool operator==(const NoTag &) const { return true; }
};

template <typename T, typename Tag = NoTag> class SourceLRU {
public:
  using Value = std::shared_ptr<const T>;

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    /// Wall-clock seconds the callers spent computing the values they
    /// put() after a miss (EncoderLRU: the cold-encode cost serving
    /// metrics report per run).
    double MissSeconds = 0;
  };

  /// \p ByteBudget caps the heap bytes held by the entries (0 = only the
  /// entry-count bound applies).
  explicit SourceLRU(size_t Capacity, size_t ByteBudget = 0)
      : Cap(Capacity ? Capacity : 1), Budget(ByteBudget) {}

  /// The value stored under the key, or nullptr on a miss. A hit makes
  /// the entry the most recently used.
  Value get(const std::vector<int> &Src, uint64_t Version, const Tag &K) {
    const uint64_t Hash = hashTokens(Src);
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = find(Hash, Src, Version, K);
    if (It == Order.end()) {
      ++St.Misses;
      return nullptr;
    }
    ++St.Hits;
    Order.splice(Order.begin(), Order, It);
    return It->V;
  }

  /// Stores \p V, which holds \p ValueBytes heap bytes, under the key and
  /// returns it. A key already resident (a racing caller stored it
  /// first) keeps its value, which becomes the most recently used and is
  /// returned instead: the values are identical by determinism, and the
  /// key's hits keep sharing one object. \p MissSeconds, the time the
  /// caller spent computing \p V, adds to Stats::MissSeconds.
  Value put(const std::vector<int> &Src, uint64_t Version, const Tag &K,
            Value V, size_t ValueBytes, double MissSeconds = 0) {
    const uint64_t Hash = hashTokens(Src);
    std::lock_guard<std::mutex> Lock(Mu);
    St.MissSeconds += MissSeconds;
    auto It = find(Hash, Src, Version, K);
    if (It != Order.end()) {
      Order.splice(Order.begin(), Order, It);
      return It->V;
    }
    Order.push_front(Entry{Hash, Version, K, Src, std::move(V), 0});
    Entry &E = Order.front();
    // Account the STORED copy of the key (trimmed to size; the caller's
    // vector may carry push_back growth slack).
    E.Bytes = sizeof(Entry) + E.Src.capacity() * sizeof(int) + ValueBytes;
    Bytes += E.Bytes;
    Index.emplace(Hash, Order.begin());
    while (Order.size() > Cap)
      evictOne();
    while (Budget && Bytes > Budget && Order.size() > 1)
      evictOne();
    return E.V;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return St;
  }
  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Order.size();
  }
  size_t capacity() const { return Cap; }
  /// Heap bytes held by the entries now.
  size_t bytesUsed() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Bytes;
  }
  size_t byteBudget() const { return Budget; }
  void clear() {
    std::lock_guard<std::mutex> Lock(Mu);
    Order.clear();
    Index.clear();
    Bytes = 0;
  }

private:
  struct Entry {
    uint64_t Hash = 0;
    uint64_t Version = 0;
    Tag K;
    std::vector<int> Src; ///< Guards against hash collisions.
    Value V;
    size_t Bytes = 0; ///< Accounted on insert (entries are immutable).
  };
  using List = std::list<Entry>;

  /// FNV-1a over the token ids.
  static uint64_t hashTokens(const std::vector<int> &Src) {
    uint64_t H = 1469598103934665603ULL;
    for (int Id : Src) {
      H ^= static_cast<uint64_t>(static_cast<uint32_t>(Id));
      H *= 1099511628211ULL;
    }
    return H;
  }

  /// The entry stored under the key, or Order.end(). Caller holds Mu.
  typename List::iterator find(uint64_t Hash, const std::vector<int> &Src,
                               uint64_t Version, const Tag &K) {
    auto Range = Index.equal_range(Hash);
    for (auto It = Range.first; It != Range.second; ++It) {
      const Entry &E = *It->second;
      if (E.Version == Version && E.K == K && E.Src == Src)
        return It->second;
    }
    return Order.end();
  }

  /// Unlinks the least recently used entry. Caller holds Mu.
  void evictOne() {
    auto Victim = std::prev(Order.end());
    auto Range = Index.equal_range(Victim->Hash);
    for (auto It = Range.first; It != Range.second; ++It)
      if (It->second == Victim) {
        Index.erase(It);
        break;
      }
    Bytes -= Victim->Bytes;
    Order.pop_back();
    ++St.Evictions;
  }

  mutable std::mutex Mu;
  const size_t Cap;
  const size_t Budget;
  size_t Bytes = 0; ///< Sum of Entry::Bytes over the cache.
  List Order;       ///< Front = most recently used.
  std::unordered_multimap<uint64_t, typename List::iterator> Index;
  Stats St;
};

} // namespace nn
} // namespace slade

#endif // SLADE_NN_SOURCELRU_H
