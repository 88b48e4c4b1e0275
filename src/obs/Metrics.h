//===- Metrics.h - unified metrics registry (Prometheus exposition) -*- C++ -*-===//
///
/// \file
/// The serving stack's ONE metrics surface: counters and fixed-bucket
/// histograms registered by name in a Registry, plus collector
/// callbacks that emit counters and gauges, rendered as Prometheus text
/// exposition. Three design rules, lifted from the engine's existing
/// accounting discipline:
///
///  1. SINGLE-WRITER CELLS. A Counter/Histogram is a row of
///     cache-line-padded cells; each cell has exactly one writer (shard
///     thread I writes cell I) using a relaxed load+store pair — no RMW
///     on the hot tick, TSan-clean by construction — and a scrape merges
///     the cells. This is serve/Engine.cpp's `bump()` pattern promoted
///     to a type.
///
///  2. EXACT PERCENTILES STAY EXACT. A Histogram carries both the fixed
///     cumulative buckets Prometheus wants AND a bounded ring of raw
///     samples (the engine's 65536-sample window, absorbed here) so
///     `stats()` reports the same nearest-rank p50/p95/p99 the JSONL
///     fields always reported. Buckets approximate; the window does not.
///
///  3. COHERENT GROUPS GO THROUGH COLLECTORS. Counters whose CROSS-metric
///     invariants matter mid-flight (Completed == sum of typed outcomes)
///     cannot be scraped one atomic at a time; their owner registers a
///     collector callback that takes its own lock, snapshots the whole
///     group at once, and emits the family into the scrape.
///
/// `sampleStats()` is the ONE percentile implementation (nearest-rank +
/// mean/max); serve::EngineMetrics carries its result type as is.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_OBS_METRICS_H
#define SLADE_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace slade {
namespace obs {

/// Latency-style distribution summary over raw samples, in the caller's
/// unit (the engine uses seconds).
struct SampleStats {
  double P50 = 0, P95 = 0, P99 = 0, Mean = 0, Max = 0;
  uint64_t Count = 0;
};

/// Nearest-rank percentile over ascending-sorted samples: the rank for
/// quantile P is floor(P * N), clamped to the last sample.
double percentileOfSorted(const std::vector<double> &Sorted, double P);

/// Nearest-rank p50/p95/p99 + mean/max over raw samples. THE percentile
/// implementation: every consumer (histogram snapshots, and through them
/// EngineMetrics and slade-serve's summary) routes through here so
/// conventions cannot diverge.
SampleStats sampleStats(std::vector<double> Samples);

namespace detail {
/// One cache-line-padded accumulator cell. Exactly one writer; readers
/// load relaxed. The load+store pair (not fetch_add) keeps the writer's
/// hot path a plain move on x86 while staying race-free under the
/// single-writer contract.
template <typename T> struct alignas(64) Cell {
  std::atomic<T> V{};
  void bump(T Delta) {
    V.store(V.load(std::memory_order_relaxed) + Delta,
            std::memory_order_relaxed);
  }
  T get() const { return V.load(std::memory_order_relaxed); }
};
} // namespace detail

/// Monotonic counter, merged over its single-writer cells on read.
/// Integer counts and seconds totals get separate value types so counts
/// never round (CellsF below for the latter).
class Counter {
public:
  /// Single-writer bump of cell \p CellIdx (the owning shard/thread).
  void add(int CellIdx, uint64_t Delta = 1) {
    Cells[static_cast<size_t>(CellIdx)].bump(Delta);
  }
  uint64_t value() const;
  uint64_t cellValue(int CellIdx) const {
    return Cells[static_cast<size_t>(CellIdx)].get();
  }
  int cells() const { return static_cast<int>(NCells); }

private:
  friend class Registry;
  Counter(std::string Name, std::string Help, size_t N);
  std::string Name, Help;
  size_t NCells;
  std::unique_ptr<detail::Cell<uint64_t>[]> Cells;
};

/// Monotonic floating-point counter (seconds totals), same cell
/// discipline as Counter.
class FloatCounter {
public:
  void add(int CellIdx, double Delta) {
    Cells[static_cast<size_t>(CellIdx)].bump(Delta);
  }
  double value() const;
  double cellValue(int CellIdx) const {
    return Cells[static_cast<size_t>(CellIdx)].get();
  }
  int cells() const { return static_cast<int>(NCells); }

private:
  friend class Registry;
  FloatCounter(std::string Name, std::string Help, size_t N);
  std::string Name, Help;
  size_t NCells;
  std::unique_ptr<detail::Cell<double>[]> Cells;
};

/// Fixed-bucket histogram + bounded exact-sample window.
///
/// The bucket path is the scrape surface: per-cell single-writer counts
/// against ascending upper bounds (an implicit +Inf bucket closes the
/// family), merged cumulatively at render time exactly as Prometheus
/// expects. The window path preserves the repo's reporting contract:
/// a bounded ring of raw samples (oldest overwritten once full) from
/// which stats() computes EXACT nearest-rank percentiles: sampleStats()
/// over the window, so the engine's metrics() and slade-serve's summary
/// report the same values a caller computes from the raw samples. The
/// window is mutex-guarded (observations are request-rate, never
/// tick-rate); the bucket cells are wait-free.
class Histogram {
public:
  void observe(int CellIdx, double V);
  uint64_t count() const;
  double sum() const;
  /// Merged per-bound cumulative counts; index i pairs Bounds[i], and
  /// one final entry carries the +Inf total.
  std::vector<uint64_t> cumulativeCounts() const;
  const std::vector<double> &bounds() const { return Bounds; }
  /// Exact nearest-rank stats over the bounded sample window.
  SampleStats stats() const;

  /// Default latency bucket bounds, seconds: 1ms..64s powers of two.
  static std::vector<double> defaultLatencyBounds();

private:
  friend class Registry;
  Histogram(std::string Name, std::string Help, std::vector<double> Bnds,
            size_t N, size_t WindowCap);
  std::string Name, Help;
  std::vector<double> Bounds; ///< Ascending upper bounds, +Inf implicit.
  size_t NCells;
  size_t Stride; ///< Bounds.size() + 1 slots per cell (+Inf last).
  std::unique_ptr<detail::Cell<uint64_t>[]> BucketCells;
  std::unique_ptr<detail::Cell<double>[]> SumCells;
  std::unique_ptr<detail::Cell<uint64_t>[]> CountCells;
  size_t WindowCap;
  mutable std::mutex WindowMu;
  std::vector<double> Window;
  size_t WindowCursor = 0;
};

/// A collector's emission surface: one call per metric family, rendered
/// in registration order after the direct instruments.
class MetricSink {
public:
  virtual ~MetricSink() = default;
  /// \p Labels is the raw inside-braces text (e.g. `status="ok"`), empty
  /// for none.
  virtual void counter(const std::string &Name, const std::string &Help,
                       const std::string &Labels, double V) = 0;
  virtual void gauge(const std::string &Name, const std::string &Help,
                     const std::string &Labels, double V) = 0;
};

/// The registry: instruments registered by name plus collector callbacks
/// for coherent multi-metric groups. Registration is idempotent: the
/// same name and cell count return the same instrument. A registration
/// with a DIFFERENT cell count (say, the next engine on this registry
/// runs more shards) gets a fresh instrument, which the exposition
/// renders in the old one's place from then on; the old one is retired,
/// not freed, so a writer still holding it stays valid.
/// renderPrometheus() writes the full text exposition (HELP/TYPE
/// headers, histogram _bucket/_sum/_count with le="+Inf", trailing
/// newline) that tools/check-prom.py lints in CI.
class Registry {
public:
  Registry();
  ~Registry();
  Registry(const Registry &) = delete;
  Registry &operator=(const Registry &) = delete;

  /// \p Cells is the writer count (one per shard/thread); instruments
  /// are never resized after creation, only replaced (see above).
  Counter &counter(const std::string &Name, const std::string &Help,
                   int Cells = 1);
  FloatCounter &floatCounter(const std::string &Name,
                             const std::string &Help, int Cells = 1);
  Histogram &histogram(const std::string &Name, const std::string &Help,
                       std::vector<double> Bounds, int Cells = 1,
                       size_t WindowCap = 1 << 16);

  /// Registers a coherent-group collector under \p Key and returns a
  /// token for removeCollector (owners MUST remove themselves before
  /// dying). A collector added under a Key already registered replaces
  /// the earlier one in its render slot; the replaced token's
  /// removeCollector is then a no-op.
  uint64_t addCollector(const std::string &Key,
                        std::function<void(MetricSink &)> Fn);
  void removeCollector(uint64_t Token);

  /// Prometheus text exposition of every instrument + collector.
  void renderPrometheus(std::ostream &OS) const;
  /// Convenience: render to a file ("-" = stdout). False on IO failure.
  bool renderPrometheusFile(const std::string &Path) const;

private:
  enum Kind { K_Counter, K_FloatCounter, K_Histogram };
  struct Entry;
  /// The entry registered as \p Name, replaced or appended as the class
  /// comment says; a new entry holds no instrument yet. Caller holds Mu.
  Entry &entry(const std::string &Name, Kind K, size_t Cells);
  mutable std::mutex Mu; ///< Registration + scrape; never on a hot path.
  std::vector<std::unique_ptr<Entry>> Entries;
  std::vector<std::unique_ptr<Entry>> Retired; ///< Replaced, still held.
  struct Collector {
    uint64_t Token;
    std::string Key;
    std::function<void(MetricSink &)> Fn;
  };
  std::vector<Collector> Collectors;
  uint64_t NextToken = 1;
};

} // namespace obs
} // namespace slade

#endif // SLADE_OBS_METRICS_H
