//===- Trace.h - request-lifecycle trace recorder (Chrome trace_event) -*- C++ -*-===//
///
/// \file
/// A lock-free, always-compiled, default-off span recorder for the
/// serving stack. Every instrumentation site costs ONE relaxed atomic
/// load + branch while tracing is off; enabled, an event is a steady-
/// clock read plus a POD store into the calling thread's private ring
/// buffer — tens of nanoseconds, no locks, no allocation after the
/// thread's first event.
///
/// Model:
///  - SPANS are complete events: (kind, id, start ns, duration ns, two
///    kind-specific args). Request-scope spans carry the request's
///    engine Seq as id; shard-scope spans (ticks, spec rounds, oracle
///    masking) carry the shard index.
///  - SAMPLING is per-request and deterministic: request Seq S is traced
///    iff mix64(S ^ Seed) % SampleEvery == 0 (SampleEvery 1 = all).
///    The decision is made ONCE at submit and rides the request, so a
///    sampled request's spans are complete across dispatcher, shard,
///    and verify-worker threads.
///  - BUFFERS are per-thread fixed-size rings registered on first use
///    and owned by the recorder (they outlive their threads). A full
///    ring overwrites its oldest events; dropped counts are reported in
///    the export. Export requires QUIESCENCE (no concurrent recording)
///    — in practice, after Engine::stop().
///
/// Export is Chrome `trace_event` JSON (chrome://tracing, Perfetto):
/// request-scope spans become async b/e pairs keyed by request id (one
/// swim lane per request), shard-scope spans become X events on their
/// recording thread's track.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_OBS_TRACE_H
#define SLADE_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace slade {
namespace obs {

/// Span taxonomy, covering the request lifecycle end to end (see
/// docs/ARCHITECTURE.md "Observability"). Request scope unless noted.
enum class SpanKind : uint8_t {
  Submit,       ///< Instant: submit() accepted the request.
  QueueWait,    ///< submit() -> dispatcher pop (admission queue time).
  Dispatch,     ///< Dispatcher pop -> routed to a shard / completed.
  Encode,       ///< Encoder forward inside dispatch (LRU miss only).
  AdmissionWait,///< Routed -> bound to a decode row (segment wait).
  Decode,       ///< Decode-row admission -> retirement. Arg0 = steps.
  Verify,       ///< Verify-pool span for the whole request.
  VerifyCand,   ///< One candidate. Arg0 = index, Arg1 = attempts.
  VerifyAttempt,///< One core verify attempt. Arg0 = cand, Arg1 = attempt.
  Resolve,      ///< Instant: typed resolution. Arg0 = RequestStatus.
  Tick,         ///< SHARD scope: one fused decode tick. Arg0 = rows.
  OracleMask,   ///< SHARD scope: constraint-mask time within a tick.
  ParallelTile, ///< SHARD scope: intra-tick pool fan-out within a tick.
                ///< Arg0 = pool regions run, Arg1 = tick threads.
  KindCount
};

const char *spanKindName(SpanKind K);

/// One recorded event. POD; 48 bytes.
struct SpanEvent {
  uint64_t StartNs = 0; ///< Monotonic, since the recorder's epoch.
  uint64_t DurNs = 0;   ///< 0 for instants.
  uint64_t Id = 0;      ///< Request Seq, or shard index (shard scope).
  uint64_t Arg0 = 0, Arg1 = 0;
  SpanKind Kind = SpanKind::Submit;
};

/// Returns true for kinds recorded per shard rather than per request.
bool isShardScope(SpanKind K);

class TraceRecorder {
public:
  static constexpr size_t DefaultCapacity = 1 << 14; ///< Events/thread.

  explicit TraceRecorder(size_t CapacityPerThread = DefaultCapacity);
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder &) = delete;
  TraceRecorder &operator=(const TraceRecorder &) = delete;

  /// The process-wide recorder the engine instrumentation emits into.
  static TraceRecorder &global();

  /// Arms recording: every SampleEvery'th request (deterministically
  /// chosen under \p Seed) records its lifecycle; shard-scope events
  /// always record while enabled.
  void enable(uint32_t SampleEvery = 1, uint64_t Seed = 0);
  void disable();
  bool enabled() const {
    return Enabled.load(std::memory_order_relaxed);
  }
  uint32_t sampleEvery() const {
    return SampleN.load(std::memory_order_relaxed);
  }

  /// Deterministic per-request sampling decision (false when disabled).
  bool sampled(uint64_t Seq) const;

  /// Monotonic nanoseconds since this recorder's construction.
  uint64_t nowNs() const;

  /// Records a complete span into the calling thread's ring. The caller
  /// has already made the enabled/sampled decision.
  void record(SpanKind K, uint64_t Id, uint64_t StartNs, uint64_t EndNs,
              uint64_t Arg0 = 0, uint64_t Arg1 = 0);
  /// Records an instant event (DurNs = 0) at now.
  void instant(SpanKind K, uint64_t Id, uint64_t Arg0 = 0,
               uint64_t Arg1 = 0);

  /// Names the calling thread's track in the export ("shard-0", ...).
  void nameThread(const std::string &Name);

  /// Events currently retained (sum over rings; capped per thread).
  size_t eventCount() const;
  /// Events overwritten by ring wraparound, all threads.
  uint64_t droppedCount() const;
  /// Drops every retained event (buffers stay registered). Requires
  /// quiescence, like export.
  void clear();

  /// Visits retained events oldest-first per thread. \p ThreadIdx is
  /// the buffer registration index. Requires quiescence.
  void forEachEvent(
      const std::function<void(const SpanEvent &, uint32_t ThreadIdx)> &Fn)
      const;

  /// Chrome trace_event JSON ({"traceEvents": [...], ...}). Requires
  /// quiescence.
  void writeChromeTrace(std::ostream &OS) const;
  bool writeChromeTraceFile(const std::string &Path) const;

private:
  struct Buffer;
  Buffer &localBuffer();

  const size_t Capacity;
  const uint64_t Epoch; ///< steady_clock ticks at construction.
  const uint64_t RecorderId;
  std::atomic<bool> Enabled{false};
  std::atomic<uint32_t> SampleN{1};
  std::atomic<uint64_t> SampleSeed{0};
  mutable std::mutex BuffersMu; ///< Registration + export; not hot.
  std::vector<std::unique_ptr<Buffer>> Buffers;
};

/// Shorthand for the global recorder.
inline TraceRecorder &trace() { return TraceRecorder::global(); }

/// RAII span: stamps start on construction and records on destruction
/// (or early end()) when \p Emit was true. Instrumentation sites pass
/// `recorder.enabled() && sampled-decision` so the off path stays one
/// load + branch.
class ScopedSpan {
public:
  ScopedSpan(TraceRecorder &R, SpanKind K, uint64_t Id, bool Emit)
      : R(R), Kind(K), Id(Id), Emit(Emit),
        StartNs(Emit ? R.nowNs() : 0) {}
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  void args(uint64_t A0, uint64_t A1 = 0) {
    Arg0 = A0;
    Arg1 = A1;
  }
  void end() {
    if (!Emit)
      return;
    Emit = false;
    R.record(Kind, Id, StartNs, R.nowNs(), Arg0, Arg1);
  }

private:
  TraceRecorder &R;
  SpanKind Kind;
  uint64_t Id;
  bool Emit;
  uint64_t StartNs;
  uint64_t Arg0 = 0, Arg1 = 0;
};

} // namespace obs
} // namespace slade

#endif // SLADE_OBS_TRACE_H
