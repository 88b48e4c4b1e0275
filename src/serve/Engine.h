//===- Engine.h - sharded streaming serve engine (continuous batching) -*- C++ -*-===//
///
/// \file
/// The long-lived serving subsystem: producers submit DecompileRequests
/// at ANY time; N decode shards — each a long-lived thread owning its
/// own nn::beamcore::BeamBatch (decode state, recycled self-K/V
/// segments, scratch) — run one BeamBatch step per tick over their live
/// rows with NO cross-shard synchronization on the hot tick. A
/// dispatcher thread drains the shared bounded AdmissionQueue and routes
/// each request:
///
///   submit() ──▶ AdmissionQueue (bounded, earliest-deadline-first;
///                full queue = backpressure, or typed QueueFull
///                rejection in load-shedding mode)
///                     │
///                     ▼ dispatcher (EDF order; expired/cancelled work
///                       is shed HERE, before any encode)
///        ┌─ decoded-hypotheses LRU hit? ──▶ complete (decode skipped)
///        ├─ open flight of this source? ──▶ join its clients (single-
///        │  (flight table, any shard)         flight; no row, no message)
///        └─ place on least-loaded shard (blocks when all shards full;
///           a retirement on any shard backfills from the queue),
///           encode, open a flight for the source
///                     │
///                     ▼
///   shard loops:  [rows][rows] ... one BeamBatch step per tick each;
///                 finished sources retire mid-flight, results feed the
///                 decode LRU, then the flight closes and every client
///                 it holds completes; freed segments recycle for the
///                 next admission. A row whose every client cancelled or
///                 expired is ABORTED mid-decode (its flight closed in
///                 the same step) and its segment recycled immediately.
///                     │
///                     ▼
///   verify pool:  compile + IO-test candidates in beam order — with
///                 per-candidate wall-clock timeouts, bounded retry for
///                 transient faults, and full exception containment
///                     │
///                     ▼
///   future / callback completes (RequestResult with a typed
///   RequestStatus — every submitted request resolves exactly once)
///
/// Determinism contract: per-request OK outputs are byte-identical to a
/// solo nn::beamSearch on that request's source AT EVERY SHARD COUNT —
/// both run the same driver (nn/BeamCore.h's BeamBatch; a solo search
/// is a one-source batch), per-row step results are independent of
/// which other rows share a shard's batch AND of their decode positions
/// (each source carries its own clock; see BatchDecodeState::SegLen),
/// and a decode-LRU hit returns a result that deterministic decode
/// already produced. Arrival order, placement, row recycling, and row
/// ABORTS cannot change any other request's result, only its latency.
///
/// In-flight dedup has one owner, the engine's flight table: a source's
/// token bytes map to its flight, the clients one decode serves (oldest
/// first; the front one is the main request) plus Admitted / Closed
/// flags, all under the flight's own mutex. The dispatcher appends a
/// duplicate to any flight not Closed; the owning shard sets Closed and
/// takes the clients in one critical section when the decode retires,
/// aborts or is force-shed, so an attach can never miss its decode. A
/// duplicate that finds its flight closed or gone is placed like any
/// fresh source.
///
/// Failure domains (docs/ARCHITECTURE.md "failure domains & request
/// lifecycle"): a fault is contained to the REQUEST it strikes — an
/// encode throw, a verify throw/hang/timeout, a cancellation, or an
/// expired deadline resolves that request with a typed status and never
/// takes down the dispatcher, a shard, or the verify pool.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_SERVE_ENGINE_H
#define SLADE_SERVE_ENGINE_H

#include "obs/Metrics.h"
#include "serve/AdmissionQueue.h"
#include "serve/FaultInjector.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace slade {
namespace serve {

struct EngineOptions {
  /// Paper: k = 5. A BeamSize or MaxLen below 1 decodes nothing: every
  /// request resolves Ok with no hypotheses (nn::beamSearch likewise).
  int BeamSize = 5;
  int MaxLen = 220;
  bool UseTypeInference = true;
  /// Worker threads for the candidate IO-verification pool (0 =
  /// hardware concurrency). The pool is created lazily on the first
  /// verified request.
  int VerifyThreads = 0;
  /// Decode-batch segments PER SHARD: the max sources decoding
  /// concurrently in one shard's fused batch (live rows per shard <=
  /// MaxLiveSources * BeamSize). 1 = no cross-request fusion within a
  /// shard (sources still stream through it, one at a time); values
  /// below 1 count as 1.
  int MaxLiveSources = 4;
  /// Decode shards: independent decode loops, each with its own
  /// long-lived thread, BatchDecodeState, recycled self-K/V segments,
  /// and scratch arenas. Requests place onto the least-loaded shard;
  /// identical live sources single-flight across ALL shards. 0 = one
  /// shard per hardware thread (capped — see resolveShardCount).
  int Shards = 1;
  /// Intra-tick worker threads PER SHARD (nn::ParallelFor): each shard
  /// tick fans its GEMM row/tile ranges and attention rows out over a
  /// persistent per-shard pool — and the dispatcher's encoder passes get
  /// a pool of the same width — so a SINGLE request uses multiple cores.
  /// 1 (the default) spawns no pool at all: the sequential code path,
  /// byte-for-byte. Outputs are byte-identical at EVERY value by
  /// construction (only output-row ranges are partitioned, never
  /// reductions); the total worker budget is roughly Shards *
  /// TickThreads, plus the dispatcher's pool when > 1.
  int TickThreads = 1;
  /// Consult (and fill) the decompiler's decoded-hypotheses LRU
  /// (nn::DecodeLRU) in front of decode: a repeat of an already-decoded
  /// source — even one that never overlaps the original in flight —
  /// completes without occupying a decode row. Results are identical
  /// either way (decode is deterministic); disable for decode-cost
  /// measurements.
  bool UseDecodeCache = true;
  /// Admission queue bound. When every shard is full AND QueueCapacity
  /// requests are waiting, submit() blocks (BlockOnFull) or sheds.
  size_t QueueCapacity = 256;
  /// Admission policy at a full queue: true (default) = submit() blocks
  /// until space frees — backpressure for trusted batch producers.
  /// false = LOAD SHEDDING: submit() never blocks; at a full queue the
  /// request resolves immediately with RequestStatus::QueueFull, so an
  /// overloaded engine keeps serving what it admitted within their
  /// deadlines instead of queueing unbounded latency.
  bool BlockOnFull = true;
  /// Per-candidate verify wall-clock budget in seconds, spanning the
  /// candidate's retries (0 = unbounded). Cooperative — see
  /// core::VerifyLimits.
  double VerifyCandidateTimeout = 0;
  /// Retries for THROWN (transient) verify attempts; deterministic
  /// compile failures are outcomes and never retry.
  int VerifyMaxRetries = 0;
  /// Backoff before each verify retry, seconds.
  double VerifyRetryBackoff = 0.01;
  /// Deterministic fault injection (serve/FaultInjector.h). Default-off:
  /// all probabilities zero.
  FaultConfig Faults;
  /// Grammar-constrained decoding (--constrain). Off is byte-identical
  /// to the pre-constraint engine; Syntax gives every live beam a
  /// cc::PrefixOracle cursor, masks doomed vocabulary pieces pre-top-k,
  /// and kills fully-masked beams mid-flight (their K/V rows free
  /// exactly like deadline aborts).
  nn::ConstrainMode Constrain = nn::ConstrainMode::Off;
  /// Metrics registry to register this engine's instruments and
  /// coherent-snapshot collector in (obs/Metrics.h). Null = the engine
  /// owns a private registry; either way EngineMetrics/JSONL are thin
  /// views over the SAME storage, and renderPrometheus on the registry
  /// exposes it all as Prometheus text. An external registry must
  /// outlive the engine, and must not be scraped concurrently with the
  /// engine's destruction. It serves ONE live engine at a time (say,
  /// the next engine after a drain() hot swap): a later engine reuses
  /// the instrument families, or replaces a per-shard family whose
  /// shard count differs (see obs::Registry), and its collector replaces
  /// the earlier engine's.
  obs::Registry *Metrics = nullptr;
};

/// The shard count an options value resolves to: the value itself when
/// positive, else one shard per hardware thread, capped at 8 (beyond
/// that, decode-state memory grows faster than tick throughput).
int resolveShardCount(int Requested);

/// Per-shard decode-loop utilization (EngineMetrics::Shards[i] is shard
/// i). A shard with Sources == 0 while others are saturated means
/// dispatch is not spreading load.
struct ShardUtil {
  size_t Sources = 0;    ///< Sources admitted into this shard's rows.
  uint64_t Steps = 0;    ///< Fused decode ticks this shard ran.
  uint64_t StepRows = 0; ///< Beam rows stepped, summed over its ticks.
  /// Time inside this shard's ticks: each BeamBatch step, the forward
  /// plus beam selection (the interval of the `tick` trace span).
  double DecodeSeconds = 0;
};

/// Aggregate engine counters. The engine keeps the completion-side
/// fields (request and outcome counts, live sources, encode / verify /
/// drain time) in ONE record of this type, written under its metrics
/// mutex on the completion paths; metrics() and the Prometheus
/// collector both read one locked copy of it. metrics() then adds the
/// rest from the registry instruments (obs/Metrics.h): Steps / StepRows
/// / DecodeSeconds and the constraint counters are sums over the
/// per-shard cells in Shards, and QueueWait / Latency are the registry
/// histograms' stats() over a bounded window of recently completed OK
/// requests (the last 65536); shed / expired / cancelled resolutions
/// never pollute the served-latency picture.
///
/// Accounting invariant, COHERENT ON EVERY SCRAPE (mid-flight, not just
/// after drain — every outcome counter and Completed are written and
/// snapshotted under one mutex; asserted by the fault soak test and the
/// concurrent-scrape test): Completed == Ok + Shed + Expired +
/// Cancelled + ShutDown + EncodeFailed + VerifyFailed, and Completed <=
/// Submitted. After a drain, Completed == Submitted.
struct EngineMetrics {
  size_t Submitted = 0;
  size_t Completed = 0; ///< Every typed resolution, any status.
  size_t Ok = 0;        ///< Served completions (RequestStatus::Ok).
  uint64_t Steps = 0;    ///< Fused decode ticks, all shards.
  uint64_t StepRows = 0; ///< Beam rows stepped, summed over ticks.
  /// Requests that shared at least one decode tick with another source
  /// (on the same shard).
  size_t FusedJobs = 0;
  /// Requests whose tokenized source matched a source already in flight
  /// (decoding, or waiting for a row) on ANY shard: they attached to its
  /// flight (single-flight) and completed with its hypotheses instead of
  /// occupying a decode row.
  size_t InFlightDeduped = 0;
  /// Requests served from the decoded-hypotheses LRU: the whole beam
  /// decode was skipped (the non-overlapping-duplicates regime).
  size_t DecodeCacheHits = 0;
  size_t DecodeCacheMisses = 0;
  /// Heap bytes held by the (decompiler-owned) decoded-hypotheses LRU.
  size_t DecodeCacheBytes = 0;
  size_t LiveSources = 0;     ///< Sources admitted now, all shards.
  size_t PeakLiveSources = 0; ///< Peak concurrently-live, all shards.
  double EncodeSeconds = 0; ///< Encoder passes at dispatch (LRU misses).
  double DecodeSeconds = 0; ///< ShardUtil::DecodeSeconds, all shards.
  double VerifySeconds = 0; ///< Summed pool verify time (overlapped).
  // -- grammar-constraint counters (zero when Constrain is Off) ----------
  uint64_t BeamsKilled = 0;  ///< Beams whose every candidate was masked.
  uint64_t TokensMasked = 0; ///< Vocab entries masked, summed over steps.
  double OracleSeconds = 0;  ///< Time inside the oracle/mask code.
  // -- typed-outcome counters (the overload/robustness picture) ----------
  size_t Shed = 0;         ///< QueueFull rejections (load-shedding mode).
  size_t Expired = 0;      ///< DeadlineExpired resolutions (any stage).
  size_t Cancelled = 0;    ///< Cancelled resolutions (any stage).
  size_t ShutDown = 0;     ///< ShuttingDown resolutions (drain/stop).
  size_t EncodeFailed = 0; ///< Contained dispatcher encode failures.
  size_t VerifyFailed = 0; ///< Verify faults that survived the retries.
  uint64_t VerifyTimeouts = 0; ///< Candidates cut by the verify timeout.
  uint64_t VerifyRetries = 0;  ///< Transient verify attempts retried.
  double DrainMs = 0; ///< Wall ms the terminal drain()/stop() took.
  obs::SampleStats QueueWait; ///< submit() -> decode-row admission, OK only.
  obs::SampleStats Latency;   ///< submit() -> completion, OK requests only.
  std::vector<ShardUtil> Shards; ///< Per-shard utilization.
};

/// A submitted request: the result future plus a cancel flag shared
/// with the engine. cancel() is safe from any thread, in any request
/// state — queued, encoding, live on a shard, or in verify — and is a
/// REQUEST: the engine resolves the future (exactly once) with
/// RequestStatus::Cancelled at the next cancellation point, aborting a
/// live decode row mid-flight and recycling its segment. Cancelling a
/// request that already resolved is a no-op.
class Handle {
public:
  Handle() = default;

  bool valid() const { return Fut.valid(); }
  void cancel() {
    if (CancelFlag)
      CancelFlag->store(true, std::memory_order_release);
  }
  RequestResult get() { return Fut.get(); }
  void wait() const { Fut.wait(); }
  /// The underlying future, for wait_for/when_any composition.
  std::future<RequestResult> &future() { return Fut; }

private:
  friend class Engine;
  std::future<RequestResult> Fut;
  std::shared_ptr<std::atomic<bool>> CancelFlag;
};

/// The sharded streaming serve engine. Construction starts the
/// dispatcher and one decode thread per shard; stop() (or destruction)
/// closes the queue, drains every in-flight request, and joins.
/// Thread-safe: any number of producer threads may submit concurrently.
class Engine {
public:
  Engine(const core::Decompiler &D, const EngineOptions &Opts);
  ~Engine();

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Submits a request. With BlockOnFull (default) this blocks while
  /// the admission queue is full (backpressure); in load-shedding mode
  /// it returns immediately, the handle resolving with QueueFull when
  /// the queue had no room. The returned handle's future ALWAYS
  /// resolves with a typed RequestResult — on overload, expiry,
  /// cancellation, faults, and shutdown alike (never broken_promise).
  Handle submit(DecompileRequest R);

  /// Callback form: \p OnDone runs on an engine thread (dispatcher,
  /// shard, or verify worker) just before the future completes. Keep it
  /// cheap.
  Handle submit(DecompileRequest R,
                std::function<void(const RequestResult &)> OnDone);

  /// Blocks until every request submitted so far has completed. The
  /// queue stays open; more requests may be submitted after.
  void drain();

  /// GRACEFUL DRAIN, the weight-hot-swap primitive: stops admissions
  /// (later submits resolve ShuttingDown), lets in-flight rows and
  /// queued work finish until \p Deadline, then force-resolves whatever
  /// remains as ShuttingDown — every future resolves either way — and
  /// joins all engine threads. Terminal and idempotent (a later stop()
  /// is a no-op); metrics().DrainMs records the wall time.
  void drain(std::chrono::steady_clock::time_point Deadline);

  /// drain() with no deadline: closes the queue, finishes ALL in-flight
  /// + queued requests, joins the dispatcher and every shard thread,
  /// and waits out the verify pool. Idempotent.
  void stop();

  const EngineOptions &options() const { return Opts; }
  /// Resolved decode shard count (options().Shards after 0 = auto).
  int shardCount() const { return static_cast<int>(ShardsVec.size()); }
  EngineMetrics metrics() const;
  /// The registry backing this engine's instruments (the caller's
  /// EngineOptions::Metrics, or the engine-owned one). Render it with
  /// obs::Registry::renderPrometheus for the Prometheus exposition.
  obs::Registry &metricsRegistry() const { return Reg; }

private:
  struct Completion;
  struct Flight;
  struct Job;
  struct Shard;

  void dispatchLoop();
  void shardLoop(Shard &S);
  void sendToShard(Shard &S, Job &&J);
  /// Appends \p C to the open flight of source \p Key (dispatcher only);
  /// false, with \p C intact, when that source has none.
  bool attach(const std::string &Key, Completion &C);
  /// Erases \p J's flight-table entry if it still points to J's flight
  /// (a newer flight of the same source may have replaced it).
  void forgetFlight(const Job &J);
  ThreadPool &verifyPool();
  void completeOne(Completion &&C,
                   std::shared_ptr<const std::vector<nn::Hypothesis>> Hyps);
  void completeResult(RequestResult &&Res, Completion &&C);
  /// Typed no-payload resolution (shed / expired / cancelled / failed).
  void completeEmpty(Completion &&C, RequestStatus St);
  /// Registers this engine's instruments + coherent-group collector in
  /// Reg (constructor) / emits the coherent snapshot (scrape).
  void registerInstruments();
  void collectInto(obs::MetricSink &Sink) const;
  /// A copy of Totals, taken under MetricsMu.
  EngineMetrics totals() const;
  void shutdownImpl(std::chrono::steady_clock::time_point Deadline);
  /// The armed drain deadline (time_point::max() while fully open).
  std::chrono::steady_clock::time_point drainDeadline() const {
    return std::chrono::steady_clock::time_point(
        std::chrono::steady_clock::duration(
            DrainAtRaw.load(std::memory_order_acquire)));
  }

  const core::Decompiler &D;
  EngineOptions Opts;
  FaultInjector Injector;
  AdmissionQueue Queue;
  ShardRouter Router;
  /// The flight table (see the file comment): a source's token bytes ->
  /// its flight. Lock order: FlightsMu, then a Flight's mutex, then
  /// MetricsMu; shards never hold FlightsMu and a Flight's mutex
  /// together.
  std::mutex FlightsMu;
  std::unordered_map<std::string, std::shared_ptr<Flight>> Flights;

  /// The metrics storage (obs/Metrics.h): the caller's registry or the
  /// engine-owned fallback. OwnedReg is declared before Reg so the
  /// reference can bind to it.
  std::unique_ptr<obs::Registry> OwnedReg;
  obs::Registry &Reg;
  uint64_t CollectorToken = 0;
  /// Registry-backed instruments — the per-tick/per-shard storage that
  /// used to live as ad-hoc Shard atomics, and the latency windows that
  /// used to live as raw sample vectors. One cell per shard, written
  /// only by the owning shard thread (the engine's single-writer
  /// discipline, now enforced by the obs::Counter type).
  struct Instruments {
    obs::Counter *Sources = nullptr;
    obs::Counter *Steps = nullptr;
    obs::Counter *StepRows = nullptr;
    obs::FloatCounter *DecodeSeconds = nullptr;
    obs::Counter *BeamsKilled = nullptr;
    obs::Counter *TokensMasked = nullptr;
    obs::FloatCounter *OracleSeconds = nullptr;
    obs::Counter *ParallelRegions = nullptr; ///< Pool fan-outs, per shard.
    obs::Histogram *QueueWait = nullptr; ///< OK-only, seconds.
    obs::Histogram *Latency = nullptr;   ///< OK-only, seconds.
  } Ins;

  /// Completion-side aggregation: one mutex for everything written on
  /// the completion paths (dispatcher, shard threads, verify workers) —
  /// per-request, never per-tick. The per-TICK counters live in the
  /// single-writer instrument cells above and are merged at metrics()
  /// time, so N shards retiring or ticking concurrently never race (see
  /// the aggregation stress test in tests/test_serve.cpp).
  mutable std::mutex MetricsMu;
  std::condition_variable DrainCv;
  /// The completion-side totals, guarded by MetricsMu: every completion
  /// path bumps its field here, and metrics() and the Prometheus
  /// collector both read one copy of it (totals()). The per-tick fields,
  /// Shards, QueueWait, Latency and DecodeCacheBytes stay zero here.
  EngineMetrics Totals;
  /// Bound for the registry histograms' exact-sample windows (ring once
  /// full), so a long-lived engine's memory and metrics() cost stay
  /// fixed.
  static constexpr size_t MaxLatencySamples = 1 << 16;

  /// Engine-wide submit sequence: EDF tiebreak + fault-injection id.
  std::atomic<uint64_t> SeqCounter{0};
  /// Drain deadline as raw steady_clock duration ticks (so shards can
  /// poll it lock-free every tick); max() until drain()/stop() arms it.
  std::atomic<long long> DrainAtRaw;

  std::once_flag StopOnce;
  /// Set by the dispatcher after the queue is closed, drained, and every
  /// request has been routed; shard loops exit once it is set and their
  /// own work is done.
  std::atomic<bool> DispatchDone{false};
  /// Lazily created verification pool (PoolMu guards creation: the
  /// dispatcher, any shard, or a decode-LRU hit may be first). Declared
  /// before the threads so workers are joined after the decode loops
  /// exit but before teardown completes.
  std::mutex PoolMu;
  std::unique_ptr<ThreadPool> Pool;
  std::vector<std::unique_ptr<Shard>> ShardsVec;
  std::thread DispatchThread;
};

} // namespace serve
} // namespace slade

#endif // SLADE_SERVE_ENGINE_H
