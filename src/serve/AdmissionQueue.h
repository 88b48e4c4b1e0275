//===- AdmissionQueue.h - bounded request queue + shard dispatch -*- C++ -*-===//
///
/// \file
/// The admission side of the streaming serve engine (serve/Engine.h):
///
///   AdmissionQueue   a bounded MPSC queue between producers calling
///                    Engine::submit and the engine's dispatcher.
///                    Bounded on purpose — when every decode shard is
///                    full AND the queue is full, submit() blocks, which
///                    is the engine's backpressure: producers slow to
///                    the rate the hardware sustains instead of queueing
///                    unbounded work.
///
///   ShardRouter      shard placement: least-loaded placement of
///                    sources across N decode shards, and the capacity
///                    wait that implements retirement backfill (a
///                    dispatcher blocked on a saturated engine wakes the
///                    moment ANY shard retires, so no shard idles while
///                    the global queue holds work).
///
/// Each shard's free decode segments live in its nn::beamcore::BeamBatch
/// (nn/BeamCore.h); in-flight dedup lives in the engine's flight table
/// (serve/Engine.h).
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_SERVE_ADMISSIONQUEUE_H
#define SLADE_SERVE_ADMISSIONQUEUE_H

#include "core/Slade.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <vector>

namespace slade {
namespace serve {

/// How a request resolved. EVERY submitted request resolves exactly once
/// with one of these — the engine never abandons a promise (no
/// broken_promise futures), including under overload, cancellation,
/// injected faults, and shutdown.
enum class RequestStatus {
  Ok = 0,          ///< Completed normally (decoded; verified if asked).
  QueueFull,       ///< Shed at admission (load-shedding mode, queue full).
  DeadlineExpired, ///< Deadline passed before the request finished.
  Cancelled,       ///< Handle::cancel() observed (any state).
  ShuttingDown,    ///< Engine stopped / drain deadline hit first.
  EncodeFailed,    ///< The dispatcher's encode threw (contained).
  VerifyFailed,    ///< Verify stage threw past its retry budget.
};

/// Stable lowercase name for logs and summary JSONL ("ok", "queue_full",
/// "deadline_expired", "cancelled", "shutting_down", "encode_failed",
/// "verify_failed").
const char *requestStatusName(RequestStatus S);

/// One streaming decompile/translate request, as submitted by a producer.
struct DecompileRequest {
  std::string Name;
  /// Assembly text; tokenized by the engine unless \p Src is provided.
  /// May stay empty in Task mode — the task's TargetAsm is used then.
  std::string Asm;
  /// Pre-tokenized source (used when non-empty; skips tokenization).
  std::vector<int> Src;
  /// Pre-encoded source (used when set; skips the admission-time encode
  /// and its LRU lookup entirely). Set \p Src too when the request
  /// should participate in in-flight dedup.
  std::shared_ptr<const nn::Transformer::EncoderCache> Enc;
  /// When set, the engine runs the full pipeline on retirement: candidate
  /// compile + IO-verification in beam order on the worker pool,
  /// overlapped with ongoing decode. Must outlive request completion.
  const core::EvalTask *Task = nullptr;
  /// Optional completion deadline (steady clock). max() = none. The
  /// engine sheds the request the moment it observes the deadline passed
  /// — at submit, at dispatch, between dispatch and shard admission, or
  /// mid-decode (the row is aborted and its segment recycled) — and
  /// resolves it with DeadlineExpired. Deadlined requests are served
  /// earliest-deadline-first ahead of undeadlined ones.
  std::chrono::steady_clock::time_point Deadline =
      std::chrono::steady_clock::time_point::max();
};

/// Completion payload delivered through the request's future/callback.
struct RequestResult {
  std::string Name;
  /// How the request resolved. Payload fields below are meaningful for
  /// Ok only (shed/expired/cancelled results carry empty hypotheses;
  /// VerifyFailed carries the decoded hypotheses without an outcome).
  RequestStatus Status = RequestStatus::Ok;
  /// Top-beam C hypothesis (translate mode), or the selected candidate's
  /// source (verify mode; same as Outcome.CSource).
  std::string CSource;
  /// Raw beam hypotheses, best first (always filled; lets batch clients
  /// run their own selection/verification).
  std::vector<nn::Hypothesis> Hyps;
  /// Full-pipeline outcome; valid only when Verified.
  core::HypothesisOutcome Outcome;
  bool Verified = false;
  /// True when verification was DEGRADED by a contained fault: some
  /// candidate gave up (exhausted its retry budget, or hit its
  /// wall-clock timeout), so the verified Outcome may differ from an
  /// unbounded sequential run's. Byte-identity oracles (slade-serve
  /// --check, the fault soak test) skip degraded results; the decoded
  /// Hyps themselves are never degraded.
  bool Degraded = false;
  /// Seconds from submit() to admission into a decode row.
  double QueueWaitSeconds = 0;
  /// Seconds from submit() to completion (end-to-end latency).
  double TotalSeconds = 0;

  bool ok() const { return Status == RequestStatus::Ok; }
};

/// Queue item: the request plus its completion promise and arrival stamp.
struct Admission {
  DecompileRequest Req;
  std::promise<RequestResult> Promise;
  /// Optional completion callback, invoked (from the decode thread or a
  /// verify worker) just before the promise is fulfilled.
  std::function<void(const RequestResult &)> OnDone;
  std::chrono::steady_clock::time_point SubmitTime;
  /// Engine-wide submit sequence number: the EDF tiebreak (equal
  /// deadlines — including the no-deadline common case — dequeue FIFO)
  /// and the deterministic fault-injection id.
  uint64_t Seq = 0;
  /// Shared with the producer's Handle; set = cancel requested.
  std::shared_ptr<std::atomic<bool>> Cancel;
  /// Observability (obs/Trace.h): the per-request sampling decision,
  /// made ONCE at submit so a traced request records its whole
  /// lifecycle across dispatcher, shard, and verify-worker threads, and
  /// the submit timestamp (recorder-epoch ns) the queue-wait span
  /// starts from. Both inert (false/0) while tracing is off.
  bool Traced = false;
  uint64_t SubmitNs = 0;
};

/// Bounded earliest-deadline-first queue between submitters and the
/// dispatcher. Items dequeue by (deadline, submit sequence): deadlined
/// requests first, FIFO among equal deadlines — so a queue of
/// undeadlined requests (Deadline = max()) is exactly the old FIFO.
/// Thread-safe; any number of producers, one consumer (the dispatcher).
///
/// Shutdown contract (see the shutdown-race test in test_serve.cpp):
/// close() wakes EVERY producer blocked in push(); each returns false
/// with its Admission intact, so the caller resolves the promise with a
/// typed ShuttingDown rejection — never a silent drop or a broken
/// promise. Items already queued at close() still drain through pop().
class AdmissionQueue {
public:
  explicit AdmissionQueue(size_t Capacity);

  /// Enqueues, blocking while the queue is full. On success \p A is
  /// moved from; on failure (queue closed — the only failure) \p A is
  /// left intact so the caller can resolve its promise.
  bool push(Admission &A);
  /// Non-blocking enqueue; false (A intact) when full or closed.
  bool tryPush(Admission &A);
  /// Dequeues the earliest-deadline item, blocking while the queue is
  /// empty. Returns false only when the queue is closed AND drained.
  bool pop(Admission *Out);

  /// Closes the queue: subsequent pushes fail, pops drain what remains.
  void close();
  bool closed() const;
  size_t size() const;
  size_t capacity() const { return Cap; }

private:
  const size_t Cap;
  mutable std::mutex Mu;
  std::condition_variable NotFull, NotEmpty;
  /// Min-heap on (Req.Deadline, Seq) via std::push_heap/pop_heap.
  std::vector<Admission> Items;
  bool Closed = false;
};

/// Shard placement for the sharded streaming engine: which shard each
/// new source lands on, and how a saturated dispatcher waits for
/// capacity. One dispatcher thread places; N shard threads retire.
///
/// Placement is least-loaded-rows: the shard with the fewest assigned
/// (placed-but-not-retired) sources wins, ties to the lowest id —
/// admissions spread instead of convoying, and a retiring shard is
/// immediately preferred for backfill.
class ShardRouter {
public:
  /// \p Shards decode shards, each with \p SourcesPerShard source slots.
  ShardRouter(int Shards, int SourcesPerShard);

  /// Reserves a source slot on the least-loaded shard, blocking while
  /// every shard is saturated (woken by retire() — retirement backfill).
  /// Returns the chosen shard id, or -1 once the shutdownAt() deadline
  /// or the request's own \p Deadline has passed with no slot free. On
  /// drain the dispatcher must stop waiting for capacity and resolve the
  /// request as ShuttingDown instead of deadlocking against shards that
  /// are force-aborting their rows; an expired request resolves
  /// DeadlineExpired at its deadline instead of holding up every request
  /// queued behind it until some row retires. A cancel does not wake
  /// the wait: it is seen at the next wake (a retirement or a deadline).
  int placeBlocking(std::chrono::steady_clock::time_point Deadline);
  /// Arms the drain deadline: placeBlocking() calls at or after \p D
  /// fail fast with -1, and a placement already blocked on capacity is
  /// woken at \p D. Idempotent; earlier deadlines win.
  void shutdownAt(std::chrono::steady_clock::time_point D);
  /// Retirement: releases a slot on \p Shard and wakes a
  /// capacity-blocked placement.
  void retire(int Shard);

private:
  std::mutex Mu;
  std::condition_variable Capacity;
  std::vector<int> Assigned;
  int PerShard;
  /// Drain deadline; placements past it fail with -1. max() = none.
  std::chrono::steady_clock::time_point ShutdownAt =
      std::chrono::steady_clock::time_point::max();
};

} // namespace serve
} // namespace slade

#endif // SLADE_SERVE_ADMISSIONQUEUE_H
