//===- Engine.cpp - sharded streaming serve engine (continuous batching) ------===//

#include "serve/Engine.h"

#include "nn/BeamCore.h"
#include "nn/Parallel.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

using namespace slade;
using namespace slade::serve;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

Clock::duration secondsToDuration(double S) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(S));
}

/// Seconds -> recorder nanoseconds, for synthesizing sub-spans from
/// accumulated stats (the oracle-mask time inside a tick).
uint64_t secondsToNs(double S) {
  return S > 0 ? static_cast<uint64_t>(S * 1e9) : 0;
}

} // namespace

int slade::serve::resolveShardCount(int Requested) {
  if (Requested > 0)
    return Requested;
  unsigned N = ThreadPool::defaultConcurrency();
  return static_cast<int>(std::min<unsigned>(N ? N : 1, 8));
}

/// One request's completion channel: who to tell, when it arrived, when
/// it must be done, and how to tell it is no longer wanted.
struct Engine::Completion {
  std::string Name;
  const core::EvalTask *Task = nullptr;
  std::promise<RequestResult> Promise;
  std::function<void(const RequestResult &)> OnDone;
  std::shared_ptr<std::atomic<bool>> Cancel;
  Clock::time_point SubmitTime;
  Clock::time_point Deadline = Clock::time_point::max();
  uint64_t Seq = 0; ///< Submit order: fault-injection id.
  double QueueWait = 0;
  bool Shared = false; ///< Shared >= 1 decode tick with another source.
  /// Tracing (obs/Trace.h): sampled-at-submit decision plus the span
  /// anchor timestamps (recorder-epoch ns). Inert while tracing is off.
  bool Traced = false;
  uint64_t SubmitNs = 0; ///< Queue-wait span start.
  /// Dispatch routed it: admission-wait start, or the attach to a flight.
  uint64_t RouteNs = 0;

  /// Why this completion can no longer be served — or Ok while it can.
  /// Cancellation wins over expiry when both hold (the client asked
  /// first). This is the CANCELLATION POINTS' shared predicate; it is
  /// checked at submit, at dispatch, on the shard pre-admission sweep,
  /// on every shard tick, and between verify candidates.
  RequestStatus deadStatus(Clock::time_point Now) const {
    if (Cancel && Cancel->load(std::memory_order_acquire))
      return RequestStatus::Cancelled;
    if (Now >= Deadline)
      return RequestStatus::DeadlineExpired;
    return RequestStatus::Ok;
  }

  /// Moves an admission's routing-independent fields into a Completion.
  static Completion fromAdmission(Admission &&A) {
    Completion C;
    C.Name = std::move(A.Req.Name);
    C.Task = A.Req.Task;
    C.Promise = std::move(A.Promise);
    C.OnDone = std::move(A.OnDone);
    C.Cancel = std::move(A.Cancel);
    C.SubmitTime = A.SubmitTime;
    C.Deadline = A.Req.Deadline;
    C.Seq = A.Seq;
    C.Traced = A.Traced;
    C.SubmitNs = A.SubmitNs;
    return C;
  }
};

/// The clients one decode serves: the request that started it plus every
/// identical request the dispatcher attached while it was in flight
/// (single-flight dedup across all shards). Mu guards every field; the
/// dispatcher appends under it and the owning shard sweeps, stamps and
/// finally takes the clients under it.
struct Engine::Flight {
  std::mutex Mu;
  /// Oldest first. The front client is the decode's main request: its
  /// trace carries the decode span. A dead client is removed, so the
  /// oldest live one takes over.
  std::vector<Completion> Clients;
  /// The decode holds a row: an attach ends the duplicate's queue wait.
  bool Admitted = false;
  /// The decode retired, aborted or was force-shed and its clients are
  /// taken: nothing attaches any more.
  bool Closed = false;
};

/// One source routed to a shard: in its inbox or pending queue until a
/// segment frees, then live in the shard's BeamBatch (which holds its
/// beams) until it retires or aborts.
struct Engine::Job {
  std::shared_ptr<Flight> F;
  /// Byte key of the tokenized source: its entry in the flight table
  /// (empty for a pre-encoded source without tokens).
  std::string Key;
  /// The tokenized source itself: the decoded-hypotheses LRU key.
  std::vector<int> Src;
  std::shared_ptr<const nn::Transformer::EncoderCache> Enc;
  /// Weight version the source was encoded under (LRU key component).
  uint64_t ConstsVersion = 0;

  int Seg = -1; ///< BeamBatch segment owned while live.
  /// Row admission, recorder-epoch ns; stamped whenever tracing is on,
  /// since any client may end up at the front.
  uint64_t AdmitNs = 0;
};

/// One decode shard: a long-lived thread owning a BeamBatch (its decode
/// state, free segments and scratch) — nothing on its hot tick is shared
/// with other shards. Cross-thread surface: the inbox (dispatcher ->
/// shard), its jobs' flights, and the shard's single-writer instrument
/// cells (the per-tick utilization/constraint accumulators moved into
/// the metrics registry — Engine::Ins, cell == Index — keeping the
/// exact single-writer relaxed-store discipline they had as raw
/// atomics).
struct Engine::Shard {
  int Index = 0;
  std::mutex Mu;
  std::condition_variable Cv;
  std::vector<Job> Inbox;
  std::thread Thread;
};

Engine::Engine(const core::Decompiler &D, const EngineOptions &Opts)
    : D(D), Opts(Opts), Injector(Opts.Faults), Queue(Opts.QueueCapacity),
      Router(resolveShardCount(Opts.Shards),
             std::max(1, Opts.MaxLiveSources)),
      OwnedReg(Opts.Metrics ? nullptr : new obs::Registry),
      Reg(Opts.Metrics ? *Opts.Metrics : *OwnedReg),
      DrainAtRaw(Clock::time_point::max().time_since_epoch().count()) {
  const int N = resolveShardCount(Opts.Shards);
  this->Opts.Shards = N; // options() reports the resolved count.
  this->Opts.TickThreads = std::max(1, Opts.TickThreads);
  this->Opts.MaxLiveSources = std::max(1, Opts.MaxLiveSources);
  registerInstruments();
  ShardsVec.reserve(static_cast<size_t>(N));
  for (int I = 0; I < N; ++I) {
    auto S = std::make_unique<Shard>();
    S->Index = I;
    ShardsVec.push_back(std::move(S));
  }
  // Shards first, then the dispatcher that feeds them.
  for (std::unique_ptr<Shard> &S : ShardsVec) {
    Shard *SP = S.get();
    SP->Thread = std::thread([this, SP] { shardLoop(*SP); });
  }
  DispatchThread = std::thread([this] { dispatchLoop(); });
}

Engine::~Engine() {
  stop();
  // The collector captures `this`: it must not outlive the engine in an
  // external registry. (A later engine's collector has already replaced
  // it there, if one started; that one stays.)
  Reg.removeCollector(CollectorToken);
}

/// Registers the engine's instrument set. Idempotent per registry name
/// at an equal shard count: a later engine on the same external
/// registry continues the counters; one with a different shard count
/// gets fresh per-shard families (obs::Registry replaces them).
void Engine::registerInstruments() {
  const int N = this->Opts.Shards;
  Ins.Sources = &Reg.counter(
      "slade_shard_sources_total",
      "Sources admitted into decode rows, per shard", N);
  Ins.Steps = &Reg.counter("slade_shard_steps_total",
                           "Fused decode ticks, per shard", N);
  Ins.StepRows = &Reg.counter("slade_shard_step_rows_total",
                              "Beam rows stepped, per shard", N);
  Ins.DecodeSeconds = &Reg.floatCounter(
      "slade_shard_decode_seconds_total",
      "Time inside decode ticks, per shard", N);
  Ins.BeamsKilled = &Reg.counter(
      "slade_constraint_beams_killed_total",
      "Beams whose every candidate was masked", N);
  Ins.TokensMasked = &Reg.counter(
      "slade_constraint_tokens_masked_total",
      "Vocab entries masked, summed over steps", N);
  Ins.OracleSeconds = &Reg.floatCounter(
      "slade_constraint_oracle_seconds_total",
      "Time inside the oracle/mask code", N);
  Ins.ParallelRegions = &Reg.counter(
      "slade_shard_parallel_regions_total",
      "Intra-tick pool regions fanned out, per shard", N);
  Ins.QueueWait = &Reg.histogram(
      "slade_engine_queue_wait_seconds",
      "submit() to decode-row admission, OK requests only",
      obs::Histogram::defaultLatencyBounds(), 1, MaxLatencySamples);
  Ins.Latency = &Reg.histogram(
      "slade_engine_latency_seconds",
      "submit() to completion, OK requests only",
      obs::Histogram::defaultLatencyBounds(), 1, MaxLatencySamples);
  // One key for every engine: a later engine's collector replaces this
  // one, so a drained engine's families stop rendering beside its
  // successor's.
  CollectorToken = Reg.addCollector(
      "serve::Engine", [this](obs::MetricSink &Sink) { collectInto(Sink); });
}

EngineMetrics Engine::totals() const {
  std::lock_guard<std::mutex> Lock(MetricsMu);
  return Totals;
}

/// The coherent-group collector: every completion-side total is written
/// under MetricsMu, so scraping them one atomic at a time could tear the
/// accounting invariant (Completed == sum of typed outcomes). Instead
/// the scrape emits from ONE copy taken under the same mutex — the
/// invariant holds on every exposition, mid-flight included.
void Engine::collectInto(obs::MetricSink &Sink) const {
  const EngineMetrics T = totals();
  auto D = [](uint64_t V) { return static_cast<double>(V); };
  Sink.counter("slade_engine_requests_submitted_total",
               "Requests accepted by submit()", "", D(T.Submitted));
  Sink.counter("slade_engine_requests_completed_total",
               "Typed resolutions, any status", "", D(T.Completed));
  const char *H = "Typed resolutions by outcome";
  Sink.counter("slade_engine_outcome_total", H, "status=\"ok\"", D(T.Ok));
  Sink.counter("slade_engine_outcome_total", H, "status=\"queue_full\"",
               D(T.Shed));
  Sink.counter("slade_engine_outcome_total", H,
               "status=\"deadline_expired\"", D(T.Expired));
  Sink.counter("slade_engine_outcome_total", H, "status=\"cancelled\"",
               D(T.Cancelled));
  Sink.counter("slade_engine_outcome_total", H, "status=\"shutting_down\"",
               D(T.ShutDown));
  Sink.counter("slade_engine_outcome_total", H, "status=\"encode_failed\"",
               D(T.EncodeFailed));
  Sink.counter("slade_engine_outcome_total", H, "status=\"verify_failed\"",
               D(T.VerifyFailed));
  Sink.counter("slade_engine_fused_jobs_total",
               "Requests that shared a decode tick", "", D(T.FusedJobs));
  Sink.counter("slade_engine_inflight_deduped_total",
               "Requests attached to a live identical decode", "",
               D(T.InFlightDeduped));
  Sink.counter("slade_engine_decode_cache_hits_total",
               "Requests served from the decoded-hypotheses LRU", "",
               D(T.DecodeCacheHits));
  Sink.counter("slade_engine_decode_cache_misses_total",
               "Decode-LRU lookups that missed", "", D(T.DecodeCacheMisses));
  Sink.gauge("slade_engine_tick_threads",
             "Intra-tick worker threads per shard (1 = no pool)", "",
             static_cast<double>(Opts.TickThreads));
  Sink.gauge("slade_engine_live_sources",
             "Sources currently admitted into decode rows, all shards", "",
             D(T.LiveSources));
  Sink.gauge("slade_engine_peak_live_sources",
             "Peak concurrently-live sources, all shards", "",
             D(T.PeakLiveSources));
  Sink.counter("slade_engine_encode_seconds_total",
               "Encoder passes at dispatch", "", T.EncodeSeconds);
  Sink.counter("slade_engine_verify_seconds_total",
               "Summed pool verify time (overlapped)", "", T.VerifySeconds);
  Sink.counter("slade_engine_verify_timeouts_total",
               "Candidates cut by the verify timeout", "",
               D(T.VerifyTimeouts));
  Sink.counter("slade_engine_verify_retries_total",
               "Transient verify attempts retried", "", D(T.VerifyRetries));
  Sink.gauge("slade_engine_drain_ms",
             "Wall ms the terminal drain()/stop() took", "", T.DrainMs);
  // Weight-version pack caches (nn/Transformer.h): how often the decode
  // constants / packed tiles rebuilt and the bytes the packs pin.
  nn::Transformer::PackCacheStats PS = this->D.model().packCacheStats();
  const char *PH = "Weight-version cache rebuilds";
  Sink.counter("slade_pack_builds_total", PH, "kind=\"decode_consts\"",
               static_cast<double>(PS.ConstBuilds));
  Sink.counter("slade_pack_builds_total", PH, "kind=\"packed_weights\"",
               static_cast<double>(PS.PackBuilds));
  Sink.gauge("slade_pack_bytes",
             "Bytes held by pre-packed weight tiles (current version)", "",
             static_cast<double>(PS.PackedBytes));
}

void Engine::stop() { shutdownImpl(Clock::time_point::max()); }

void Engine::drain(Clock::time_point Deadline) { shutdownImpl(Deadline); }

void Engine::shutdownImpl(Clock::time_point Deadline) {
  std::call_once(StopOnce, [this, Deadline] {
    auto T0 = Clock::now();
    // Arm the drain deadline BEFORE closing the queue: once pushes start
    // failing, every path that sheds work already sees the deadline.
    DrainAtRaw.store(Deadline.time_since_epoch().count(),
                     std::memory_order_release);
    Router.shutdownAt(Deadline); // Unblocks a capacity-waiting placement.
    Queue.close(); // Wakes blocked producers -> typed ShuttingDown.
    // The dispatcher drains the queue (past the deadline it sheds
    // instead of placing), routes everything, then flips DispatchDone;
    // shards finish — or, past the deadline, force-resolve — their jobs
    // and pending work and exit.
    if (DispatchThread.joinable())
      DispatchThread.join();
    for (std::unique_ptr<Shard> &S : ShardsVec)
      if (S->Thread.joinable())
        S->Thread.join();
    if (Pool)
      Pool->wait();
    std::lock_guard<std::mutex> Lock(MetricsMu);
    Totals.DrainMs = secondsSince(T0) * 1000.0;
  });
}

ThreadPool &Engine::verifyPool() {
  std::lock_guard<std::mutex> Lock(PoolMu);
  if (!Pool)
    Pool = std::make_unique<ThreadPool>(
        Opts.VerifyThreads > 0 ? static_cast<unsigned>(Opts.VerifyThreads)
                               : ThreadPool::defaultConcurrency());
  return *Pool;
}

Handle Engine::submit(DecompileRequest R) {
  return submit(std::move(R), nullptr);
}

Handle Engine::submit(DecompileRequest R,
                      std::function<void(const RequestResult &)> OnDone) {
  Admission A;
  A.Req = std::move(R);
  A.OnDone = std::move(OnDone);
  A.SubmitTime = Clock::now();
  A.Seq = SeqCounter.fetch_add(1, std::memory_order_relaxed);
  A.Cancel = std::make_shared<std::atomic<bool>>(false);
  // The per-request sampling decision, made exactly once: every later
  // instrumentation site just tests the flag (tracing-off cost at THIS
  // site is one relaxed load inside sampled()).
  obs::TraceRecorder &TR = obs::trace();
  A.Traced = TR.sampled(A.Seq);
  if (A.Traced) {
    A.SubmitNs = TR.nowNs();
    TR.instant(obs::SpanKind::Submit, A.Seq);
  }
  Handle H;
  H.Fut = A.Promise.get_future();
  H.CancelFlag = A.Cancel;
  // Count BEFORE the push: once pushed, an engine thread may complete
  // the request at any moment, and Completed must never overtake
  // Submitted (drain() would return with work in flight).
  {
    std::lock_guard<std::mutex> Lock(MetricsMu);
    ++Totals.Submitted;
  }
  // Shed pre-expired work at the door: no queue slot, no dispatch.
  if (A.SubmitTime >= A.Req.Deadline) {
    completeEmpty(Completion::fromAdmission(std::move(A)),
                  RequestStatus::DeadlineExpired);
    return H;
  }
  bool Ok = Opts.BlockOnFull ? Queue.push(A) : Queue.tryPush(A);
  if (!Ok) {
    // Typed rejection — the promise RESOLVES (QueueFull under load
    // shedding, ShuttingDown when the engine closed the queue), so no
    // future from submit() ever carries broken_promise.
    completeEmpty(Completion::fromAdmission(std::move(A)),
                  Queue.closed() ? RequestStatus::ShuttingDown
                                 : RequestStatus::QueueFull);
  }
  return H;
}

void Engine::drain() {
  std::unique_lock<std::mutex> Lock(MetricsMu);
  DrainCv.wait(Lock,
               [this] { return Totals.Completed >= Totals.Submitted; });
}

EngineMetrics Engine::metrics() const {
  // ONE coherent copy of every completion-side total: all of them are
  // written under MetricsMu, so `Completed == Ok + Shed + Expired +
  // Cancelled + ShutDown + EncodeFailed + VerifyFailed` and `Completed
  // <= Submitted` hold on every scrape, mid-flight included (pinned by
  // the concurrent-scrape soak test).
  EngineMetrics M = totals();
  // Exact nearest-rank percentiles over the histograms' bounded sample
  // windows (the OK requests' QueueWaitSeconds and TotalSeconds).
  M.QueueWait = Ins.QueueWait->stats();
  M.Latency = Ins.Latency->stats();
  M.Shards.reserve(ShardsVec.size());
  for (const std::unique_ptr<Shard> &S : ShardsVec) {
    const int I = S->Index;
    ShardUtil U;
    U.Sources = Ins.Sources->cellValue(I);
    U.Steps = Ins.Steps->cellValue(I);
    U.StepRows = Ins.StepRows->cellValue(I);
    U.DecodeSeconds = Ins.DecodeSeconds->cellValue(I);
    M.Steps += U.Steps;
    M.StepRows += U.StepRows;
    M.DecodeSeconds += U.DecodeSeconds;
    M.Shards.push_back(U);
  }
  M.BeamsKilled = Ins.BeamsKilled->value();
  M.TokensMasked = Ins.TokensMasked->value();
  M.OracleSeconds = Ins.OracleSeconds->value();
  M.DecodeCacheBytes = D.decodeCache().bytesUsed();
  return M;
}

void Engine::completeResult(RequestResult &&Res, Completion &&C) {
  Res.QueueWaitSeconds = C.QueueWait;
  Res.TotalSeconds = secondsSince(C.SubmitTime);
  // Ordering contract: the callback runs FIRST (so drain(), which waits
  // on the Completed count, implies every callback has run), then the
  // request is counted (so a caller returning from future.get() sees it
  // in metrics()), then the promise is fulfilled.
  if (C.OnDone)
    C.OnDone(Res);
  {
    std::lock_guard<std::mutex> Lock(MetricsMu);
    switch (Res.Status) {
    case RequestStatus::Ok:
      // Served-latency percentiles cover OK requests ONLY: a shed
      // request resolving in microseconds must not fake a fast p50.
      // (Histogram observes under MetricsMu: one writer at a time, and
      // the Ok/latency bookkeeping stays one coherent unit.)
      ++Totals.Ok;
      Ins.QueueWait->observe(0, Res.QueueWaitSeconds);
      Ins.Latency->observe(0, Res.TotalSeconds);
      break;
    case RequestStatus::QueueFull:
      ++Totals.Shed;
      break;
    case RequestStatus::DeadlineExpired:
      ++Totals.Expired;
      break;
    case RequestStatus::Cancelled:
      ++Totals.Cancelled;
      break;
    case RequestStatus::ShuttingDown:
      ++Totals.ShutDown;
      break;
    case RequestStatus::EncodeFailed:
      ++Totals.EncodeFailed;
      break;
    case RequestStatus::VerifyFailed:
      ++Totals.VerifyFailed;
      break;
    }
    ++Totals.Completed;
  }
  if (C.Traced)
    obs::trace().instant(obs::SpanKind::Resolve, C.Seq,
                         static_cast<uint64_t>(Res.Status));
  C.Promise.set_value(std::move(Res));
  DrainCv.notify_all();
}

void Engine::completeEmpty(Completion &&C, RequestStatus St) {
  RequestResult Res;
  Res.Name = C.Name;
  Res.Status = St;
  completeResult(std::move(Res), std::move(C));
}

/// Completes one request from a finished (or cached) set of hypotheses.
/// Translate-only requests complete inline (a token decode is trivial
/// next to a tick); verified requests dispatch to the worker pool so
/// compile + IO-testing overlaps with decode on every shard.
void Engine::completeOne(
    Completion &&C,
    std::shared_ptr<const std::vector<nn::Hypothesis>> Hyps) {
  if (C.Shared) {
    std::lock_guard<std::mutex> Lock(MetricsMu);
    ++Totals.FusedJobs;
  }
  // Last pre-payload cancellation point: the decode finished, but the
  // client may have cancelled or expired while it ran.
  RequestStatus Dead = C.deadStatus(Clock::now());
  if (Dead != RequestStatus::Ok) {
    completeEmpty(std::move(C), Dead);
    return;
  }
  if (!C.Task) {
    RequestResult Res;
    Res.Name = C.Name;
    if (!Hyps->empty())
      Res.CSource = D.tokenizer().decode(Hyps->front().Tokens);
    Res.Hyps = *Hyps;
    completeResult(std::move(Res), std::move(C));
    return;
  }
  // Pooled IO-verification, overlapped with ongoing decode. Within the
  // request, candidates are tried sequentially in beam order with early
  // exit on the first IO pass — exactly Decompiler::decompile's
  // sequential selection, so outcomes are byte-identical to a
  // one-at-a-time run whenever no bound fires. Candidate evaluation is
  // CONTAINED: per-candidate wall-clock timeout, bounded retry for
  // thrown attempts, and no exception escapes to the pool.
  bool UseTypeInf = Opts.UseTypeInference;
  auto Shared = std::make_shared<Completion>(std::move(C));
  verifyPool().submit([this, UseTypeInf, Shared, Hyps] {
    const tok::Tokenizer &Tok = D.tokenizer();
    auto T0 = Clock::now();
    obs::TraceRecorder &TR = obs::trace();
    obs::ScopedSpan VerifySpan(TR, obs::SpanKind::Verify, Shared->Seq,
                               Shared->Traced);
    // Candidates come back unscored; the one kept is scored below.
    core::HypothesisOutcome Kept;
    bool Passed = false, Degraded = false, AnyFaulted = false,
         KeptFaulted = false;
    int Cand = 0;
    for (const nn::Hypothesis &H : *Hyps) {
      // Between-candidate cancellation point: cancel, request deadline,
      // and the engine drain deadline all cut the verify short with a
      // typed resolution instead of wedging a worker.
      RequestStatus Dead = Shared->deadStatus(Clock::now());
      if (Dead == RequestStatus::Ok && Clock::now() >= drainDeadline())
        Dead = RequestStatus::ShuttingDown;
      if (Dead != RequestStatus::Ok) {
        {
          std::lock_guard<std::mutex> Lock(MetricsMu);
          Totals.VerifySeconds += secondsSince(T0);
        }
        completeEmpty(std::move(*Shared), Dead);
        return;
      }
      std::string CSource = Tok.decode(H.Tokens);
      obs::ScopedSpan CandSpan(TR, obs::SpanKind::VerifyCand, Shared->Seq,
                               Shared->Traced);
      core::VerifyLimits VL;
      VL.CandidateTimeoutSeconds = Opts.VerifyCandidateTimeout;
      VL.MaxRetries = Opts.VerifyMaxRetries;
      VL.RetryBackoffSeconds = Opts.VerifyRetryBackoff;
      VL.Deadline = std::min(Shared->Deadline, drainDeadline());
      VL.Traced = Shared->Traced;
      VL.TraceId = Shared->Seq;
      VL.TraceCand = Cand;
      if (Injector.enabled()) {
        uint64_t Seq = Shared->Seq;
        const FaultInjector *FI = &Injector;
        VL.BeforeAttempt = [FI, Seq, Cand](int Attempt,
                                           Clock::time_point CandDl) {
          if (FI->verifyHangAt(Seq, Cand, Attempt)) {
            // Hang in slices, honoring the candidate deadline: a
            // timed-out candidate frees its worker within one slice.
            auto End =
                Clock::now() + secondsToDuration(FI->config().HangSeconds);
            while (Clock::now() < End && Clock::now() < CandDl)
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          if (FI->verifyThrowAt(Seq, Cand, Attempt))
            throw std::runtime_error("injected verify fault");
        };
      }
      core::VerifyAttemptStats AS;
      core::HypothesisOutcome O = core::evaluateHypothesisBounded(
          *Shared->Task, CSource, UseTypeInf, VL, &AS);
      CandSpan.args(static_cast<uint64_t>(Cand),
                    (static_cast<uint64_t>(AS.Retries) << 2) |
                        (AS.TimedOut ? 2u : 0u) | (AS.Faulted ? 1u : 0u));
      CandSpan.end();
      if (AS.Retries || AS.TimedOut) {
        std::lock_guard<std::mutex> Lock(MetricsMu);
        Totals.VerifyRetries += static_cast<uint64_t>(AS.Retries);
        if (AS.TimedOut)
          ++Totals.VerifyTimeouts;
      }
      if (AS.Faulted || AS.TimedOut)
        Degraded = true; // This candidate gave up: selection may shift.
      AnyFaulted = AnyFaulted || AS.Faulted;
      // Keep the first candidate passing the IO tests (§VI-A), else the
      // first candidate.
      if (Cand == 0 || O.IOCorrect) {
        Kept = std::move(O);
        KeptFaulted = AS.Faulted;
      }
      if (Kept.IOCorrect) {
        Passed = true;
        break;
      }
      ++Cand;
    }
    RequestResult Res;
    Res.Name = Shared->Name;
    Res.Outcome = std::move(Kept);
    // A candidate that faulted out was never measured: EditSim stays 0.
    if (!KeptFaulted)
      core::scoreEditSimilarity(*Shared->Task, Res.Outcome);
    Res.CSource = Res.Outcome.CSource;
    Res.Verified = true;
    Res.Degraded = Degraded;
    // A request only FAILS on faults when they may have cost it its
    // verdict: some candidate faulted out and none passed. A pass after
    // a contained fault is still Ok (that is the containment working),
    // though marked Degraded for the byte-identity oracles.
    Res.Status = (!Passed && AnyFaulted) ? RequestStatus::VerifyFailed
                                         : RequestStatus::Ok;
    Res.Hyps = *Hyps;
    {
      std::lock_guard<std::mutex> Lock(MetricsMu);
      Totals.VerifySeconds += secondsSince(T0);
    }
    completeResult(std::move(Res), std::move(*Shared));
  });
}

void Engine::sendToShard(Shard &S, Job &&J) {
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.Inbox.push_back(std::move(J));
  }
  S.Cv.notify_one();
}

bool Engine::attach(const std::string &Key, Completion &C) {
  std::lock_guard<std::mutex> Lock(FlightsMu);
  auto It = Flights.find(Key);
  if (It == Flights.end())
    return false;
  Flight &F = *It->second;
  std::lock_guard<std::mutex> FlightLock(F.Mu);
  if (F.Closed)
    return false;
  // The duplicate's queue wait ends here when the decode already holds a
  // row; otherwise the shard stamps it at admission.
  if (F.Admitted)
    C.QueueWait = secondsSince(C.SubmitTime);
  if (C.Traced)
    C.RouteNs = obs::trace().nowNs();
  F.Clients.push_back(std::move(C));
  // Counted before the flight lock drops, so before the shard can
  // complete the duplicate (drain() then sees every attach counted).
  std::lock_guard<std::mutex> MetricsLock(MetricsMu);
  ++Totals.InFlightDeduped;
  return true;
}

void Engine::forgetFlight(const Job &J) {
  if (J.Key.empty())
    return;
  std::lock_guard<std::mutex> Lock(FlightsMu);
  auto It = Flights.find(J.Key);
  if (It != Flights.end() && It->second == J.F)
    Flights.erase(It);
}

/// The dispatcher: drains the shared queue in EDF order and routes each
/// request — shedding dead work FIRST (cancelled / expired / past the
/// drain deadline: typed resolution, no encode, no row) — then
/// decode-LRU hit, attach to an open flight of the same source (on any
/// shard), or least-loaded placement (blocking while every shard is
/// saturated; any shard's retirement backfills). Encoding runs HERE,
/// overlapped with every shard's decode ticks, and encode failures are
/// contained to the one request they strike.
void Engine::dispatchLoop() {
  obs::TraceRecorder &TR = obs::trace();
  TR.nameThread("dispatcher");
  const nn::Transformer &Model = D.model();
  nn::BeamConfig BC;
  BC.BeamSize = Opts.BeamSize;
  BC.MaxLen = Opts.MaxLen;
  // Keying only (the decode LRU's BeamTag): constrained and
  // unconstrained results for the same source can never be served from
  // each other's entries.
  if (Opts.Constrain == nn::ConstrainMode::Syntax)
    BC.Constraint = &D.vocabConstraint();
  // The dispatcher's encode pool, same width as the shards' tick pools
  // (TickThreads == 1 spawns nothing). Encoder outputs are bit-identical
  // at every width.
  nn::ParallelFor EncPool(Opts.TickThreads);

  Admission A;
  while (Queue.pop(&A)) {
    // fromAdmission moves the completion-channel fields out of A but
    // leaves the routing payload (Asm/Src/Enc) untouched — take it
    // after.
    Completion C = Completion::fromAdmission(std::move(A));
    DecompileRequest Req = std::move(A.Req);
    // Queue-wait span closes at the pop; the dispatch span covers the
    // routing work from here to hand-off (every exit path below ends it
    // via the ScopedSpan destructor).
    if (C.Traced)
      TR.record(obs::SpanKind::QueueWait, C.Seq, C.SubmitNs, TR.nowNs());
    obs::ScopedSpan DispatchSpan(TR, obs::SpanKind::Dispatch, C.Seq,
                                 C.Traced);
    // Shed before ANY work: a request that can no longer be served must
    // not cost an encode or occupy a decode row.
    RequestStatus Dead = C.deadStatus(Clock::now());
    if (Dead == RequestStatus::Ok && Clock::now() >= drainDeadline())
      Dead = RequestStatus::ShuttingDown;
    if (Dead != RequestStatus::Ok) {
      completeEmpty(std::move(C), Dead);
      continue;
    }
    if (!nn::searchable(Model, BC)) { // No beam, step or vocab match.
      C.QueueWait = secondsSince(C.SubmitTime);
      completeOne(std::move(C),
                  std::make_shared<std::vector<nn::Hypothesis>>());
      continue;
    }
    if (Req.Src.empty() && !Req.Enc) {
      // Task-mode requests may omit the payload: the task carries it.
      const std::string &Asm = (Req.Asm.empty() && Req.Task)
                                   ? Req.Task->Prog.TargetAsm
                                   : Req.Asm;
      Req.Src = D.tokenizer().encode(Asm);
    }
    std::vector<int> Src = std::move(Req.Src);
    // Decoded-hypotheses LRU, in FRONT of decode: a repeat of an
    // already-finished source — even one that never overlapped the
    // original in flight — completes without occupying a decode row.
    // Requests without tokens (pre-encoded only) never match.
    if (Opts.UseDecodeCache && !Src.empty()) {
      if (std::shared_ptr<const std::vector<nn::Hypothesis>> Hyps =
              D.decodeCache().get(Src, Model.weightVersion(), BC)) {
        {
          std::lock_guard<std::mutex> Lock(MetricsMu);
          ++Totals.DecodeCacheHits;
        }
        C.QueueWait = secondsSince(C.SubmitTime);
        completeOne(std::move(C), std::move(Hyps));
        continue;
      }
      std::lock_guard<std::mutex> Lock(MetricsMu);
      ++Totals.DecodeCacheMisses;
    }
    std::string Key(reinterpret_cast<const char *>(Src.data()),
                    Src.size() * sizeof(int));
    // Single-flight: an identical source in flight on ANY shard (live
    // or waiting for a row) serves this request too, instead of it
    // occupying a row anywhere. (Determinism makes the hypotheses
    // identical by construction.) A closed or missing flight places the
    // request like any fresh source.
    if (!Key.empty() && attach(Key, C))
      continue;
    // Fresh source: reserve a slot on the least-loaded shard (blocking
    // while all shards are full — retirement backfill wakes us; the drain
    // deadline or the request's own deadline unblocks with -1), THEN
    // encode, so the reservation is cheap and the encode overlaps the
    // shards' ticks.
    int SI = Router.placeBlocking(C.Deadline);
    if (SI < 0 && Clock::now() >= drainDeadline()) {
      // Draining: stop placing, shed the rest.
      completeEmpty(std::move(C), RequestStatus::ShuttingDown);
      continue;
    }
    // The wait for capacity may have been long: re-check before paying
    // for the encode, releasing the just-reserved slot on shed. With no
    // slot (SI < 0), the request's deadline has passed.
    Dead = C.deadStatus(Clock::now());
    if (Dead != RequestStatus::Ok) {
      if (SI >= 0)
        Router.retire(SI);
      completeEmpty(std::move(C), Dead);
      continue;
    }
    assert(SI >= 0 && "placement fails only past a deadline");
    auto T0 = Clock::now();
    obs::ScopedSpan EncodeSpan(TR, obs::SpanKind::Encode, C.Seq, C.Traced);
    std::shared_ptr<const nn::Transformer::EncoderCache> Enc;
    try {
      if (Injector.enabled() && Injector.encodeThrowAt(C.Seq))
        throw std::runtime_error("injected encode fault");
      Enc = Req.Enc ? std::move(Req.Enc) : D.encodeCached(Src, &EncPool);
    } catch (...) {
      // Containment: the fault resolves THIS request; the reserved slot
      // returns to the router and the dispatcher keeps serving.
      Router.retire(SI);
      {
        std::lock_guard<std::mutex> Lock(MetricsMu);
        Totals.EncodeSeconds += secondsSince(T0);
      }
      completeEmpty(std::move(C), RequestStatus::EncodeFailed);
      continue;
    }
    EncodeSpan.end();
    {
      std::lock_guard<std::mutex> Lock(MetricsMu);
      Totals.EncodeSeconds += secondsSince(T0);
    }
    if (C.Traced)
      C.RouteNs = TR.nowNs();
    Job J;
    J.F = std::make_shared<Flight>();
    J.F->Clients.push_back(std::move(C));
    if (!Key.empty()) {
      // Any entry left for this key is a closed flight whose shard has
      // not erased it yet (attach failed above, and only this thread
      // inserts).
      std::lock_guard<std::mutex> Lock(FlightsMu);
      Flights[Key] = J.F;
    }
    J.Key = std::move(Key);
    J.Src = std::move(Src);
    J.Enc = std::move(Enc);
    sendToShard(*ShardsVec[static_cast<size_t>(SI)], std::move(J));
  }
  // Queue closed and fully routed: let the shards run dry and exit.
  DispatchDone.store(true, std::memory_order_release);
  for (std::unique_ptr<Shard> &S : ShardsVec) {
    std::lock_guard<std::mutex> Lock(S->Mu);
    S->Cv.notify_all();
  }
}

/// One shard's decode loop: admit from the inbox into recycled
/// segments, run one BeamBatch step per tick over the live rows, retire
/// finished sources mid-flight. Every tick starts with a
/// cancellation sweep: rows whose every client cancelled or expired are
/// ABORTED (their K/V segment recycled for queued work) before the next
/// admission pass, so dead work never outcompetes live work for
/// capacity. No cross-shard synchronization on the tick — only the
/// inbox swap, this shard's own jobs' flights (shared with the
/// dispatcher's attaches) and per-request completion bookkeeping take
/// locks.
void Engine::shardLoop(Shard &S) {
  obs::TraceRecorder &TR = obs::trace();
  TR.nameThread("shard-" + std::to_string(S.Index));
  const nn::Transformer &Model = D.model();
  nn::ConstraintStats OracleStats; // Shard-local; deltas bump S.* atomics.
  nn::BeamConfig BC;
  BC.BeamSize = Opts.BeamSize;
  BC.MaxLen = Opts.MaxLen;
  if (Opts.Constrain == nn::ConstrainMode::Syntax) {
    BC.Constraint = &D.vocabConstraint();
    BC.Stats = &OracleStats;
  }

  nn::beamcore::BeamBatch Batch(Model, BC, Opts.MaxLiveSources);
  // The shard's intra-tick worker pool. TickThreads == 1 constructs no
  // pool and every tick runs the sequential code path.
  nn::ParallelFor TickPool(Opts.TickThreads);
  Batch.state().TP = &TickPool;
  std::vector<Job> Jobs; // Live, in admission order.
  /// Routed jobs waiting for a free segment (or for a weight-version
  /// drain), in arrival order.
  std::vector<Job> Pending;
  std::vector<Job> Local;
  std::vector<nn::beamcore::BeamBatch::Finished> Finished;
  uint64_t Tick = 0; ///< This shard's tick number (fault-injection id).

  // The one dead-client rule, for a live job and a pending one alike:
  // every client that cancelled or expired resolves on its own (with
  // Force set, every client resolves as \p ForceSt: the drain-deadline
  // path). False once no live client is left; the flight is then closed
  // in the same critical section, so no attach can land on a decode
  // about to be dropped, and the caller aborts the row or returns the
  // router slot.
  auto ShedDead = [&](Job &J, Clock::time_point Now, bool Force,
                      RequestStatus ForceSt) {
    std::vector<std::pair<Completion, RequestStatus>> Dead;
    bool Live = false;
    {
      std::lock_guard<std::mutex> Lock(J.F->Mu);
      std::vector<Completion> &Cs = J.F->Clients;
      size_t Keep = 0;
      for (size_t I = 0; I < Cs.size(); ++I) {
        RequestStatus St = Force ? ForceSt : Cs[I].deadStatus(Now);
        if (St != RequestStatus::Ok) {
          Dead.emplace_back(std::move(Cs[I]), St);
          continue;
        }
        // Never self-move: it would empty the completion's Name.
        if (Keep != I)
          Cs[Keep] = std::move(Cs[I]);
        ++Keep;
      }
      Cs.resize(Keep);
      Live = Keep > 0;
      J.F->Closed = !Live;
    }
    // Resolve outside the flight lock: a client's callback may block.
    for (auto &[C, St] : Dead)
      completeEmpty(std::move(C), St);
    if (!Live)
      forgetFlight(J);
    return Live;
  };

  // Releases a live job whose every client is gone: aborts its rows in
  // the decode state, frees its segment for recycling, returns its
  // router slot.
  auto AbortJobRow = [&](Job &J) {
    Batch.abort(J.Seg);
    Router.retire(S.Index);
    std::lock_guard<std::mutex> Lock(MetricsMu);
    --Totals.LiveSources;
  };

  // Retires a job whose source BeamBatch finished (\p F): feeds the
  // decode LRU, then closes the flight and completes every client it
  // serves. LRU insert FIRST: a duplicate dispatched after the close
  // mostly finds the cache entry up front.
  auto RetireJob = [&](Job &&J, nn::beamcore::BeamBatch::Finished &&F) {
    std::shared_ptr<const std::vector<nn::Hypothesis>> Hyps =
        std::make_shared<std::vector<nn::Hypothesis>>(std::move(F.Hyps));
    if (Opts.UseDecodeCache && !J.Src.empty())
      D.decodeCache().put(J.Src, J.ConstsVersion, BC, Hyps);
    std::vector<Completion> Clients;
    {
      std::lock_guard<std::mutex> Lock(J.F->Mu);
      J.F->Closed = true;
      Clients.swap(J.F->Clients);
    }
    forgetFlight(J);
    assert(!Clients.empty() && "the pre-tick sweep leaves a live client");
    // The front client's decode span starts when a row first served it:
    // the admission, or its attach when that came later.
    const Completion &Front = Clients.front();
    if (Front.Traced)
      TR.record(obs::SpanKind::Decode, Front.Seq,
                std::max(J.AdmitNs, Front.RouteNs), TR.nowNs(),
                static_cast<uint64_t>(F.Steps));
    Router.retire(S.Index);
    {
      std::lock_guard<std::mutex> Lock(MetricsMu);
      --Totals.LiveSources;
    }
    for (Completion &C : Clients)
      completeOne(std::move(C), Hyps);
  };

  // The per-tick cancellation sweep: a job with NO live client left
  // aborts its row entirely, recycling the segment for queued work in
  // the SAME iteration's admission pass.
  auto SweepJobs = [&](bool Force, RequestStatus ForceSt) {
    auto Now = Clock::now();
    size_t Keep = 0;
    for (size_t JI = 0; JI < Jobs.size(); ++JI) {
      if (!ShedDead(Jobs[JI], Now, Force, ForceSt)) {
        AbortJobRow(Jobs[JI]);
        continue; // Job dropped.
      }
      if (Keep != JI)
        Jobs[Keep] = std::move(Jobs[JI]);
      ++Keep;
    }
    Jobs.resize(Keep);
  };

  // Binds a pending job into a freed segment; false = no free segment,
  // or a weight-version mismatch with the live rows (the caller keeps it
  // pending until this shard's batch drains — an idle batch adopts the
  // new version).
  auto TryAdmit = [&](Job &J) {
    int Seg = Batch.admit(J.Enc);
    if (Seg < 0)
      return false;
    J.Seg = Seg;
    J.ConstsVersion =
        J.Enc->Consts ? J.Enc->Consts->Version : Model.weightVersion();
    J.AdmitNs = TR.enabled() ? TR.nowNs() : 0;
    {
      std::lock_guard<std::mutex> Lock(J.F->Mu);
      J.F->Admitted = true;
      // Queue wait ends HERE — at admission into a decode row — for the
      // request that started the flight AND for every duplicate that
      // attached while it was pending (none of them were served by a
      // row until now).
      for (Completion &C : J.F->Clients)
        C.QueueWait = secondsSince(C.SubmitTime);
      const Completion &Front = J.F->Clients.front();
      if (Front.Traced)
        TR.record(obs::SpanKind::AdmissionWait, Front.Seq, Front.RouteNs,
                  J.AdmitNs);
    }
    Ins.Sources->add(S.Index, 1);
    {
      std::lock_guard<std::mutex> Lock(MetricsMu);
      ++Totals.LiveSources;
      Totals.PeakLiveSources =
          std::max(Totals.PeakLiveSources, Totals.LiveSources);
    }
    Jobs.push_back(std::move(J));
    return true;
  };

  // Admits pending jobs in arrival order: dead clients shed first
  // (covering the deadline-expired-between-dispatch-and-admission
  // window), and a job with none left returns its router slot.
  auto ProcessPending = [&] {
    bool AdmitBlocked = false;
    size_t Keep = 0;
    for (size_t JI = 0; JI < Pending.size(); ++JI) {
      Job &J = Pending[JI];
      // Shed dead work before it binds a row (the job sweep's rule).
      if (!ShedDead(J, Clock::now(), /*Force=*/false, RequestStatus::Ok)) {
        Router.retire(S.Index);
        continue; // Job dropped, typed resolutions sent.
      }
      if (!AdmitBlocked && TryAdmit(J))
        continue;
      // Out of segments or version-deferred: later jobs wait behind
      // this one (arrival order).
      AdmitBlocked = true;
      if (Keep != JI)
        Pending[Keep] = std::move(J);
      ++Keep;
    }
    Pending.resize(Keep);
  };

  // Force-resolves EVERYTHING this shard holds as ShuttingDown (the
  // drain deadline passed): pending jobs, then live ones.
  auto ForceShedAll = [&] {
    auto Now = Clock::now();
    for (Job &J : Pending) {
      // Forced, so no client is left: always false.
      ShedDead(J, Now, /*Force=*/true, RequestStatus::ShuttingDown);
      Router.retire(S.Index);
    }
    Pending.clear();
    SweepJobs(/*Force=*/true, RequestStatus::ShuttingDown);
    assert(Jobs.empty() && "forced sweep leaves no jobs");
  };

  for (;;) {
    // -- gather routed work; block only when fully idle ---------------------
    {
      std::unique_lock<std::mutex> Lock(S.Mu);
      if (Jobs.empty() && Pending.empty()) {
        S.Cv.wait(Lock, [&] {
          return !S.Inbox.empty() ||
                 DispatchDone.load(std::memory_order_acquire);
        });
        if (S.Inbox.empty())
          return; // Dispatcher done and this shard has run dry.
      }
      Local.clear();
      Local.swap(S.Inbox);
    }
    for (Job &J : Local)
      Pending.push_back(std::move(J));
    // -- drain deadline: force-resolve local work, exit when routed dry -----
    if (Clock::now() >= drainDeadline()) {
      ForceShedAll();
      // Loop back to the idle wait: late inbox jobs (the dispatcher
      // is still shedding the queue) force-shed too; once DispatchDone
      // and the inbox is dry, the wait above returns us out.
      continue;
    }
    // -- cancellation sweep BEFORE admission: aborted rows free their -------
    // -- segments for this same iteration's ProcessPending ------------------
    SweepJobs(/*Force=*/false, RequestStatus::Ok);
    ProcessPending();
    if (Jobs.empty())
      continue; // Everything completed; re-block on the inbox.

    // -- one tick: a fused forward over every live row, each source's -----
    // -- selection; finished sources retire mid-flight ---------------------
    if (Jobs.size() > 1)
      for (Job &J : Jobs) {
        std::lock_guard<std::mutex> Lock(J.F->Mu);
        for (Completion &C : J.F->Clients)
          C.Shared = true;
      }
    const size_t Rows = static_cast<size_t>(Batch.rows());
    const bool TraceTick = TR.enabled();
    const uint64_t TickStart = TraceTick ? TR.nowNs() : 0;
    const uint64_t RegionsBefore = TickPool.regions();
    auto T0 = Clock::now();
    Finished.clear();
    Batch.step(Finished);
    Ins.DecodeSeconds->add(S.Index, secondsSince(T0));
    Ins.Steps->add(S.Index, 1);
    Ins.StepRows->add(S.Index, Rows);
    if (uint64_t Regions = TickPool.regions() - RegionsBefore) {
      Ins.ParallelRegions->add(S.Index, Regions);
      if (TraceTick)
        TR.record(obs::SpanKind::ParallelTile,
                  static_cast<uint64_t>(S.Index), TickStart, TR.nowNs(),
                  Regions, static_cast<uint64_t>(TickPool.threads()));
    }
    ++Tick;
    if (Injector.enabled() && Injector.slowTickAt(S.Index, Tick))
      std::this_thread::sleep_for(
          secondsToDuration(Injector.config().SlowTickSeconds));

    for (nn::beamcore::BeamBatch::Finished &F : Finished) {
      auto It = std::find_if(Jobs.begin(), Jobs.end(),
                             [&](const Job &J) { return J.Seg == F.Seg; });
      Job J = std::move(*It);
      Jobs.erase(It);
      RetireJob(std::move(J), std::move(F));
    }
    if (BC.Constraint) {
      // Publish this tick's oracle counters (single-writer bumps; the
      // shard-local struct resets so deltas stay per-tick).
      Ins.TokensMasked->add(S.Index, OracleStats.TokensMasked);
      Ins.BeamsKilled->add(S.Index, OracleStats.BeamsKilled);
      Ins.OracleSeconds->add(S.Index, OracleStats.OracleSeconds);
      if (TraceTick && OracleStats.OracleSeconds > 0) {
        // Synthesized from the tick's accumulated mask time: anchored
        // to end at now, inside the tick span.
        uint64_t End = TR.nowNs();
        uint64_t Dur = secondsToNs(OracleStats.OracleSeconds);
        TR.record(obs::SpanKind::OracleMask, static_cast<uint64_t>(S.Index),
                  End > Dur ? End - Dur : 0, End);
      }
      OracleStats = nn::ConstraintStats();
    }
    if (TraceTick)
      TR.record(obs::SpanKind::Tick, static_cast<uint64_t>(S.Index),
                TickStart, TR.nowNs(), Rows);
  }
}
