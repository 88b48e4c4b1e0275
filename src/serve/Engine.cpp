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
  uint64_t RouteNs = 0;  ///< Dispatch routed it; admission-wait start.

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

/// One live source in a shard's continuous batch: its segment in the
/// shard's BeamBatch (which holds its beams) and the completions it
/// serves — its own, plus any identical requests that arrived while it
/// was decoding (single-flight dedup, possibly routed from the dispatcher
/// across shards).
struct Engine::Job {
  Completion Main;
  std::vector<Completion> Attached;
  /// Byte key of the tokenized source, for single-flight matching.
  std::string SrcKey;
  /// True when the dispatcher registered SrcKey in the live-key
  /// registry for THIS job. A readmitted attach-fallback job carries
  /// the key (so later attaches can still merge on its shard) but no
  /// registration — its retirement must not erase an entry a newer
  /// job owns.
  bool Registered = false;
  /// The tokenized source itself: the decoded-hypotheses LRU key.
  std::vector<int> Src;
  /// Weight version the source was encoded under (LRU key component).
  uint64_t ConstsVersion = 0;

  int Seg = -1; ///< BeamBatch segment owned while live.
  /// Decode-span start (row admission), recorder-epoch ns; meaningful
  /// only when Main.Traced.
  uint64_t AdmitNs = 0;
};

/// One routed request, in a shard's inbox or pending queue. Attach
/// messages carry no encoder cache (the live target owns one); they
/// convert to admissions only on the retire race (see shardLoop).
struct Engine::ShardMsg {
  bool Attach = false;
  /// Admissions only: the dispatcher registered SrcKey for this source.
  bool Registered = false;
  Completion C;
  std::vector<int> Src;
  std::string SrcKey;
  std::shared_ptr<const nn::Transformer::EncoderCache> Enc;
  /// Duplicates that attached while this admission was still waiting
  /// for a free segment; become the job's Attached set on admission.
  std::vector<Completion> Attached;
};

/// One decode shard: a long-lived thread owning a BeamBatch (its decode
/// state, free segments and scratch) — nothing on its hot tick is shared
/// with other shards. Cross-thread surface: the inbox (dispatcher ->
/// shard) and the shard's single-writer instrument cells (the per-tick
/// utilization/constraint accumulators moved into the metrics
/// registry — Engine::Ins, cell == Index — keeping the exact
/// single-writer relaxed-store discipline they had as raw atomics).
struct Engine::Shard {
  int Index = 0;
  std::mutex Mu;
  std::condition_variable Cv;
  std::vector<ShardMsg> Inbox;
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

/// Retirement: complete the job's own request and every duplicate that
/// attached to it — all share one decode's hypotheses.
void Engine::finishJob(
    Job &&J, std::shared_ptr<const std::vector<nn::Hypothesis>> Hyps) {
  completeOne(std::move(J.Main), Hyps);
  for (Completion &C : J.Attached)
    completeOne(std::move(C), Hyps);
}

void Engine::sendToShard(Shard &S, ShardMsg &&Msg) {
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.Inbox.push_back(std::move(Msg));
  }
  S.Cv.notify_one();
}

/// The dispatcher: drains the shared queue in EDF order and routes each
/// request — shedding dead work FIRST (cancelled / expired / past the
/// drain deadline: typed resolution, no encode, no row) — then
/// decode-LRU hit, cross-shard single-flight attach, or least-loaded
/// placement (blocking while every shard is saturated; any shard's
/// retirement backfills). Encoding runs HERE, overlapped with every
/// shard's decode ticks, and encode failures are contained to the one
/// request they strike.
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
  // at every width, so dispatcher-side and shard-side encodes of one
  // source still dedupe through the encoder LRU.
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
    std::string SrcKey(reinterpret_cast<const char *>(Src.data()),
                       Src.size() * sizeof(int));
    // Cross-shard single-flight: an identical source decoding on ANY
    // shard serves this request too — route an attach to its shard
    // instead of occupying a row anywhere. (Determinism makes the
    // hypotheses identical by construction.)
    int LiveShard = Router.shardOf(SrcKey);
    if (LiveShard >= 0) {
      if (C.Traced)
        C.RouteNs = TR.nowNs();
      ShardMsg M;
      M.Attach = true;
      M.C = std::move(C);
      M.Src = std::move(Src);
      M.SrcKey = std::move(SrcKey);
      sendToShard(*ShardsVec[static_cast<size_t>(LiveShard)],
                  std::move(M));
      continue;
    }
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
        Router.retire(std::string(), SI);
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
      Router.retire(std::string(), SI);
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
    Router.registerKey(SrcKey, SI);
    ShardMsg M;
    M.Registered = !SrcKey.empty();
    M.C = std::move(C);
    M.Src = std::move(Src);
    M.SrcKey = std::move(SrcKey);
    M.Enc = std::move(Enc);
    sendToShard(*ShardsVec[static_cast<size_t>(SI)], std::move(M));
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
/// inbox swap and per-request completion bookkeeping take locks.
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
  // The shard's intra-tick worker pool: ticks and this shard's
  // readmission encodes both fan out over it (never concurrently — the
  // shard loop is single-threaded). TickThreads == 1 constructs no pool
  // and every consumer runs the sequential code path.
  nn::ParallelFor TickPool(Opts.TickThreads);
  Batch.state().TP = &TickPool;
  std::vector<std::unique_ptr<Job>> Jobs; // Admission order.
  /// Routed messages not yet admitted: attaches waiting to merge and
  /// admissions waiting for a free segment (or for a weight-version
  /// drain). Admission order is preserved; attaches never block.
  std::vector<ShardMsg> Pending;
  std::vector<ShardMsg> Local;
  std::vector<nn::beamcore::BeamBatch::Finished> Finished;
  uint64_t Tick = 0; ///< This shard's tick number (fault-injection id).

  // Releases a LIVE job's row state without finishing it: aborts its
  // rows in the decode state, frees its segment for recycling, and
  // drops its router slot/key.
  auto AbortJobRow = [&](Job &J) {
    Batch.abort(J.Seg);
    Router.retire(J.Registered ? J.SrcKey : std::string(), S.Index);
    std::lock_guard<std::mutex> Lock(MetricsMu);
    --Totals.LiveSources;
  };

  // Retires a job whose source BeamBatch finished (\p F): feeds the
  // decode LRU and completes every client it serves. LRU insert FIRST,
  // registry drop second: a dispatcher that still sees the key routes an
  // attach here (served from a live job or this cache entry); one that
  // no longer sees it finds the cache entry up front. Only the job that
  // REGISTERED the key may drop it: a readmitted (unregistered) job
  // retiring must not erase an entry a newer job for the same source
  // owns.
  auto RetireJob = [&](Job &&J, nn::beamcore::BeamBatch::Finished &&F) {
    if (J.Main.Traced)
      TR.record(obs::SpanKind::Decode, J.Main.Seq, J.AdmitNs, TR.nowNs(),
                static_cast<uint64_t>(F.Steps));
    std::shared_ptr<const std::vector<nn::Hypothesis>> Hyps =
        std::make_shared<std::vector<nn::Hypothesis>>(std::move(F.Hyps));
    if (Opts.UseDecodeCache && !J.Src.empty())
      D.decodeCache().put(J.Src, J.ConstsVersion, BC, Hyps);
    Router.retire(J.Registered ? J.SrcKey : std::string(), S.Index);
    {
      std::lock_guard<std::mutex> Lock(MetricsMu);
      --Totals.LiveSources;
    }
    finishJob(std::move(J), std::move(Hyps));
  };

  // The one dead-completion rule, for a live job and a pending message
  // alike. Dead attached completions resolve individually; a dead Main
  // promotes the oldest live attached completion (the decode is still
  // wanted — someone is waiting on it). With Force set every completion
  // resolves as \p ForceSt regardless of its own state (the
  // drain-deadline path). False once no client is left: the caller
  // aborts the row or returns the router slot.
  auto ShedDead = [&](Completion &Main, std::vector<Completion> &Attached,
                      Clock::time_point Now, bool Force,
                      RequestStatus ForceSt) {
    size_t AKeep = 0;
    for (size_t AI = 0; AI < Attached.size(); ++AI) {
      RequestStatus St = Force ? ForceSt : Attached[AI].deadStatus(Now);
      if (St != RequestStatus::Ok) {
        completeEmpty(std::move(Attached[AI]), St);
        continue;
      }
      // Never self-move: it would empty the completion's Name.
      if (AKeep != AI)
        Attached[AKeep] = std::move(Attached[AI]);
      ++AKeep;
    }
    Attached.resize(AKeep);
    RequestStatus MainSt = Force ? ForceSt : Main.deadStatus(Now);
    if (MainSt == RequestStatus::Ok)
      return true;
    completeEmpty(std::move(Main), MainSt);
    if (Attached.empty())
      return false;
    Main = std::move(Attached.front());
    Attached.erase(Attached.begin());
    return true;
  };

  // A pending message with no client left gives back the router slot
  // its admission reserved (attaches reserved none).
  auto DropMsg = [&](ShardMsg &M) {
    if (!M.Attach)
      Router.retire(M.Registered ? M.SrcKey : std::string(), S.Index);
  };

  // The per-tick cancellation sweep: a job with NO live client left
  // aborts its row entirely, recycling the segment for queued work in
  // the SAME iteration's admission pass.
  auto SweepJobs = [&](bool Force, RequestStatus ForceSt) {
    auto Now = Clock::now();
    size_t Keep = 0;
    for (size_t JI = 0; JI < Jobs.size(); ++JI) {
      Job &J = *Jobs[JI];
      if (!ShedDead(J.Main, J.Attached, Now, Force, ForceSt)) {
        AbortJobRow(J);
        continue; // Job dropped.
      }
      Jobs[Keep++] = std::move(Jobs[JI]);
    }
    Jobs.resize(Keep);
  };

  // Binds an admission into a freed segment; false = no free segment,
  // or a weight-version mismatch with the live rows (the caller keeps it
  // pending until this shard's batch drains — an idle batch adopts the
  // new version).
  auto TryAdmit = [&](ShardMsg &M) {
    int Seg = Batch.admit(M.Enc);
    if (Seg < 0)
      return false;
    // Queue wait ends HERE — at admission into a decode row — for the
    // admission itself AND for every duplicate that merged while it
    // was pending (none of them were served by a row until now).
    M.C.QueueWait = secondsSince(M.C.SubmitTime);
    for (Completion &AC : M.Attached)
      AC.QueueWait = secondsSince(AC.SubmitTime);
    if (M.C.Traced)
      TR.record(obs::SpanKind::AdmissionWait, M.C.Seq, M.C.RouteNs,
                TR.nowNs());
    auto J = std::make_unique<Job>();
    J->Main = std::move(M.C);
    J->AdmitNs = J->Main.Traced ? TR.nowNs() : 0;
    J->Attached = std::move(M.Attached);
    J->Registered = M.Registered;
    J->SrcKey = std::move(M.SrcKey);
    J->Src = std::move(M.Src);
    J->ConstsVersion =
        M.Enc->Consts ? M.Enc->Consts->Version : Model.weightVersion();
    J->Seg = Seg;
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

  // Routes every pending message: dead requests shed (covering the
  // deadline-expired-between-dispatch-and-admission window), attaches
  // merge into live jobs, pending admissions of the same source, the
  // decode LRU, or (rarely) readmit; admissions bind to segments in
  // arrival order.
  auto ProcessPending = [&] {
    bool AdmitBlocked = false;
    size_t Keep = 0;
    for (size_t MI = 0; MI < Pending.size(); ++MI) {
      ShardMsg &M = Pending[MI];
      // Shed dead work before it binds a row (the job sweep's rule).
      if (!ShedDead(M.C, M.Attached, Clock::now(), /*Force=*/false,
                    RequestStatus::Ok)) {
        DropMsg(M);
        continue; // Message dropped, typed resolutions sent.
      }
      if (M.Attach) {
        // Attach to the live job decoding this source...
        Job *Tgt = nullptr;
        for (const std::unique_ptr<Job> &J : Jobs)
          if (J->SrcKey == M.SrcKey) {
            Tgt = J.get();
            break;
          }
        if (Tgt) {
          // The duplicate's wait ends here: it is now served by a row.
          M.C.QueueWait = secondsSince(M.C.SubmitTime);
          Tgt->Attached.push_back(std::move(M.C));
          std::lock_guard<std::mutex> Lock(MetricsMu);
          ++Totals.InFlightDeduped;
          continue;
        }
        // ...or to a pending admission of the same source (the target
        // is still waiting for a segment)...
        ShardMsg *P = nullptr;
        for (size_t PJ = 0; PJ < Keep; ++PJ)
          if (!Pending[PJ].Attach && Pending[PJ].SrcKey == M.SrcKey) {
            P = &Pending[PJ];
            break;
          }
        if (P) {
          // QueueWait stays open: it is stamped when the pending
          // admission actually binds a row (TryAdmit).
          P->Attached.push_back(std::move(M.C));
          std::lock_guard<std::mutex> Lock(MetricsMu);
          ++Totals.InFlightDeduped;
          continue;
        }
        // ...or the target retired before the attach landed: its result
        // is in the decode LRU (retirement inserts BEFORE the registry
        // entry drops, so this is the common race outcome)...
        if (Opts.UseDecodeCache) {
          if (std::shared_ptr<const std::vector<nn::Hypothesis>> Hyps =
                  D.decodeCache().get(M.Src, Model.weightVersion(), BC)) {
            {
              std::lock_guard<std::mutex> Lock(MetricsMu);
              ++Totals.DecodeCacheHits;
            }
            M.C.QueueWait = secondsSince(M.C.SubmitTime);
            completeOne(std::move(M.C), std::move(Hyps));
            continue;
          }
        }
        // ...or (LRU disabled or evicted) readmit it on this shard:
        // an out-of-band slot, no registry entry — later duplicates go
        // through the dispatcher afresh. Rare by construction.
        M.Attach = false;
        M.Enc = D.encodeCached(M.Src, &TickPool);
        Router.placeOn(S.Index);
      }
      if (!AdmitBlocked && TryAdmit(M))
        continue;
      // Out of segments or version-deferred: later admissions wait
      // behind this one (arrival order), attaches still process.
      AdmitBlocked = true;
      if (Keep != MI)
        Pending[Keep] = std::move(M);
      ++Keep;
    }
    Pending.resize(Keep);
  };

  // Force-resolves EVERYTHING this shard holds as ShuttingDown (the
  // drain deadline passed): pending messages, then live jobs.
  auto ForceShedAll = [&] {
    auto Now = Clock::now();
    for (ShardMsg &M : Pending) {
      // Forced, so no client is left: always false.
      ShedDead(M.C, M.Attached, Now, /*Force=*/true,
               RequestStatus::ShuttingDown);
      DropMsg(M);
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
    for (ShardMsg &M : Local)
      Pending.push_back(std::move(M));
    // -- drain deadline: force-resolve local work, exit when routed dry -----
    if (Clock::now() >= drainDeadline()) {
      ForceShedAll();
      // Loop back to the idle wait: late inbox messages (the dispatcher
      // is still shedding the queue) force-shed too; once DispatchDone
      // and the inbox is dry, the wait above returns us out.
      continue;
    }
    // -- cancellation sweep BEFORE admission: aborted rows free their -------
    // -- segments for this same iteration's ProcessPending ------------------
    SweepJobs(/*Force=*/false, RequestStatus::Ok);
    ProcessPending();
    if (Jobs.empty())
      continue; // Everything attached/completed; re-block on the inbox.

    // -- one tick: a fused forward over every live row, each source's -----
    // -- selection; finished sources retire mid-flight ---------------------
    if (Jobs.size() > 1)
      for (const std::unique_ptr<Job> &J : Jobs) {
        J->Main.Shared = true;
        for (Completion &C : J->Attached)
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
      auto It = std::find_if(
          Jobs.begin(), Jobs.end(),
          [&](const std::unique_ptr<Job> &J) { return J->Seg == F.Seg; });
      std::unique_ptr<Job> J = std::move(*It);
      Jobs.erase(It);
      RetireJob(std::move(*J), std::move(F));
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
