//===- main.cpp - seeded serving benchmark for the SLaDe decompiler -------===//
//
// Runs one workload against the library's public API and prints, as the
// last line of stdout, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it is a JSON record of the run: host,
// engine thread budget, input digests, every timed phase and every named
// metric. Usage (perfbench/run.py builds and calls this):
//
//   slade_bench --workload stream-repeat|solo-arm-o3-constrained
//               --seed N --seconds S --trace 0|1 --weights DIR
//               [--expect-inputs HEX] [--trace-out FILE]
//
// The exit code is 0 only when every output check passed.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Spans.h"
#include "Staged.h"
#include "Stream.h"

#include "cc/Parser.h"
#include "core/Eval.h"
#include "core/Trainer.h"
#include "obs/Metrics.h"
#include "serve/Engine.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

using namespace slade;
using namespace slade::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

// -- workload definitions -----------------------------------------------------

/// p99 with nearest rank floor(0.99 N) has N - 1 - floor(0.99 N) samples
/// beyond it; 1010 is the smallest N that leaves 10.
constexpr size_t MinPhaseRequests = 1010;
/// The one latency limit: a workload whose reported p99 is above it
/// serves nothing within the SLO.
constexpr double SloLimitSeconds = 0.100;
/// The stream serves this many phases and reports the median of the
/// phases' own p50, p99 and served rate, so one phase that a noisy
/// neighbour slowed does not move the result. Solo decompiles its set this
/// many times, and each call's latency is the median its function got over
/// the passes: one closed-loop client has no queue whose tail such a
/// median could hide.
constexpr int StreamPhases = 15;
constexpr int SoloPasses = 3;
/// Closed-loop clients of the stream: requests in the engine at any time.
constexpr int StreamClients = 8;
/// Engine thread budget of the stream: 2 shards x 1 tick thread, the
/// dispatcher and one verify worker (plus the clients, which mostly wait).
constexpr int StreamShards = 2;
constexpr int StreamTickThreads = 1;
constexpr int StreamVerifyThreads = 1;
/// Repetitions of the set-up measurement; setup_s is their median.
constexpr int SetupRepeats = 21;

enum class Kind { StreamRepeat, Solo };

struct WorkloadSpec {
  const char *Name;
  Kind K;
  const char *Weights; ///< Checkpoint name under the weights directory.
  asmx::Dialect D;
  bool Optimize;
  uint64_t CorpusSeed; ///< Pinned: fixes the function set.
  size_t Functions;    ///< Size of the function set.
  // Stream only: requests per phase, of which the first Pool functions
  // recur (Zipf draws) and the rest are never-seen functions, all of them
  // in every phase. Each phase is at least MinPhaseRequests so every p99
  // has 10 samples beyond it.
  size_t PhaseRequests;
  size_t Pool;
  double ZipfExponent;
};

const WorkloadSpec Workloads[] = {
    {"stream-repeat", Kind::StreamRepeat, "slade_x86_O0", asmx::Dialect::X86,
     false, 0x5eed0002, 310, 1500, 160, 1.0},
    {"solo-arm-o3-constrained", Kind::Solo, "slade_arm_O3",
     asmx::Dialect::Arm, true, 0x5eed0003, 1010, 0, 0, 0},
};

core::Decompiler::Options streamReferenceOptions() {
  core::Decompiler::Options O; // k=5, MaxLen 220, type inference on.
  O.VerifyThreads = 1;         // The engine verifies in beam order too.
  return O;
}

core::Decompiler::Options soloOptions() {
  core::Decompiler::Options O; // Library-default verify threads.
  O.Constrain = nn::ConstrainMode::Syntax;
  return O;
}

serve::EngineOptions streamEngineOptions() {
  serve::EngineOptions EO; // k=5, MaxLen 220, both LRUs on, no speculation.
  EO.Shards = StreamShards;
  EO.TickThreads = StreamTickThreads;
  EO.VerifyThreads = StreamVerifyThreads;
  return EO;
}

// -- small helpers ------------------------------------------------------------

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : -1.0);
  return Buf;
}

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string S = "{";
  for (size_t I = 0; I < Ms.size(); ++I) {
    if (I)
      S += ", ";
    S += "\"" + Ms[I].Name + "\": {\"value\": " + num(Ms[I].Value) +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  return S + "}";
}

/// Nearest-rank p50 or p99 through the library's one implementation
/// (obs::sampleStats); NaN when fewer than 10 samples lie beyond it.
double percentile(const std::vector<double> &Samples, double P) {
  size_t N = Samples.size();
  size_t Rank = static_cast<size_t>(P * static_cast<double>(N));
  if (N == 0 || Rank + 10 >= N)
    return NAN;
  obs::SampleStats S = obs::sampleStats(Samples);
  return P == 0.5 ? S.P50 : S.P99;
}

double median(std::vector<double> V) {
  if (V.empty())
    return NAN;
  std::sort(V.begin(), V.end());
  size_t H = V.size() / 2;
  return V.size() % 2 ? V[H] : (V[H - 1] + V[H]) / 2;
}

/// Latencies of repeated solo passes over the same inputs, made robust to
/// the pass a call happened to land in: every call's latency becomes the
/// median latency its function got over all the passes.
std::vector<double> perFunctionMedians(
    const std::vector<const core::EvalTask *> &Tasks,
    const std::vector<double> &Latency) {
  std::map<const core::EvalTask *, std::vector<double>> ByTask;
  for (size_t I = 0; I < Tasks.size(); ++I)
    ByTask[Tasks[I]].push_back(Latency[I]);
  std::map<const core::EvalTask *, double> Median;
  for (auto &[T, L] : ByTask)
    Median[T] = median(L);
  std::vector<double> Out(Tasks.size());
  for (size_t I = 0; I < Tasks.size(); ++I)
    Out[I] = Median[Tasks[I]];
  return Out;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// Steal share: of the CPU time this host's vCPUs wanted between two
/// readings, the part the hypervisor gave to other guests. It is recorded
/// per phase because it, not the program, explains most run-to-run noise
/// on a shared host.
class StealMeter {
public:
  StealMeter() : Start(read()) {}
  double share() const {
    Jiffies Now = read();
    double Steal = Now.Steal - Start.Steal, Busy = Now.Busy - Start.Busy;
    return Steal + Busy > 0 ? Steal / (Steal + Busy) : 0;
  }

private:
  struct Jiffies {
    double Busy = 0, Steal = 0;
  };
  static Jiffies read() {
    // cpu user nice system idle iowait irq softirq steal
    std::ifstream In("/proc/stat");
    std::string Cpu;
    double V[8] = {};
    In >> Cpu >> V[0] >> V[1] >> V[2] >> V[3] >> V[4] >> V[5] >> V[6] >> V[7];
    return {V[0] + V[1] + V[2] + V[5] + V[6], V[7]};
  }
  Jiffies Start;
};

std::string hostJson() {
  __builtin_cpu_init();
  std::ostringstream S;
  S << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"avx2\": " << (__builtin_cpu_supports("avx2") ? "true" : "false")
    << ", \"fma\": " << (__builtin_cpu_supports("fma") ? "true" : "false")
    << ", \"avx512f\": "
    << (__builtin_cpu_supports("avx512f") ? "true" : "false")
    << ", \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
    << SLADE_BENCH_BUILD_TYPE << "\"}";
  return S.str();
}

std::string budgetJson(Kind K) {
  std::ostringstream S;
  if (K == Kind::Solo)
    S << "{\"client_threads\": 1, \"verify_threads\": "
      << ThreadPool::defaultConcurrency() << "}";
  else
    S << "{\"shards\": " << StreamShards
      << ", \"tick_threads_per_shard\": " << StreamTickThreads
      << ", \"dispatcher\": 1, \"verify_threads\": " << StreamVerifyThreads
      << ", \"clients\": " << StreamClients << "}";
  return S.str();
}

/// Fisher-Yates with the library's RNG, so orders repeat on every host.
template <typename T> void shuffleWith(std::vector<T> &V, SplitMix64 &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng.below(I)]);
}

// -- set-up -------------------------------------------------------------------

struct Loaded {
  std::unique_ptr<core::Decompiler> D;
  std::vector<double> SetupSeconds; ///< One per repetition.
};

/// Model load to ready-to-serve, timed SetupRepeats times: checkpoint
/// load, decode constants, packed weights, then the vocabulary constraint
/// (constrained solo) or the engine's construction (the stream). Stopping
/// the engine is not set-up and is left out: joining its idle threads
/// measures how fast the host wakes them, not the program. The verify
/// pools are built by the library on first use and cannot be built ahead
/// of it through the public API.
Loaded loadAndSetUp(const WorkloadSpec &W, const std::string &WeightsDir) {
  Loaded L;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Clock::time_point T0 = Clock::now();
    Expected<core::TrainedSystem> Sys =
        core::loadSystem(WeightsDir, W.Weights);
    if (!Sys) {
      std::fprintf(stderr, "error: cannot load weights %s/%s: %s\n",
                   WeightsDir.c_str(), W.Weights,
                   Sys.errorMessage().c_str());
      std::exit(2);
    }
    auto D = std::make_unique<core::Decompiler>(std::move(Sys->Tok),
                                                std::move(Sys->Model));
    D->model().decodeConstants();
    D->model().packedWeights();
    if (W.K == Kind::Solo) {
      D->vocabConstraint();
      L.SetupSeconds.push_back(since(T0));
    } else {
      serve::Engine Eng(*D, streamEngineOptions());
      L.SetupSeconds.push_back(since(T0));
    }
    L.D = std::move(D);
  }
  return L;
}

// -- results shared by every workload -----------------------------------------

/// The solo Decompiler::decompile outcome of every distinct input a run
/// served: the stream's outputs must equal it, and the quality metrics and
/// the traced run's staged outcomes are taken from it.
struct Reference {
  std::vector<const core::EvalTask *> Distinct;
  std::vector<core::HypothesisOutcome> Outcomes;
  std::map<const core::EvalTask *, size_t> Index;
  core::Decompiler::Options Options;

  const core::HypothesisOutcome &of(const core::EvalTask *T) const {
    return Outcomes[Index.at(T)];
  }
};

Reference referenceOf(std::vector<const core::EvalTask *> Distinct,
                      std::vector<core::HypothesisOutcome> Outcomes,
                      const core::Decompiler::Options &Opts) {
  Reference R;
  R.Distinct = std::move(Distinct);
  R.Outcomes = std::move(Outcomes);
  R.Options = Opts;
  for (size_t I = 0; I < R.Distinct.size(); ++I)
    R.Index[R.Distinct[I]] = I;
  return R;
}

/// Decompiles every input through the solo path on all cores. Untimed,
/// and never while a timed phase runs.
Reference decompileAll(const core::Decompiler &D,
                       std::vector<const core::EvalTask *> Distinct,
                       const core::Decompiler::Options &Opts) {
  std::vector<core::HypothesisOutcome> Outcomes(Distinct.size());
  ThreadPool Pool(ThreadPool::defaultConcurrency());
  Pool.parallelFor(Distinct.size(), [&](size_t I) {
    Outcomes[I] = D.decompile(*Distinct[I], Opts);
  });
  return referenceOf(std::move(Distinct), std::move(Outcomes), Opts);
}

/// Everything a workload's timed run produces.
struct RunResult {
  Reference Ref;
  std::vector<Metric> E2E;
  std::vector<Metric> ServeLayer; ///< serve.* and gen.* per-layer metrics.
  size_t Attempted = 0;
  size_t Failed = 0;
  size_t Repeated = 0; ///< Requests whose function the caches had seen.
  std::string Phases = "[]";
  uint64_t ScheduleDigest = 0;
};

void addQuality(std::vector<Metric> &E2E, const Reference &Ref) {
  std::vector<core::ItemRecord> Records(Ref.Outcomes.size());
  for (size_t I = 0; I < Ref.Outcomes.size(); ++I) {
    Records[I].Produced = Ref.Outcomes[I].Produced;
    Records[I].Compiles = Ref.Outcomes[I].Compiles;
    Records[I].IOCorrect = Ref.Outcomes[I].IOCorrect;
    Records[I].EditSim = Ref.Outcomes[I].EditSim;
  }
  core::ToolScores S = core::aggregate(Records);
  E2E.push_back({"io_accuracy_pct", S.IOAccuracy, "%"});
  E2E.push_back({"compile_rate_pct", S.CompileRate, "%"});
  E2E.push_back({"edit_similarity_pct", S.EditSimilarity, "%"});
}

void appendJson(std::string &List, const std::string &Item) {
  List.insert(List.size() - 1, (List.size() > 2 ? ", " : "") + Item);
}

// -- the stream --------------------------------------------------------------

std::vector<const core::EvalTask *> taskPointers(const FunctionSet &Set) {
  std::vector<const core::EvalTask *> Out;
  for (const core::EvalTask &T : Set.Tasks)
    Out.push_back(&T);
  return Out;
}

/// Zipf(s) draws over ranks [0, N) by inverse CDF.
class Zipf {
public:
  Zipf(size_t N, double S) : Cdf(N) {
    double Sum = 0;
    for (size_t I = 0; I < N; ++I)
      Cdf[I] = Sum += 1.0 / std::pow(static_cast<double>(I + 1), S);
    for (double &C : Cdf)
      C /= Sum;
  }
  size_t draw(SplitMix64 &Rng) const {
    double U = static_cast<double>(Rng.next() >> 11) * 0x1.0p-53;
    size_t I = static_cast<size_t>(
        std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
    return std::min(I, Cdf.size() - 1);
  }

private:
  std::vector<double> Cdf;
};

/// What stream-repeat serves: a pool of functions that recur and the
/// never-seen rest, plus what the warm-up left in the caches (each pool
/// function's source tokens and decoded hypotheses).
struct RepeatInputs {
  std::vector<const core::EvalTask *> Distinct, Pool, Fresh;
  std::vector<std::vector<int>> Sources;
  std::vector<std::shared_ptr<const std::vector<nn::Hypothesis>>> Hyps;
  Zipf Draws;
};

/// Warm-up, untimed: the pool once through an engine, which leaves the
/// decode LRU holding the pool's hypotheses and the encoder LRU its last
/// sources. Every phase starts from exactly that state (restoreCaches).
RepeatInputs warmUp(const WorkloadSpec &W, const core::Decompiler &D,
                    const FunctionSet &Set) {
  std::vector<const core::EvalTask *> All = taskPointers(Set);
  RepeatInputs In{All, {}, {}, {}, {}, Zipf(W.Pool, W.ZipfExponent)};
  In.Pool.assign(All.begin(), All.begin() + W.Pool);
  In.Fresh.assign(All.begin() + W.Pool, All.end());
  D.clearDecodeCache();
  D.clearEncoderCache();
  serve::Engine Eng(D, streamEngineOptions());
  std::vector<serve::Handle> Handles;
  for (const core::EvalTask *T : In.Pool) {
    serve::DecompileRequest R;
    R.Name = T->Name;
    R.Task = T;
    Handles.push_back(Eng.submit(std::move(R)));
  }
  for (size_t I = 0; I < In.Pool.size(); ++I) {
    serve::RequestResult R = Handles[I].get();
    if (!R.ok()) {
      std::fprintf(stderr, "error: warm-up request %s: %s\n",
                   R.Name.c_str(), serve::requestStatusName(R.Status));
      std::exit(2);
    }
    In.Sources.push_back(D.tokenizer().encode(In.Pool[I]->Prog.TargetAsm));
    In.Hyps.push_back(std::make_shared<const std::vector<nn::Hypothesis>>(
        std::move(R.Hyps)));
  }
  return In;
}

/// Puts the caches back in the state the warm-up left them in.
void restoreCaches(const core::Decompiler &D, const RepeatInputs &In) {
  D.clearDecodeCache();
  D.clearEncoderCache();
  nn::BeamConfig Key; // The engine's cache key: k=5, MaxLen 220, no mask.
  for (size_t I = 0; I < In.Sources.size(); ++I)
    D.decodeCache().put(In.Sources[I], D.model().weightVersion(), Key,
                        In.Hyps[I]);
  size_t Cap = D.encoderCache().capacity();
  for (size_t I = In.Sources.size() > Cap ? In.Sources.size() - Cap : 0;
       I < In.Sources.size(); ++I)
    D.encodeCached(In.Sources[I]);
}

/// A phase's requests: every never-seen function once, the rest Zipf
/// draws over the pool, shuffled together.
std::vector<const core::EvalTask *>
drawPhase(const WorkloadSpec &W, const RepeatInputs &In, uint64_t PhaseSeed) {
  SplitMix64 Rng(PhaseSeed);
  std::vector<const core::EvalTask *> Tasks = In.Fresh;
  while (Tasks.size() < W.PhaseRequests)
    Tasks.push_back(In.Pool[In.Draws.draw(Rng)]);
  shuffleWith(Tasks, Rng);
  return Tasks;
}

/// One phase's figures. Its requests are checked as soon as it ends and
/// not kept, so a run's memory does not grow with its phases.
struct Phase {
  size_t Requests = 0;
  double P50 = NAN, P99 = NAN, ServedRate = 0, Steal = 0;
  std::vector<double> QueueWait; ///< Ok requests, submit -> decode row.
  std::vector<double> Resubmit;
  double SubmitBlockedSeconds = 0, WallSeconds = 0;
  serve::EngineMetrics Engine;
  nn::EncoderLRU::Stats EncoderBefore, EncoderAfter;
};

/// Serves phase \p Repeat on \p Eng, from the warmed cache state, and
/// checks every request: resolved Ok, verified and not degraded, with
/// exactly the outcome solo Decompiler::decompile gives its input.
Phase servePhase(const WorkloadSpec &W, const core::Decompiler &D,
                 serve::Engine &Eng, const RepeatInputs &In,
                 const Reference &Ref, uint64_t Seed, int Repeat,
                 RunResult &Out) {
  Phase P;
  // The run seed drives the draws and their order only. Their digest goes
  // into the record, so two runs of one seed can be compared.
  uint64_t PhaseSeed = fnv1a64("phase/" + std::to_string(Seed) + "/" +
                               std::to_string(Repeat));
  std::vector<const core::EvalTask *> Tasks = drawPhase(W, In, PhaseSeed);
  uint64_t H = PhaseSeed;
  for (const core::EvalTask *T : Tasks)
    H = fnv1a64(hex(H) + T->Name);
  Out.ScheduleDigest = fnv1a64(hex(Out.ScheduleDigest) + hex(H));

  restoreCaches(D, In);
  P.EncoderBefore = D.encoderCache().stats();
  StealMeter Steal;
  PhaseResult R = runPhase(Eng, Tasks, StreamClients);
  P.Steal = Steal.share();
  P.EncoderAfter = D.encoderCache().stats();

  std::vector<double> Lat = R.LatencySeconds;
  std::set<const core::EvalTask *> Seen(In.Pool.begin(), In.Pool.end());
  for (size_t I = 0; I < Tasks.size(); ++I) {
    const serve::RequestResult &Res = R.Results[I];
    ++Out.Attempted;
    Out.Repeated += !Seen.insert(Tasks[I]).second;
    if (Res.ok())
      P.QueueWait.push_back(Res.QueueWaitSeconds);
    else
      Lat[I] = INFINITY; // A failed request misses the limit.
    if (Res.ok() && Res.Verified && !Res.Degraded &&
        sameOutcome(Res.Outcome, Ref.of(Tasks[I])))
      continue;
    if (++Out.Failed <= 3)
      std::fprintf(stderr,
                   "error: %s: status %s, outcome differs from solo "
                   "decompile\n",
                   Res.Name.c_str(), serve::requestStatusName(Res.Status));
  }
  P.Requests = Tasks.size();
  P.P50 = percentile(Lat, 0.5);
  P.P99 = percentile(Lat, 0.99);
  P.ServedRate = static_cast<double>(Tasks.size()) / R.WallSeconds;
  P.Resubmit = std::move(R.ResubmitSeconds);
  P.SubmitBlockedSeconds = R.SubmitBlockedSeconds;
  P.WallSeconds = R.WallSeconds;
  P.Engine = R.Engine;
  std::fprintf(stderr,
               "[%s] phase %d (%zu requests, %d clients): %.0f fn/s, p50 "
               "%.2f ms, p99 %.1f ms, steal %.2f\n",
               W.Name, Repeat, P.Requests, StreamClients, P.ServedRate,
               P.P50 * 1e3, P.P99 * 1e3, P.Steal);
  return P;
}

std::string phaseJson(const Phase &P, int Repeat) {
  return "{\"repeat\": " + std::to_string(Repeat) +
         ", \"requests\": " + std::to_string(P.Requests) +
         ", \"clients\": " + std::to_string(StreamClients) +
         ", \"p50_ms\": " + num(P.P50 * 1e3) +
         ", \"p99_ms\": " + num(P.P99 * 1e3) +
         ", \"served_rps\": " + num(P.ServedRate) +
         ", \"steal_share\": " + num(P.Steal) + "}";
}

/// serve.* from the first phase's engine snapshot (the engine was fresh,
/// so its counters are that phase's) and RequestResults, gen.* over every
/// phase. With no phases (solo: no engine, no clients) every value is 0.
std::vector<Metric> serveLayer(const std::vector<Phase> &Phases,
                               const Phase &First) {
  const serve::EngineMetrics &M = First.Engine;
  double Wall = First.WallSeconds;
  double N = static_cast<double>(First.Requests);
  auto Share = [](double Part, double Whole) {
    return Whole > 0 ? Part / Whole : 0;
  };
  double ShardMax = 0;
  for (const serve::ShardUtil &S : M.Shards)
    ShardMax = std::max(ShardMax, Share(S.DecodeSeconds, Wall));
  double EncHits =
      static_cast<double>(First.EncoderAfter.Hits - First.EncoderBefore.Hits);
  double EncMisses = static_cast<double>(First.EncoderAfter.Misses -
                                         First.EncoderBefore.Misses);
  std::vector<double> Resubmit;
  double Blocked = 0;
  for (const Phase &P : Phases) {
    Resubmit.insert(Resubmit.end(), P.Resubmit.begin(), P.Resubmit.end());
    Blocked += P.SubmitBlockedSeconds;
  }
  auto Ms = [](double Seconds) {
    return std::isfinite(Seconds) ? Seconds * 1e3 : 0;
  };
  return {
      {"serve.queue_wait_p50_ms", Ms(percentile(First.QueueWait, 0.5)), "ms"},
      {"serve.queue_wait_p99_ms", Ms(percentile(First.QueueWait, 0.99)),
       "ms"},
      {"serve.dispatch_encode_busy_share", Share(M.EncodeSeconds, Wall),
       "share"},
      {"serve.shard_busy_share_max", ShardMax, "share"},
      {"serve.rows_per_tick",
       Share(static_cast<double>(M.StepRows), static_cast<double>(M.Steps)),
       "rows"},
      {"serve.ticks", static_cast<double>(M.Steps), "count"},
      {"serve.peak_live_sources", static_cast<double>(M.PeakLiveSources),
       "count"},
      {"serve.decode_cache_hit_share",
       Share(static_cast<double>(M.DecodeCacheHits), N), "share"},
      {"serve.encoder_cache_hit_share", Share(EncHits, EncHits + EncMisses),
       "share"},
      {"serve.inflight_attach_share",
       Share(static_cast<double>(M.InFlightDeduped), N), "share"},
      {"serve.verify_busy_share",
       Share(M.VerifySeconds, Wall * StreamVerifyThreads), "share"},
      {"gen.late_p99_ms", Ms(percentile(Resubmit, 0.99)), "ms"},
      {"gen.submit_blocked_s", Blocked, "s"},
  };
}

/// The stream run: StreamPhases phases of StreamClients closed-loop
/// clients on one engine, as a server runs. latency_p50_ms, latency_p99_ms
/// and fn_per_s are the medians of the phases' own; slo_rate_rps is
/// fn_per_s when that p99 meets the limit, else 0. The reference outcomes
/// are computed first, untimed.
RunResult runStreamRepeat(const WorkloadSpec &W, const core::Decompiler &D,
                          const FunctionSet &Set, uint64_t Seed) {
  RunResult Out;
  const RepeatInputs In = warmUp(W, D, Set);
  Out.Ref = decompileAll(D, In.Distinct, streamReferenceOptions());
  serve::Engine Eng(D, streamEngineOptions());
  std::vector<Phase> Phases;
  std::vector<double> P50, P99, Served;
  for (int R = 0; R < StreamPhases; ++R) {
    Phases.push_back(servePhase(W, D, Eng, In, Out.Ref, Seed, R, Out));
    const Phase &P = Phases.back();
    appendJson(Out.Phases, phaseJson(P, R));
    P50.push_back(P.P50);
    P99.push_back(P.P99);
    Served.push_back(P.ServedRate);
  }
  Eng.stop();
  double FnPerS = median(Served);
  Out.E2E = {
      {"peak_rss_mb", peakRssMb(), "MiB"},
      {"latency_p50_ms", median(P50) * 1e3, "ms"},
      {"latency_p99_ms", median(P99) * 1e3, "ms"},
      {"slo_rate_rps", median(P99) <= SloLimitSeconds ? FnPerS : 0, "req/s"},
      {"fn_per_s", FnPerS, "fn/s"},
  };
  Out.ServeLayer = serveLayer(Phases, Phases.front());
  addQuality(Out.E2E, Out.Ref);
  return Out;
}

// -- solo ---------------------------------------------------------------------

/// The functions for which the constrained beam search yields a candidate
/// that does not parse (the grammar oracle promises none), or whose
/// reference outcome is not one of its candidates, each with the reason.
/// Untimed, on all cores: it searches each function once more, as
/// decompile does, and parses every candidate the way hypotheses are
/// parsed.
std::map<const core::EvalTask *, const char *>
unparsedCandidates(const core::Decompiler &D, const Reference &Ref) {
  nn::BeamConfig BC;
  BC.BeamSize = Ref.Options.BeamSize;
  BC.MaxLen = Ref.Options.MaxLen;
  BC.Constraint = &D.vocabConstraint();
  std::vector<const char *> Why(Ref.Distinct.size(), nullptr);
  ThreadPool Pool(ThreadPool::defaultConcurrency());
  Pool.parallelFor(Ref.Distinct.size(), [&](size_t I) {
    const core::EvalTask &T = *Ref.Distinct[I];
    std::vector<nn::Hypothesis> Hyps = nn::beamSearch(
        D.model(), D.encodeCached(D.tokenizer().encode(T.Prog.TargetAsm)),
        BC);
    bool Found = !Ref.Outcomes[I].Produced;
    for (const nn::Hypothesis &H : Hyps) {
      std::string C = D.tokenizer().decode(H.Tokens);
      cc::TypeContext Ctx;
      cc::ParseOptions PO;
      PO.Partial = true;
      if (!cc::parseC(C, Ctx, PO))
        Why[I] = "a beam candidate does not parse";
      Found |= C == Ref.Outcomes[I].CSource;
    }
    if (!Found && !Why[I])
      Why[I] = "the outcome is not a beam candidate";
  });
  std::map<const core::EvalTask *, const char *> Out;
  for (size_t I = 0; I < Why.size(); ++I)
    if (Why[I])
      Out[Ref.Distinct[I]] = Why[I];
  return Out;
}

/// Closed loop: one client decompiles the whole set, each call issued when
/// the previous returns, SoloPasses times in seeded orders. Latency is the
/// per-function median over the passes and the rate their median. The
/// first pass's outcomes are the reference: a call passes its check when
/// it gives the same outcome and every candidate of its function parses.
RunResult runSolo(const WorkloadSpec &W, const core::Decompiler &D,
                  const FunctionSet &Set, uint64_t Seed) {
  RunResult Out;
  const core::Decompiler::Options Opts = soloOptions();
  std::vector<const core::EvalTask *> Calls;
  std::vector<core::HypothesisOutcome> Outcomes;
  std::vector<double> Latency, Rate;
  for (int Pass = 0; Pass < SoloPasses; ++Pass) {
    std::vector<const core::EvalTask *> Order = taskPointers(Set);
    SplitMix64 Rng(fnv1a64("order/" + std::to_string(Seed) + "/" +
                           std::to_string(Pass)));
    shuffleWith(Order, Rng);
    for (const core::EvalTask *T : Order)
      Out.ScheduleDigest = fnv1a64(hex(Out.ScheduleDigest) + T->Name);
    D.clearEncoderCache();
    std::vector<double> Lat(Order.size());
    StealMeter Steal;
    Clock::time_point T0 = Clock::now();
    for (size_t I = 0; I < Order.size(); ++I) {
      Clock::time_point S = Clock::now();
      Outcomes.push_back(D.decompile(*Order[I], Opts));
      Lat[I] = since(S);
    }
    double Wall = since(T0);
    double StealShare = Steal.share();
    Rate.push_back(static_cast<double>(Order.size()) / Wall);
    std::fprintf(stderr,
                 "[%s] pass %d: %zu calls in %.1f s, p50 %.1f ms, p99 %.1f "
                 "ms, steal %.2f\n",
                 W.Name, Pass, Order.size(), Wall,
                 percentile(Lat, 0.5) * 1e3, percentile(Lat, 0.99) * 1e3,
                 StealShare);
    appendJson(Out.Phases, "{\"pass\": " + std::to_string(Pass) +
                               ", \"calls\": " + std::to_string(Order.size()) +
                               ", \"wall_s\": " + num(Wall) +
                               ", \"p50_ms\": " +
                               num(percentile(Lat, 0.5) * 1e3) +
                               ", \"p99_ms\": " +
                               num(percentile(Lat, 0.99) * 1e3) +
                               ", \"steal_share\": " + num(StealShare) + "}");
    Calls.insert(Calls.end(), Order.begin(), Order.end());
    Latency.insert(Latency.end(), Lat.begin(), Lat.end());
  }
  double PeakRss = peakRssMb();

  size_t N = Set.Tasks.size();
  Out.Ref = referenceOf(
      std::vector<const core::EvalTask *>(Calls.begin(), Calls.begin() + N),
      std::vector<core::HypothesisOutcome>(Outcomes.begin(),
                                           Outcomes.begin() + N),
      Opts);
  std::map<const core::EvalTask *, const char *> Unparsed =
      unparsedCandidates(D, Out.Ref);
  for (size_t I = 0; I < Calls.size(); ++I) {
    ++Out.Attempted;
    auto Bad = Unparsed.find(Calls[I]);
    bool Same = sameOutcome(Outcomes[I], Out.Ref.of(Calls[I]));
    if (Same && Bad == Unparsed.end())
      continue;
    if (++Out.Failed <= 3)
      std::fprintf(stderr, "error: %s: %s\n", Calls[I]->Name.c_str(),
                   !Same ? "the outcome differs between calls" : Bad->second);
  }

  Latency = perFunctionMedians(Calls, Latency);
  double P99 = percentile(Latency, 0.99);
  double FnPerS = median(Rate);
  Out.E2E = {
      {"peak_rss_mb", PeakRss, "MiB"},
      {"latency_p50_ms", percentile(Latency, 0.5) * 1e3, "ms"},
      {"latency_p99_ms", P99 * 1e3, "ms"},
      // One closed-loop client builds no backlog: it meets the limit at
      // its own rate when its p99 does.
      {"slo_rate_rps", P99 <= SloLimitSeconds ? FnPerS : 0, "req/s"},
      {"fn_per_s", FnPerS, "fn/s"},
  };
  addQuality(Out.E2E, Out.Ref);
  Out.ServeLayer = serveLayer({}, Phase());
  return Out;
}

// -- the traced run -----------------------------------------------------------

/// Drives every distinct input once through the staged calls, twice: with
/// recording on and with it off, alternating which goes first. The spans
/// of the recorded pass give each layer's calls and self time; their
/// difference in wall time is the recorder's overhead. Every staged
/// outcome must equal the run's Decompiler::decompile outcome.
std::vector<Metric> runTraced(const core::Decompiler &D, const Reference &Ref,
                              const std::string &TraceOut,
                              size_t &Mismatches) {
  SpanRecorder On(true), Off(false);
  StagedCounters C, Unused;
  double OnSeconds = 0, OffSeconds = 0;
  for (size_t I = 0; I < Ref.Distinct.size(); ++I) {
    const core::EvalTask &T = *Ref.Distinct[I];
    core::HypothesisOutcome A, B;
    auto Timed = [&](SpanRecorder &Rec, StagedCounters &Cs,
                     core::HypothesisOutcome &O) {
      Clock::time_point T0 = Clock::now();
      O = stagedDecompile(D, T, Ref.Options, Rec, I, Cs);
      return since(T0);
    };
    if (I % 2 == 0) {
      OnSeconds += Timed(On, C, A);
      OffSeconds += Timed(Off, Unused, B);
    } else {
      OffSeconds += Timed(Off, Unused, B);
      OnSeconds += Timed(On, C, A);
    }
    if ((!sameOutcome(A, Ref.Outcomes[I]) ||
         !sameOutcome(B, Ref.Outcomes[I])) &&
        ++Mismatches <= 3)
      std::fprintf(stderr,
                   "error: %s: staged outcome differs from "
                   "Decompiler::decompile\n",
                   T.Name.c_str());
  }
  if (!TraceOut.empty() && !On.writeChromeTrace(TraceOut))
    std::fprintf(stderr, "warning: cannot write %s\n", TraceOut.c_str());
  std::fprintf(stderr,
               "[trace] %zu inputs, %zu spans, recording on %.2f s vs off "
               "%.2f s\n",
               Ref.Distinct.size(), On.spans().size(), OnSeconds, OffSeconds);

  std::map<std::string, SpanTotals> S = On.totals();
  auto Calls = [&S](const char *N) {
    return static_cast<double>(S[N].Calls);
  };
  auto Busy = [&S](const char *N) { return S[N].SelfSeconds; };
  auto Count = [](uint64_t V) { return static_cast<double>(V); };
  return {
      {"tok.encode.calls", Calls("tok.encode"), "count"},
      {"tok.encode.busy_s", Busy("tok.encode"), "s"},
      {"tok.decode.calls", Calls("tok.decode"), "count"},
      {"tok.decode.busy_s", Busy("tok.decode"), "s"},
      {"nn.encode.calls", Calls("nn.encode"), "count"},
      {"nn.encode.busy_s", Busy("nn.encode"), "s"},
      {"nn.encode.src_tokens", Count(C.SrcTokens), "tokens"},
      {"nn.decode.calls", Calls("nn.decode"), "count"},
      {"nn.decode.busy_s", Busy("nn.decode"), "s"},
      {"nn.decode.out_tokens", Count(C.OutTokens), "tokens"},
      {"nn.constrain.oracle_s", C.Constraint.OracleSeconds, "s"},
      {"nn.constrain.tokens_masked", Count(C.Constraint.TokensMasked),
       "count"},
      {"nn.constrain.beams_killed", Count(C.Constraint.BeamsKilled),
       "count"},
      {"typeinf.calls", Calls("typeinf.infer"), "count"},
      {"typeinf.busy_s", Busy("typeinf.infer"), "s"},
      {"typeinf.applied", Count(C.TypeinfApplied), "count"},
      {"cc.parse.calls", Calls("cc.parse"), "count"},
      {"cc.parse.busy_s", Busy("cc.parse"), "s"},
      {"cc.parse.failed", Count(C.ParseFailed), "count"},
      {"cc.sema.calls", Calls("cc.sema"), "count"},
      {"cc.sema.busy_s", Busy("cc.sema"), "s"},
      {"cc.sema.failed", Count(C.SemaFailed), "count"},
      {"ir.irgen.calls", Calls("ir.irgen"), "count"},
      {"ir.irgen.busy_s", Busy("ir.irgen"), "s"},
      {"ir.irgen.failed", Count(C.IRGenFailed), "count"},
      {"codegen.emit.calls", Calls("codegen.emit"), "count"},
      {"codegen.emit.busy_s", Busy("codegen.emit"), "s"},
      {"codegen.emit.failed", Count(C.EmitFailed), "count"},
      {"asmx.assemble.calls", Calls("asmx.assemble"), "count"},
      {"asmx.assemble.busy_s", Busy("asmx.assemble"), "s"},
      {"asmx.assemble.failed", Count(C.AssembleFailed), "count"},
      {"vm.run.calls", Calls("vm.run"), "count"},
      {"vm.run.busy_s", Busy("vm.run"), "s"},
      {"vm.io_pass", Count(C.IOPass), "count"},
      {"core.verify.candidates", Count(C.Candidates), "count"},
      {"core.verify.useful_share",
       C.Candidates ? Count(C.IOPass) / Count(C.Candidates) : 0, "share"},
      {"trace.overhead_pct", (OnSeconds - OffSeconds) / OffSeconds * 100,
       "%"},
  };
}

// -- command line -------------------------------------------------------------

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  std::string Weights;
  std::string ExpectInputs;
  std::string TraceOut;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  if (Argc % 2 == 0)
    return false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = std::atoi(V.c_str());
    else if (K == "--weights")
      A.Weights = V;
    else if (K == "--expect-inputs")
      A.ExpectInputs = V;
    else if (K == "--trace-out")
      A.TraceOut = V;
    else
      return false;
  }
  return !A.Workload.empty() && A.Seconds > 0 &&
         (A.Trace == 0 || A.Trace == 1) && !A.Weights.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: slade_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --weights DIR [--expect-inputs HEX] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const WorkloadSpec *W = nullptr;
  for (const WorkloadSpec &S : Workloads)
    if (A.Workload == S.Name)
      W = &S;
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  if ((W->K == Kind::Solo ? W->Functions : W->PhaseRequests) <
      MinPhaseRequests) {
    std::fprintf(stderr, "error: %s phases are too small for a p99\n",
                 W->Name);
    return 2;
  }

  Loaded L = loadAndSetUp(*W, A.Weights);
  const core::Decompiler &D = *L.D;

  // Inputs: fixed by the pinned corpus seed, whatever the run seed.
  FunctionSetSpec FS;
  FS.D = W->D;
  FS.Optimize = W->Optimize;
  FS.CorpusSeed = W->CorpusSeed;
  FS.Want = W->Functions;
  FS.MaxDraws = W->Functions * 40;
  Clock::time_point G0 = Clock::now();
  FunctionSet Set = buildFunctionSet(FS, D.tokenizer());
  std::fprintf(stderr,
               "[%s] %zu functions from %zu draws (%zu in the training "
               "split, %zu duplicates, %zu not compiled) in %.1f s, inputs "
               "%s\n",
               W->Name, Set.Tasks.size(), Set.Draws, Set.DroppedTrain,
               Set.DroppedDup, Set.DroppedCompile, since(G0),
               hex(Set.Digest).c_str());
  if (Set.Tasks.size() < FS.Want) {
    std::fprintf(stderr, "error: only %zu of %zu functions generated\n",
                 Set.Tasks.size(), FS.Want);
    return 2;
  }
  if (!A.ExpectInputs.empty() && A.ExpectInputs != hex(Set.Digest)) {
    std::fprintf(stderr,
                 "error: input digest %s differs from the pinned %s: the "
                 "generator or the compiler changed the function set\n",
                 hex(Set.Digest).c_str(), A.ExpectInputs.c_str());
    return 2;
  }

  StealMeter Steal;
  RunResult Run = W->K == Kind::StreamRepeat
                      ? runStreamRepeat(*W, D, Set, A.Seed)
                      : runSolo(*W, D, Set, A.Seed);
  double StealShare = Steal.share();
  Run.E2E.insert(Run.E2E.begin(),
                 Metric{"setup_s", median(L.SetupSeconds), "s"});

  size_t Mismatches = 0;
  std::vector<Metric> Layers = Run.ServeLayer;
  if (A.Trace == 1) {
    std::vector<Metric> Staged =
        runTraced(D, Run.Ref, A.TraceOut, Mismatches);
    Layers.insert(Layers.end(), Staged.begin(), Staged.end());
  }
  // A percentile without 10 samples beyond it, or a latency of a failed
  // request, is not a number to report.
  bool Finite = true;
  for (const std::vector<Metric> *Ms : {&Run.E2E, &Layers})
    for (const Metric &M : *Ms)
      if (!std::isfinite(M.Value)) {
        std::fprintf(stderr, "error: %s is not finite\n", M.Name.c_str());
        Finite = false;
      }
  bool Correct = Run.Failed == 0 && Mismatches == 0 && Finite;
  double ErrorRate =
      static_cast<double>(Run.Failed) / std::max<size_t>(1, Run.Attempted);

  std::ostringstream Record;
  Record << "{\"record\": \"slade_bench\", \"workload\": \"" << W->Name
         << "\", \"seed\": " << A.Seed << ", \"seconds\": " << num(A.Seconds)
         << ", \"trace\": " << A.Trace << ", \"host\": " << hostJson()
         << ", \"steal_share\": " << num(StealShare)
         << ", \"setup_repeats_s\": [";
  for (size_t I = 0; I < L.SetupSeconds.size(); ++I)
    Record << (I ? ", " : "") << num(L.SetupSeconds[I]);
  Record << "]"
         << ", \"engine_budget\": " << budgetJson(W->K)
         << ", \"corpus_seed\": " << W->CorpusSeed
         << ", \"functions\": " << Set.Tasks.size()
         << ", \"input_digest\": \"" << hex(Set.Digest)
         << "\", \"schedule_digest\": \"" << hex(Run.ScheduleDigest)
         << "\", \"repeat_share\": "
         << num(static_cast<double>(Run.Repeated) /
                std::max<size_t>(1, Run.Attempted))
         << ", \"error_rate\": " << num(ErrorRate)
         << ", \"staged_mismatches\": " << Mismatches
         << ", \"phases\": " << Run.Phases
         << ", \"end_to_end\": " << metricsJson(Run.E2E)
         << ", \"per_layer\": " << metricsJson(Layers);
  Record << "}";
  std::printf("%s\n", Record.str().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false", Run.Attempted, Run.Failed,
              metricsJson(A.Trace == 1 ? Layers : Run.E2E).c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
