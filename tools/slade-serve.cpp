//===- slade-serve.cpp - concurrent decompile serving front end ---------------===//
//
// Serves decompile jobs through the sharded streaming engine
// (serve::Engine): encoder-LRU-cached encodes, continuous-batching beam
// decode, and pooled IO-verification. Consumes a JSONL corpus, a list of
// .s files, or a generated demo corpus, and emits per-function JSONL
// results plus one summary line (functions/sec, latency percentiles,
// stage times, cache hit rates).
//
// Batch mode (the default) submits every job at t = 0, encoded up front
// on a --threads-wide pool; --stream replays the jobs with Poisson
// arrival times and encodes each one at dispatch.
//
// Run: ./build/slade-serve --demo 24 --check
//      ./build/slade-serve --demo 24 --stream --rate 80 --check
//      ./build/slade-serve --corpus jobs.jsonl --out results.jsonl
//      ./build/slade-serve fn1.s fn2.s ...
//
// Corpus lines: {"name": "f", "asm": "..."}            translate only
//               {"name": "f", "function": "...",
//                "context": "..."}                     compile + IO-verify
//
// Without a trained checkpoint (tools/slade-train), a small throwaway
// system is trained in-process so the tool works out of the box; override
// with SLADE_SERVE_TRAIN_STEPS / SLADE_SERVE_TRAIN_SAMPLES.
//
//===----------------------------------------------------------------------===//

#include "cc/Parser.h"
#include "core/Eval.h"
#include "core/Trainer.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "serve/Engine.h"
#include "serve/Jsonl.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <thread>

using namespace slade;

namespace {

int envInt(const char *Name, int Default) {
  const char *V = std::getenv(Name);
  return V && *V ? std::atoi(V) : Default;
}

struct CliOptions {
  asmx::Dialect D = asmx::Dialect::X86;
  bool Optimize = false;
  /// Every engine knob the flags set. --threads sizes both the verify
  /// pool (VerifyThreads) and batch mode's up-front encode pool.
  serve::EngineOptions Engine = [] {
    serve::EngineOptions E;
    E.Shards = 0; // --shards default: one per hardware thread.
    return E;
  }();
  std::string CorpusPath;
  std::vector<std::string> AsmFiles;
  int DemoN = 0;
  int DemoDup = 1; ///< Requests per demo function (duplicate traffic).
  int EncCacheMb = 0; ///< Encoder-LRU byte budget in MiB (0 = count only).
  int DecCacheMb = 0; ///< Decode-LRU byte budget in MiB (0 = count only).
  bool Sequential = false; ///< Baseline: one Decompiler call per job.
  bool Check = false;      ///< Run served AND sequential, compare.
  std::string OutPath;
  // -- streaming replay (--stream) --
  bool Stream = false; ///< Replay the corpus with arrival timestamps.
  double Rate = 0;     ///< Mean Poisson arrivals/sec (0 = jobs over ~1s).
  uint64_t ArrivalSeed = 42; ///< Poisson arrival RNG seed.
  // -- overload-safety knobs --
  double DeadlineMs = 0; ///< Per-request deadline from arrival (0 = none).
  double DrainMs = -1;   ///< Graceful-drain budget after the last arrival
                         ///< (<0 = unbounded stop()).
  // -- observability (obs/; default off) --
  std::string TraceOut;   ///< Chrome trace_event JSON path ("-" = stdout).
  int TraceSample = 1;    ///< Trace every Nth request (1 = all).
  uint64_t TraceSeed = 0; ///< Deterministic sampling seed.
  std::string MetricsOut; ///< Prometheus exposition path ("-" = stdout).
};

void usage() {
  std::fprintf(
      stderr,
      "usage: slade-serve [options] [file.s ...]\n"
      "  --isa x86|arm        model/compile ISA (default x86)\n"
      "  --opt O0|O3          optimization level (default O0)\n"
      "  --corpus FILE        JSONL corpus of jobs\n"
      "  --demo N             generate an N-function benchmark corpus\n"
      "  --dup F              repeat each demo function F times (models\n"
      "                       duplicate-heavy serving traffic; default 1)\n"
      "  --beam K             beam size, >= 1 (default 5)\n"
      "  --constrain M        off|syntax: grammar-constrained decoding.\n"
      "                       syntax masks vocabulary pieces that cannot\n"
      "                       extend to a parseable C function and kills\n"
      "                       beams with no viable continuation; also\n"
      "                       gates the run: any produced candidate that\n"
      "                       the C frontend rejects is an error\n"
      "                       (default off, byte-identical to before)\n"
      "  --maxlen N           max decoded tokens, >= 1 (default 220)\n"
      "  --threads N          encode + verify worker threads, 0 =\n"
      "                       hardware (default)\n"
      "  --enc-cache-mb N     cap the encoder-output LRU at N MiB\n"
      "  --dec-cache-mb N     cap the decoded-hypotheses LRU at N MiB\n"
      "                       (repeats that never overlap in flight skip\n"
      "                       their decode)\n"
      "  --shards N           decode shards: independent decode threads,\n"
      "                       each running its own continuous batch\n"
      "                       (default 0 = one per hardware thread,\n"
      "                       capped at 8)\n"
      "  --live N             max sources decoding together in one\n"
      "                       shard's fused batch (default 4)\n"
      "  --tick-threads N     intra-tick worker threads per decode\n"
      "                       shard: row/tile ranges of ONE fused tick\n"
      "                       split across a per-shard pool, so a\n"
      "                       single request uses N cores. Results are\n"
      "                       byte-identical at every value; total\n"
      "                       decode workers ~= shards * N (default 1\n"
      "                       = no pool, the sequential path)\n"
      "  --queue N            engine admission-queue bound (default 256)\n"
      "  --no-typeinf         disable type inference\n"
      "  --sequential         baseline: sequential Decompiler calls\n"
      "  --check              run served AND sequential, compare outputs\n"
      "  --out FILE           write per-function results JSONL\n"
      "  --stream             replay the corpus with Poisson arrival\n"
      "                       times instead of submitting every job at\n"
      "                       once; each request encodes at dispatch\n"
      "  --rate R             mean stream arrivals per second (default:\n"
      "                       all jobs over ~1s)\n"
      "  --arrival-seed S     arrival RNG seed (default 42)\n"
      "  --deadline-ms D      per-request deadline, D ms from arrival;\n"
      "                       expired work is shed with a typed\n"
      "                       deadline_expired status (default 0 = none)\n"
      "  --shed               load-shedding admission: a full queue\n"
      "                       rejects (queue_full) instead of blocking\n"
      "                       the producer\n"
      "  --drain-ms D         graceful-drain budget after the last\n"
      "                       arrival; leftover work resolves\n"
      "                       shutting_down (default: unbounded)\n"
      "  --verify-timeout-ms D  per-candidate verify wall budget\n"
      "  --verify-retries N   retries for thrown verify attempts\n"
      "  --fault-seed S       deterministic fault-injection seed\n"
      "  --fault-encode-throw P  P(encode throws) per request\n"
      "  --fault-verify-throw P  P(verify attempt throws) per candidate\n"
      "  --fault-verify-hang P   P(verify attempt hangs) per candidate\n"
      "  --fault-slow-tick P     P(decode tick sleeps) per shard tick\n"
      "  --trace-out FILE     record request-lifecycle spans and write\n"
      "                       Chrome trace_event JSON at exit ('-' =\n"
      "                       stdout; open in Perfetto / chrome://tracing)\n"
      "  --trace-sample N     trace every Nth request, deterministically\n"
      "                       (default 1 = all; shard-tick spans always\n"
      "                       record while tracing is on)\n"
      "  --trace-seed S       trace sampling seed (default 0)\n"
      "  --metrics-out FILE   write the Prometheus text exposition of\n"
      "                       the unified metrics registry ('-' =\n"
      "                       stdout), rendered with the engine live\n"
      "                       (full request-outcome families); --stream\n"
      "                       dumps an extra scrape on SIGUSR1\n");
}

bool parseArgs(int argc, char **argv, CliOptions *O) {
  serve::EngineOptions &E = O->Engine;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (A == "--isa") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "arm") == 0) {
        O->D = asmx::Dialect::Arm;
      } else if (std::strcmp(V, "x86") == 0) {
        O->D = asmx::Dialect::X86;
      } else {
        std::fprintf(stderr, "error: --isa must be x86|arm\n");
        return false;
      }
    } else if (A == "--opt") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "O3") == 0) {
        O->Optimize = true;
      } else if (std::strcmp(V, "O0") == 0) {
        O->Optimize = false;
      } else {
        std::fprintf(stderr, "error: --opt must be O0|O3\n");
        return false;
      }
    } else if (A == "--corpus") {
      const char *V = Next();
      if (!V)
        return false;
      O->CorpusPath = V;
    } else if (A == "--demo") {
      const char *V = Next();
      if (!V)
        return false;
      O->DemoN = std::atoi(V);
    } else if (A == "--dup") {
      const char *V = Next();
      if (!V)
        return false;
      O->DemoDup = std::max(1, std::atoi(V));
    } else if (A == "--constrain") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "syntax") == 0) {
        E.Constrain = nn::ConstrainMode::Syntax;
      } else if (std::strcmp(V, "off") == 0) {
        E.Constrain = nn::ConstrainMode::Off;
      } else {
        std::fprintf(stderr, "error: --constrain must be off|syntax\n");
        return false;
      }
    } else if (A == "--beam") {
      const char *V = Next();
      if (!V)
        return false;
      E.BeamSize = std::atoi(V);
      if (E.BeamSize < 1) {
        std::fprintf(stderr, "error: --beam must be >= 1\n");
        return false;
      }
    } else if (A == "--maxlen") {
      const char *V = Next();
      if (!V)
        return false;
      E.MaxLen = std::atoi(V);
      if (E.MaxLen < 1) {
        std::fprintf(stderr, "error: --maxlen must be >= 1\n");
        return false;
      }
    } else if (A == "--threads") {
      const char *V = Next();
      if (!V)
        return false;
      E.VerifyThreads = std::atoi(V);
    } else if (A == "--enc-cache-mb") {
      const char *V = Next();
      if (!V)
        return false;
      O->EncCacheMb = std::atoi(V);
      if (O->EncCacheMb < 0) {
        std::fprintf(stderr, "error: --enc-cache-mb must be >= 0\n");
        return false;
      }
    } else if (A == "--dec-cache-mb") {
      const char *V = Next();
      if (!V)
        return false;
      O->DecCacheMb = std::atoi(V);
      if (O->DecCacheMb < 0) {
        std::fprintf(stderr, "error: --dec-cache-mb must be >= 0\n");
        return false;
      }
    } else if (A == "--shards") {
      const char *V = Next();
      if (!V)
        return false;
      E.Shards = std::max(0, std::atoi(V));
    } else if (A == "--tick-threads") {
      const char *V = Next();
      if (!V)
        return false;
      E.TickThreads = std::max(1, std::atoi(V));
    } else if (A == "--stream") {
      O->Stream = true;
    } else if (A == "--rate") {
      const char *V = Next();
      if (!V)
        return false;
      O->Rate = std::atof(V);
    } else if (A == "--live") {
      const char *V = Next();
      if (!V)
        return false;
      E.MaxLiveSources = std::max(1, std::atoi(V));
    } else if (A == "--queue") {
      const char *V = Next();
      if (!V)
        return false;
      E.QueueCapacity = static_cast<size_t>(std::max(1, std::atoi(V)));
    } else if (A == "--arrival-seed") {
      const char *V = Next();
      if (!V)
        return false;
      O->ArrivalSeed = static_cast<uint64_t>(std::atoll(V));
    } else if (A == "--deadline-ms") {
      const char *V = Next();
      if (!V)
        return false;
      O->DeadlineMs = std::atof(V);
    } else if (A == "--shed") {
      E.BlockOnFull = false;
    } else if (A == "--drain-ms") {
      const char *V = Next();
      if (!V)
        return false;
      O->DrainMs = std::atof(V);
    } else if (A == "--verify-timeout-ms") {
      const char *V = Next();
      if (!V)
        return false;
      E.VerifyCandidateTimeout = std::atof(V) / 1000.0;
    } else if (A == "--verify-retries") {
      const char *V = Next();
      if (!V)
        return false;
      E.VerifyMaxRetries = std::max(0, std::atoi(V));
    } else if (A == "--fault-seed") {
      const char *V = Next();
      if (!V)
        return false;
      E.Faults.Seed = static_cast<uint64_t>(std::atoll(V));
    } else if (A == "--fault-encode-throw") {
      const char *V = Next();
      if (!V)
        return false;
      E.Faults.EncodeThrow = std::atof(V);
    } else if (A == "--fault-verify-throw") {
      const char *V = Next();
      if (!V)
        return false;
      E.Faults.VerifyThrow = std::atof(V);
    } else if (A == "--fault-verify-hang") {
      const char *V = Next();
      if (!V)
        return false;
      E.Faults.VerifyHang = std::atof(V);
    } else if (A == "--fault-slow-tick") {
      const char *V = Next();
      if (!V)
        return false;
      E.Faults.SlowTick = std::atof(V);
    } else if (A == "--trace-out") {
      const char *V = Next();
      if (!V)
        return false;
      O->TraceOut = V;
    } else if (A == "--trace-sample") {
      const char *V = Next();
      if (!V)
        return false;
      O->TraceSample = std::atoi(V);
      if (O->TraceSample < 1) {
        std::fprintf(stderr, "error: --trace-sample must be >= 1\n");
        return false;
      }
    } else if (A == "--trace-seed") {
      const char *V = Next();
      if (!V)
        return false;
      O->TraceSeed = static_cast<uint64_t>(std::atoll(V));
    } else if (A == "--metrics-out") {
      const char *V = Next();
      if (!V)
        return false;
      O->MetricsOut = V;
    } else if (A == "--no-typeinf") {
      E.UseTypeInference = false;
    } else if (A == "--sequential") {
      O->Sequential = true;
    } else if (A == "--check") {
      O->Check = true;
    } else if (A == "--out") {
      const char *V = Next();
      if (!V)
        return false;
      O->OutPath = V;
    } else if (A == "--help" || A == "-h") {
      usage();
      std::exit(0);
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "error: unknown option %s\n", A.c_str());
      return false;
    } else {
      O->AsmFiles.push_back(A);
    }
  }
  return true;
}

/// Loads the trained checkpoint for the configuration, or trains a small
/// throwaway system so the tool is usable without tools/slade-train.
core::TrainedSystem loadOrTrain(const CliOptions &O) {
  std::string Name = core::systemName("slade", O.D, O.Optimize);
  auto Sys = core::loadSystem(core::checkpointDir(), Name);
  if (Sys)
    return std::move(*Sys);
  std::fprintf(stderr,
               "[serve] no checkpoint %s (%s); training a throwaway "
               "system (run tools/slade-train for the real zoo)\n",
               Name.c_str(), Sys.errorMessage().c_str());
  int Samples = envInt("SLADE_SERVE_TRAIN_SAMPLES", 400);
  int Steps = envInt("SLADE_SERVE_TRAIN_STEPS", 120);
  dataset::Corpus Corpus = dataset::buildCorpus(
      dataset::Suite::ExeBench, static_cast<size_t>(Samples), 0,
      /*Seed=*/20240101);
  core::TrainConfig TC;
  TC.D = O.D;
  TC.Optimize = O.Optimize;
  TC.Steps = Steps;
  TC.Verbose = false;
  return core::trainSystem(
      core::buildTrainPairs(Corpus.Train, O.D, O.Optimize), TC);
}

std::string outcomeJson(const std::string &Name,
                        const core::HypothesisOutcome &Out) {
  std::ostringstream SS;
  SS << "{\"name\": \"" << serve::jsonEscape(Name) << "\""
     << ", \"produced\": " << (Out.Produced ? "true" : "false")
     << ", \"compiles\": " << (Out.Compiles ? "true" : "false")
     << ", \"io_correct\": " << (Out.IOCorrect ? "true" : "false")
     << ", \"typeinf\": " << (Out.UsedTypeInference ? "true" : "false")
     << ", \"edit_sim\": " << Out.EditSim << ", \"c\": \""
     << serve::jsonEscape(Out.CSource) << "\"}";
  return SS.str();
}

//===----------------------------------------------------------------------===//
// Engine replay (batch mode and --stream)
//===----------------------------------------------------------------------===//

/// SIGUSR1 = "scrape now": the submit loop checks this between arrivals
/// and writes the Prometheus exposition mid-run (the registry scrape is
/// safe while the engine serves — that coherence is the
/// scrape-during-soak test in test_serve.cpp).
volatile std::sig_atomic_t MetricsDumpRequested = 0;
void onMetricsSignal(int) { MetricsDumpRequested = 1; }

/// One served request: a verified task or a raw translate job, with its
/// arrival offset from replay start (0 in batch mode).
struct StreamItem {
  std::string Name;
  const core::EvalTask *Task = nullptr; ///< Verified when set.
  std::string Asm;                      ///< Translate payload otherwise.
  double ArriveAt = 0;                  ///< Seconds from replay start.
};

/// Deterministic Poisson arrival offsets: exponential inter-arrival
/// times with mean 1/RatePerSec.
void assignArrivals(std::vector<StreamItem> &Items, double RatePerSec,
                    uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::exponential_distribution<double> Exp(RatePerSec);
  double T = 0;
  for (StreamItem &It : Items) {
    T += Exp(Rng);
    It.ArriveAt = T;
  }
}

struct StreamOutcome {
  std::vector<serve::RequestResult> Results; ///< In item order.
  double WallSeconds = 0;
  double FnPerSec = 0;
  /// Engine counters at replay end: Ok is the served count, and Latency
  /// / QueueWait cover served requests only (a shed request resolving in
  /// microseconds must not fake a fast percentile). EncodeSeconds also
  /// counts batch mode's up-front encode.
  serve::EngineMetrics Engine;
  /// Encoder-LRU activity during the replay (stats deltas) and its heap
  /// bytes after it.
  nn::EncoderLRU::Stats EncoderRun;
  size_t EncoderCacheBytes = 0;

  double encoderHitRate() const {
    uint64_t Lookups = EncoderRun.Hits + EncoderRun.Misses;
    return Lookups ? static_cast<double>(EncoderRun.Hits) /
                         static_cast<double>(Lookups)
                   : 0.0;
  }
  /// Mean wall-clock ms of one LRU-miss encode (the cold-encode cost).
  double coldEncodeMsMean() const {
    return EncoderRun.Misses ? EncoderRun.MissSeconds * 1000.0 /
                                   static_cast<double>(EncoderRun.Misses)
                             : 0.0;
  }
};

/// Serves the items through one engine: each request is submitted at its
/// arrival offset, then every completion is awaited.
StreamOutcome replayThroughEngine(const core::Decompiler &Slade,
                                  const CliOptions &O,
                                  const std::vector<StreamItem> &Items) {
  StreamOutcome SO;
  size_t N = Items.size();
  SO.Results.resize(N);
  std::vector<serve::DecompileRequest> Reqs(N);
  for (size_t I = 0; I < N; ++I) {
    Reqs[I].Name = Items[I].Name;
    Reqs[I].Task = Items[I].Task;
    Reqs[I].Asm = Items[I].Task ? Items[I].Task->Prog.TargetAsm
                                : Items[I].Asm;
  }
  nn::EncoderLRU::Stats Before = Slade.encoderCache().stats();
  obs::Registry *Reg = O.Engine.Metrics;
  {
    serve::Engine Eng(Slade, O.Engine);
    std::vector<serve::Handle> Handles(N);
    auto Start = std::chrono::steady_clock::now();
    double PreEncodeSeconds = 0;
    if (!O.Stream) {
      // Batch mode: every request arrives at t = 0, so encode them all
      // up front on a --threads-wide pool and submit them pre-encoded;
      // the dispatcher would encode them one at a time. --stream
      // encodes at dispatch, as each request arrives.
      ThreadPool Pool(O.Engine.VerifyThreads > 0
                          ? static_cast<unsigned>(O.Engine.VerifyThreads)
                          : ThreadPool::defaultConcurrency());
      Pool.parallelFor(N, [&](size_t I) {
        Reqs[I].Src = Slade.tokenizer().encode(Reqs[I].Asm);
        Reqs[I].Enc = Slade.encodeCached(Reqs[I].Src);
      });
      PreEncodeSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - Start)
                             .count();
    }
    for (size_t I = 0; I < N; ++I) {
      std::this_thread::sleep_until(
          Start + std::chrono::duration<double>(Items[I].ArriveAt));
      if (MetricsDumpRequested && Reg) {
        MetricsDumpRequested = 0;
        Reg->renderPrometheusFile(O.MetricsOut.empty() ? "-"
                                                       : O.MetricsOut);
      }
      if (O.DeadlineMs > 0)
        Reqs[I].Deadline = std::chrono::steady_clock::now() +
                           std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(O.DeadlineMs /
                                                             1000.0));
      Handles[I] = Eng.submit(std::move(Reqs[I]));
    }
    if (O.DrainMs >= 0)
      Eng.drain(std::chrono::steady_clock::now() +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(O.DrainMs / 1000.0)));
    for (size_t I = 0; I < N; ++I)
      SO.Results[I] = Handles[I].get();
    SO.WallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count();
    SO.Engine = Eng.metrics();
    SO.Engine.EncodeSeconds += PreEncodeSeconds;
    if (!O.MetricsOut.empty() && Reg) {
      // The authoritative scrape: the engine (and its coherent
      // request-outcome collector) is still registered.
      if (!Reg->renderPrometheusFile(O.MetricsOut))
        std::fprintf(stderr, "error: cannot write %s\n",
                     O.MetricsOut.c_str());
    }
  }
  nn::EncoderLRU::Stats After = Slade.encoderCache().stats();
  SO.EncoderRun.Hits = After.Hits - Before.Hits;
  SO.EncoderRun.Misses = After.Misses - Before.Misses;
  SO.EncoderRun.MissSeconds = After.MissSeconds - Before.MissSeconds;
  SO.EncoderCacheBytes = Slade.encoderCache().bytesUsed();
  SO.FnPerSec = SO.WallSeconds > 0
                    ? static_cast<double>(N) / SO.WallSeconds
                    : 0;
  return SO;
}

void printStreamMetrics(const char *Label, const StreamOutcome &SO) {
  const serve::EngineMetrics &EM = SO.Engine;
  const obs::SampleStats &QW = EM.QueueWait, &L = EM.Latency;
  std::fprintf(
      stderr,
      "[%s] %zu requests (%zu served) in %.3fs = %.2f fn/s; served queue "
      "wait p50/p95/p99 %.1f/%.1f/%.1f ms; served latency p50/p95/p99 "
      "%.1f/%.1f/%.1f ms\n",
      Label, SO.Results.size(), EM.Ok, SO.WallSeconds,
      SO.FnPerSec, 1e3 * QW.P50, 1e3 * QW.P95, 1e3 * QW.P99, 1e3 * L.P50,
      1e3 * L.P95, 1e3 * L.P99);
  std::fprintf(stderr,
               "[%s] encode %.3fs, decode %.3fs, verify %.3fs; %zu fused; "
               "encoder cache %llu hits / %llu misses = %.0f%% hit rate, "
               "cold encode %.2f ms mean, %.1f KiB cached\n",
               Label, EM.EncodeSeconds, EM.DecodeSeconds, EM.VerifySeconds,
               EM.FusedJobs,
               static_cast<unsigned long long>(SO.EncoderRun.Hits),
               static_cast<unsigned long long>(SO.EncoderRun.Misses),
               100.0 * SO.encoderHitRate(), SO.coldEncodeMsMean(),
               static_cast<double>(SO.EncoderCacheBytes) / 1024.0);
  if (EM.Shed + EM.Expired + EM.Cancelled + EM.ShutDown + EM.EncodeFailed +
          EM.VerifyFailed + EM.VerifyTimeouts + EM.VerifyRetries >
      0)
    std::fprintf(stderr,
                 "[%s] shed %zu, expired %zu, cancelled %zu, shutdown "
                 "%zu, encode-failed %zu, verify-failed %zu; verify "
                 "timeouts %llu / retries %llu; drain %.1f ms\n",
                 Label, EM.Shed, EM.Expired, EM.Cancelled, EM.ShutDown,
                 EM.EncodeFailed, EM.VerifyFailed,
                 static_cast<unsigned long long>(EM.VerifyTimeouts),
                 static_cast<unsigned long long>(EM.VerifyRetries),
                 EM.DrainMs);
  if (EM.TokensMasked + EM.BeamsKilled > 0 || EM.OracleSeconds > 0)
    std::fprintf(stderr,
                 "[%s] constrain: %llu tokens masked, %llu beams killed, "
                 "oracle %.3fs\n",
                 Label, static_cast<unsigned long long>(EM.TokensMasked),
                 static_cast<unsigned long long>(EM.BeamsKilled),
                 EM.OracleSeconds);
  std::fprintf(stderr,
               "[%s] %zu attached in flight, decode cache %zu hits / %zu "
               "misses (%.1f KiB); per-shard utilization:",
               Label, EM.InFlightDeduped, EM.DecodeCacheHits,
               EM.DecodeCacheMisses,
               static_cast<double>(EM.DecodeCacheBytes) / 1024.0);
  for (size_t S = 0; S < EM.Shards.size(); ++S)
    std::fprintf(stderr, " [%zu] %zu src / %llu ticks / %.3fs", S,
                 EM.Shards[S].Sources,
                 static_cast<unsigned long long>(EM.Shards[S].Steps),
                 EM.Shards[S].DecodeSeconds);
  std::fprintf(stderr, "\n");
}

/// The one summary JSONL object per run, written after the per-function
/// results: machine-readable counters that make the encode-bound vs.
/// decode-bound regime visible in the output stream.
std::string streamJson(const char *Label, const StreamOutcome &SO) {
  const serve::EngineMetrics &EM = SO.Engine;
  const obs::SampleStats &QW = EM.QueueWait, &L = EM.Latency;
  std::ostringstream SS;
  SS << "{\"type\": \"summary\", \"label\": \"" << serve::jsonEscape(Label)
     << "\", \"jobs\": " << SO.Results.size()
     << ", \"fn_per_sec\": " << SO.FnPerSec
     << ", \"total_s\": " << SO.WallSeconds
     << ", \"queue_wait_p50_s\": " << QW.P50
     << ", \"queue_wait_p95_s\": " << QW.P95
     << ", \"queue_wait_p99_s\": " << QW.P99
     << ", \"latency_p50_s\": " << L.P50
     << ", \"latency_p95_s\": " << L.P95
     << ", \"latency_p99_s\": " << L.P99
     << ", \"encode_s\": " << EM.EncodeSeconds
     << ", \"decode_s\": " << EM.DecodeSeconds
     << ", \"verify_s\": " << EM.VerifySeconds
     << ", \"fused\": " << EM.FusedJobs
     << ", \"encoder_cache_hits\": " << SO.EncoderRun.Hits
     << ", \"encoder_cache_misses\": " << SO.EncoderRun.Misses
     << ", \"encoder_hit_rate\": " << SO.encoderHitRate()
     << ", \"cold_encode_ms_mean\": " << SO.coldEncodeMsMean()
     << ", \"encoder_cache_bytes\": " << SO.EncoderCacheBytes
     << ", \"served\": " << EM.Ok
     << ", \"shed\": " << EM.Shed << ", \"expired\": " << EM.Expired
     << ", \"cancelled\": " << EM.Cancelled
     << ", \"shutdown\": " << EM.ShutDown
     << ", \"encode_failed\": " << EM.EncodeFailed
     << ", \"verify_failed\": " << EM.VerifyFailed
     << ", \"verify_timeouts\": " << EM.VerifyTimeouts
     << ", \"verify_retries\": " << EM.VerifyRetries
     << ", \"drain_ms\": " << EM.DrainMs
     << ", \"beams_killed\": " << EM.BeamsKilled
     << ", \"tokens_masked\": " << EM.TokensMasked
     << ", \"oracle_s\": " << EM.OracleSeconds
     << ", \"deduped_in_flight\": " << EM.InFlightDeduped
     << ", \"decode_cache_hits\": " << EM.DecodeCacheHits
     << ", \"decode_cache_misses\": " << EM.DecodeCacheMisses
     << ", \"decode_cache_bytes\": " << EM.DecodeCacheBytes
     << ", \"shards\": [";
  for (size_t S = 0; S < EM.Shards.size(); ++S) {
    if (S)
      SS << ", ";
    SS << "{\"sources\": " << EM.Shards[S].Sources
       << ", \"steps\": " << EM.Shards[S].Steps
       << ", \"step_rows\": " << EM.Shards[S].StepRows
       << ", \"decode_s\": " << EM.Shards[S].DecodeSeconds << "}";
  }
  SS << "]}";
  return SS.str();
}

/// Parse-rate gate (--constrain=syntax): every produced candidate that
/// reached IO-verification must be accepted by the C frontend — a
/// constrained decode emitting unparseable C means the oracle mask and
/// the parser disagree, which is a bug, not a quality miss. Unparseable
/// candidates fail the run.
struct ParseGate {
  bool Active = false;
  size_t Checked = 0;
  size_t Failed = 0;

  void check(const std::string &Name, const std::string &CSource) {
    if (!Active || CSource.empty())
      return;
    ++Checked;
    cc::TypeContext Ctx;
    cc::ParseOptions PO;
    PO.Partial = true;
    if (!cc::parseC(CSource, Ctx, PO)) {
      ++Failed;
      std::fprintf(stderr,
                   "[parse-gate] unparseable candidate for %s\n",
                   Name.c_str());
    }
  }

  /// Reports; returns nonzero when any candidate failed to parse.
  int finish() const {
    if (!Active)
      return 0;
    std::fprintf(stderr,
                 "[parse-gate] %zu/%zu produced candidates parse\n",
                 Checked - Failed, Checked);
    if (Failed)
      std::fprintf(stderr,
                   "error: --constrain=syntax produced unparseable C\n");
    return Failed ? 1 : 0;
  }
};

} // namespace

int main(int argc, char **argv) {
  CliOptions O;
  if (!parseArgs(argc, argv, &O)) {
    usage();
    return 1;
  }
  if (O.CorpusPath.empty() && O.AsmFiles.empty() && O.DemoN <= 0) {
    usage();
    return 1;
  }

  // -- assemble the job list --------------------------------------------------
  std::vector<core::EvalTask> Tasks; // Verified (function+context) jobs.
  std::vector<StreamItem> AsmJobs;   // Raw translation jobs.

  if (O.DemoN > 0) {
    std::fprintf(stderr, "[serve] generating %d demo functions...\n",
                 O.DemoN);
    dataset::Corpus Corpus = dataset::buildCorpus(
        dataset::Suite::ExeBench, 0, static_cast<size_t>(O.DemoN),
        /*Seed=*/20240202);
    Tasks = core::buildTasks(Corpus.Test, O.D, O.Optimize);
    if (O.DemoDup > 1) {
      // Duplicate-heavy traffic: every function is requested F times, as
      // when the same routine recurs across submitted binaries.
      std::vector<core::EvalTask> Dup;
      Dup.reserve(Tasks.size() * static_cast<size_t>(O.DemoDup));
      for (int R = 0; R < O.DemoDup; ++R)
        for (const core::EvalTask &T : Tasks) {
          Dup.push_back(T);
          Dup.back().Name += "#" + std::to_string(R);
        }
      Tasks = std::move(Dup);
    }
  }
  if (!O.CorpusPath.empty()) {
    auto Entries = serve::loadCorpusJsonl(O.CorpusPath);
    if (!Entries) {
      std::fprintf(stderr, "error: %s\n", Entries.errorMessage().c_str());
      return 1;
    }
    std::vector<dataset::Sample> FnSamples;
    for (serve::CorpusEntry &E : *Entries) {
      if (!E.Asm.empty()) {
        AsmJobs.push_back({E.Name, nullptr, E.Asm, 0});
        continue;
      }
      dataset::Sample S;
      S.Name = E.Name;
      S.FunctionSource = E.Function;
      S.ContextSource = E.Context;
      S.Category = "corpus";
      FnSamples.push_back(std::move(S));
    }
    std::vector<core::EvalTask> FnTasks =
        core::buildTasks(FnSamples, O.D, O.Optimize);
    if (FnTasks.size() < FnSamples.size())
      std::fprintf(stderr,
                   "[serve] %zu corpus function(s) rejected by the "
                   "compiler and skipped\n",
                   FnSamples.size() - FnTasks.size());
    for (core::EvalTask &T : FnTasks)
      Tasks.push_back(std::move(T));
  }
  for (const std::string &Path : O.AsmFiles) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    AsmJobs.push_back({Path, nullptr, SS.str(), 0});
  }
  if (AsmJobs.empty() && Tasks.empty()) {
    std::fprintf(stderr, "error: no servable jobs\n");
    return 1;
  }

  // -- model ------------------------------------------------------------------
  core::TrainedSystem Sys = loadOrTrain(O);
  core::Decompiler Slade(std::move(Sys.Tok), std::move(Sys.Model),
                         static_cast<size_t>(O.EncCacheMb) << 20,
                         static_cast<size_t>(O.DecCacheMb) << 20);

  // -- observability ----------------------------------------------------------
  // One registry for the whole process, declared before the engine so it
  // outlives it.
  obs::Registry Reg;
  O.Engine.Metrics = &Reg;
  if (!O.TraceOut.empty())
    obs::trace().enable(static_cast<uint32_t>(O.TraceSample), O.TraceSeed);
  if (!O.MetricsOut.empty())
    std::signal(SIGUSR1, onMetricsSignal);
  // Trace export requires quiescence: called only after the engine has
  // been destroyed, right before exit.
  auto FinishObs = [&O, &Reg](bool MetricsAlreadyWritten) {
    if (!O.TraceOut.empty()) {
      obs::TraceRecorder &TR = obs::trace();
      TR.disable();
      if (!TR.writeChromeTraceFile(O.TraceOut))
        std::fprintf(stderr, "error: cannot write %s\n",
                     O.TraceOut.c_str());
      else
        std::fprintf(
            stderr,
            "[obs] %zu trace events (%llu dropped), sample 1/%d -> %s\n",
            TR.eventCount(),
            static_cast<unsigned long long>(TR.droppedCount()),
            O.TraceSample, O.TraceOut.c_str());
    }
    if (!O.MetricsOut.empty() && !MetricsAlreadyWritten &&
        !Reg.renderPrometheusFile(O.MetricsOut))
      std::fprintf(stderr, "error: cannot write %s\n",
                   O.MetricsOut.c_str());
  };

  std::ofstream OutFile;
  if (!O.OutPath.empty()) {
    OutFile.open(O.OutPath);
    if (!OutFile) {
      std::fprintf(stderr, "error: cannot write %s\n", O.OutPath.c_str());
      return 1;
    }
  }
  std::ostream &Results = OutFile.is_open()
                              ? static_cast<std::ostream &>(OutFile)
                              : std::cout;

  // -- serve ------------------------------------------------------------------
  std::vector<StreamItem> Items;
  for (const core::EvalTask &T : Tasks)
    Items.push_back({T.Name, &T, "", 0});
  Items.insert(Items.end(), AsmJobs.begin(), AsmJobs.end());
  const char *Label = O.Stream ? "stream" : "serve";
  const bool RunEngine = !O.Sequential || O.Check;
  StreamOutcome Served;
  if (RunEngine) {
    int Shards = serve::resolveShardCount(O.Engine.Shards);
    if (O.Stream) {
      double Rate = O.Rate > 0 ? O.Rate
                               : static_cast<double>(
                                     std::max<size_t>(1, Items.size()));
      assignArrivals(Items, Rate, O.ArrivalSeed);
      std::fprintf(stderr,
                   "[stream] replaying %zu requests, Poisson rate %.1f/s "
                   "(seed %llu), %d shard(s) x %d live sources, queue "
                   "%zu\n",
                   Items.size(), Rate,
                   static_cast<unsigned long long>(O.ArrivalSeed), Shards,
                   O.Engine.MaxLiveSources, O.Engine.QueueCapacity);
    } else {
      std::fprintf(stderr,
                   "[serve] submitting %zu requests at once, %d shard(s) "
                   "x %d live sources, queue %zu\n",
                   Items.size(), Shards, O.Engine.MaxLiveSources,
                   O.Engine.QueueCapacity);
    }
    Served = replayThroughEngine(Slade, O, Items);
    printStreamMetrics(Label, Served);
  }

  int ExitCode = 0;
  if (O.Sequential || O.Check) {
    // Baseline and byte-identity oracle: one sequential Decompiler call
    // per request from cold caches — submission order, shard placement,
    // and row recycling must not change any output. (The sequential path
    // never consults the decode LRU, so a cached-hit result is compared
    // against a genuinely re-decoded one.) The oracle covers SERVED
    // requests whose verification ran unimpaired: shed/expired/cancelled
    // requests never produced a payload, and a Degraded result lost a
    // candidate to a contained fault or timeout, so its verify selection
    // may legitimately differ from the unbounded sequential run.
    Slade.clearEncoderCache();
    Slade.clearDecodeCache();
    core::Decompiler::Options DOpts;
    DOpts.BeamSize = O.Engine.BeamSize;
    DOpts.MaxLen = O.Engine.MaxLen;
    DOpts.UseTypeInference = O.Engine.UseTypeInference;
    DOpts.VerifyThreads = 1;
    DOpts.Constrain = O.Engine.Constrain;
    std::vector<serve::RequestResult> Seq(Items.size());
    size_t Checked = 0, Mismatches = 0;
    auto T0 = std::chrono::steady_clock::now();
    for (size_t I = 0; I < Items.size(); ++I) {
      if (RunEngine &&
          (!Served.Results[I].ok() || Served.Results[I].Degraded))
        continue;
      ++Checked;
      serve::RequestResult &R = Seq[I];
      if (Items[I].Task) {
        R.Outcome = Slade.decompile(*Items[I].Task, DOpts);
        R.CSource = R.Outcome.CSource;
        R.Verified = true;
      } else {
        R.CSource = Slade.translate(Items[I].Asm, O.Engine.BeamSize,
                                    O.Engine.MaxLen, O.Engine.Constrain);
      }
      if (RunEngine &&
          (Served.Results[I].CSource != R.CSource ||
           Served.Results[I].Outcome.IOCorrect != R.Outcome.IOCorrect))
        ++Mismatches;
    }
    double Secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
    std::fprintf(stderr,
                 "[sequential] %zu functions in %.3fs = %.2f fn/s\n",
                 Checked, Secs, static_cast<double>(Checked) / Secs);
    if (O.Check) {
      std::fprintf(stderr,
                   "[check] %zu/%zu byte-identical outputs (%zu of %zu "
                   "requests served undegraded and checked)\n",
                   Checked - Mismatches, Checked, Checked, Items.size());
      if (Mismatches) {
        std::fprintf(stderr, "error: served != sequential outputs\n");
        ExitCode = 1;
      }
    }
    if (!RunEngine)
      Served.Results = std::move(Seq);
  }

  ParseGate Gate;
  Gate.Active = O.Engine.Constrain == nn::ConstrainMode::Syntax;
  size_t IOCorrect = 0, Compiles = 0;
  for (size_t I = 0; I < Items.size(); ++I) {
    // Names come from the items: the engine returns an empty
    // RequestResult::Name for a duplicate that attached in flight.
    const std::string &Name = Items[I].Name;
    const serve::RequestResult &R = Served.Results[I];
    if (!R.ok()) {
      Results << "{\"name\": \"" << serve::jsonEscape(Name)
              << "\", \"status\": \"" << serve::requestStatusName(R.Status)
              << "\"}\n";
      continue;
    }
    Gate.check(Name, R.CSource);
    if (R.Verified) {
      Results << outcomeJson(Name, R.Outcome) << "\n";
      IOCorrect += R.Outcome.IOCorrect;
      Compiles += R.Outcome.Compiles;
    } else {
      Results << "{\"name\": \"" << serve::jsonEscape(Name)
              << "\", \"c\": \"" << serve::jsonEscape(R.CSource) << "\"}\n";
    }
  }
  if (RunEngine)
    Results << streamJson(Label, Served) << "\n";
  if (!Tasks.empty())
    std::fprintf(stderr,
                 "[%s] IO-correct %zu/%zu (%.1f%%), compiles %zu/%zu\n",
                 Label, IOCorrect, Tasks.size(),
                 100.0 * static_cast<double>(IOCorrect) /
                     static_cast<double>(Tasks.size()),
                 Compiles, Tasks.size());
  if (int GateRc = Gate.finish())
    ExitCode = GateRc;
  FinishObs(/*MetricsAlreadyWritten=*/RunEngine);
  return ExitCode;
}
