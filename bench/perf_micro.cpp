//===- perf_micro.cpp - component micro-benchmarks ------------------------------===//
//
// Conventional google-benchmark timings for the substrate components:
// compiler throughput, assembly parsing, interpreter speed, tokenizer
// encode, GEMM, edit distance, and a single decode step. These bound the
// end-to-end evaluation cost reported in EXPERIMENTS.md.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baselines/RuleDecompiler.h"
#include "cc/PrefixOracle.h"
#include "core/Metrics.h"
#include "core/Trainer.h"
#include "dataset/Generator.h"
#include "nn/Attention.h"
#include "nn/Beam.h"
#include "nn/BeamCore.h"
#include "nn/Mat.h"
#include "nn/Parallel.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "serve/Engine.h"
#include "tok/VocabConstraint.h"
#include "vm/Interp.h"

#include <benchmark/benchmark.h>

#include <future>
#include <random>
#include <thread>

using namespace slade;

namespace {

const char *SumSrc = "int sum(int *arr, int n) {\n"
                     "  int total = 0;\n"
                     "  for (int i = 0; i < n; i++) {\n"
                     "    total += arr[i];\n"
                     "  }\n"
                     "  return total;\n}\n";

void BM_CompileX86O0(benchmark::State &State) {
  for (auto _ : State) {
    auto P = core::compileProgram(SumSrc, "", "sum", asmx::Dialect::X86,
                                  false);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_CompileX86O0);

void BM_CompileArmO3(benchmark::State &State) {
  for (auto _ : State) {
    auto P = core::compileProgram(SumSrc, "", "sum", asmx::Dialect::Arm,
                                  true);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_CompileArmO3);

void BM_AsmParse(benchmark::State &State) {
  auto P = core::compileProgram(SumSrc, "", "sum", asmx::Dialect::X86,
                                false);
  for (auto _ : State) {
    auto F = asmx::parseAsm(P->TargetAsm, asmx::Dialect::X86);
    benchmark::DoNotOptimize(F);
  }
}
BENCHMARK(BM_AsmParse);

void BM_InterpreterRun(benchmark::State &State) {
  auto P = core::compileProgram(SumSrc, "", "sum", asmx::Dialect::X86,
                                false);
  vm::HarnessConfig HC;
  for (auto _ : State) {
    vm::TestProfile Prof =
        vm::runProfile(P->Image, *P->Target, P->Globals, asmx::Dialect::X86,
                       HC);
    benchmark::DoNotOptimize(Prof);
  }
}
BENCHMARK(BM_InterpreterRun);

/// Verifying a wrong candidate (`sum` off by one, so it differs on the
/// first test input) against `sum`'s reference profile: all inputs then
/// profilesEquivalent (`full`), or vm::matchesProfile, which stops at the
/// first differing input (`early_exit`).
void BM_VerifyFirstInputDiffers(benchmark::State &State, bool EarlyExit) {
  auto Ref = core::compileProgram(SumSrc, "", "sum", asmx::Dialect::X86,
                                  false);
  auto Cand = core::compileProgram(
      "int sum(int *arr, int n) {\n  int total = 1;\n"
      "  for (int i = 0; i < n; i++) {\n    total += arr[i];\n  }\n"
      "  return total;\n}\n",
      "", "sum", asmx::Dialect::X86, false);
  vm::HarnessConfig HC;
  vm::TestProfile RefProfile = vm::runProfile(
      Ref->Image, *Ref->Target, Ref->Globals, asmx::Dialect::X86, HC);
  for (auto _ : State) {
    bool Match =
        EarlyExit
            ? vm::matchesProfile(RefProfile, Cand->Image, *Ref->Target,
                                 Ref->Globals, asmx::Dialect::X86, HC)
            : vm::profilesEquivalent(
                  RefProfile,
                  vm::runProfile(Cand->Image, *Ref->Target, Ref->Globals,
                                 asmx::Dialect::X86, HC));
    if (Match)
      State.SkipWithError("the candidate must differ");
    benchmark::DoNotOptimize(Match);
  }
}
BENCHMARK_CAPTURE(BM_VerifyFirstInputDiffers, full, false);
BENCHMARK_CAPTURE(BM_VerifyFirstInputDiffers, early_exit, true);

void BM_TokenizerEncode(benchmark::State &State) {
  std::vector<std::string> Texts(20, SumSrc);
  tok::Tokenizer::Config TC;
  tok::Tokenizer Tok = tok::Tokenizer::train(Texts, TC);
  auto P = core::compileProgram(SumSrc, "", "sum", asmx::Dialect::X86,
                                false);
  for (auto _ : State) {
    auto Ids = Tok.encode(P->TargetAsm);
    benchmark::DoNotOptimize(Ids);
  }
}
BENCHMARK(BM_TokenizerEncode);

/// The pinned tokenizers (perfbench/weights) on functions shaped like the
/// end-to-end benchmark's: the first 64 that compile from the workload's
/// corpus seed, at its ISA and opt level. Each iteration encodes one
/// function's assembly, as the engine does per request.
void BM_TokenizerEncodePinned(benchmark::State &State, const char *Name,
                              asmx::Dialect D, bool Optimize,
                              uint64_t CorpusSeed) {
  auto Tok = tok::Tokenizer::load(
      std::string(SLADE_SOURCE_DIR "/perfbench/weights/") + Name + ".tok");
  if (!Tok) {
    State.SkipWithError("pinned tokenizer not found");
    return;
  }
  std::vector<std::string> Asm;
  SplitMix64 Rng(CorpusSeed);
  while (Asm.size() < 64) {
    dataset::Sample S =
        dataset::generateSample(Rng, dataset::Suite::ExeBench, "");
    if (auto P = core::compileProgram(S.FunctionSource, S.ContextSource,
                                      S.Name, D, Optimize))
      Asm.push_back(P->TargetAsm);
  }
  size_t I = 0;
  for (auto _ : State) {
    auto Ids = Tok->encode(Asm[I++ % Asm.size()]);
    benchmark::DoNotOptimize(Ids);
  }
}
BENCHMARK_CAPTURE(BM_TokenizerEncodePinned, x86_O0, "slade_x86_O0",
                  asmx::Dialect::X86, false, 0x5eed0002)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_TokenizerEncodePinned, arm_O3, "slade_arm_O3",
                  asmx::Dialect::Arm, true, 0x5eed0003)
    ->Unit(benchmark::kMicrosecond);

void BM_Gemm64(benchmark::State &State) {
  std::vector<float> A(64 * 64, 1.0f), B(64 * 64, 2.0f), C(64 * 64);
  for (auto _ : State) {
    std::fill(C.begin(), C.end(), 0.0f);
    nn::gemmAcc(A.data(), B.data(), C.data(), 64, 64, 64);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() * 64 * 64 * 64 * 2);
}
BENCHMARK(BM_Gemm64);

/// The seed's naive i-k-j GEMM, kept as the baseline the tiled kernel is
/// measured against.
void naiveGemmAcc(const float *A, const float *B, float *C, int M, int K,
                  int N) {
  for (int I = 0; I < M; ++I) {
    const float *ARow = A + static_cast<size_t>(I) * K;
    float *CRow = C + static_cast<size_t>(I) * N;
    for (int Kk = 0; Kk < K; ++Kk) {
      float AV = ARow[Kk];
      if (AV == 0.0f)
        continue;
      const float *BRow = B + static_cast<size_t>(Kk) * N;
      for (int J = 0; J < N; ++J)
        CRow[J] += AV * BRow[J];
    }
  }
}

void BM_Gemm64Naive(benchmark::State &State) {
  std::vector<float> A(64 * 64, 1.0f), B(64 * 64, 2.0f), C(64 * 64);
  for (auto _ : State) {
    std::fill(C.begin(), C.end(), 0.0f);
    naiveGemmAcc(A.data(), B.data(), C.data(), 64, 64, 64);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() * 64 * 64 * 64 * 2);
}
BENCHMARK(BM_Gemm64Naive);

void BM_EditDistance(benchmark::State &State) {
  std::string A(SumSrc), B(SumSrc);
  B[10] = 'x';
  for (auto _ : State) {
    double S = core::editSimilarity(A, B);
    benchmark::DoNotOptimize(S);
  }
}
BENCHMARK(BM_EditDistance);

void BM_RuleDecompile(benchmark::State &State) {
  auto P = core::compileProgram(SumSrc, "", "sum", asmx::Dialect::X86,
                                false);
  auto F = asmx::parseAsm(P->TargetAsm, asmx::Dialect::X86);
  for (auto _ : State) {
    auto C = baselines::ruleDecompile(*F, asmx::Dialect::X86);
    benchmark::DoNotOptimize(C);
  }
}
BENCHMARK(BM_RuleDecompile);

void BM_DecodeStep(benchmark::State &State) {
  nn::TransformerConfig MC;
  MC.Vocab = 512;
  nn::Transformer Model(MC);
  std::vector<int> Src(128, 5);
  nn::Transformer::DecodeState St = Model.startDecode(Src);
  std::vector<float> Logits = Model.stepDecode(St, nn::Transformer::BosId);
  for (auto _ : State) {
    Logits = Model.stepDecode(St, 7);
    benchmark::DoNotOptimize(Logits);
    if (St.Len > 200) {
      St = Model.startDecode(Src);
      Model.stepDecode(St, nn::Transformer::BosId);
    }
  }
}
BENCHMARK(BM_DecodeStep);

/// A one-source state over \p Enc with room for 256 positions, its BOS
/// row stepped and fanned out to five beams: the tick the 5-beam
/// benchmarks below time.
nn::Transformer::BatchDecodeState
fiveBeamState(const nn::Transformer &Model,
              std::shared_ptr<const nn::Transformer::EncoderCache> Enc) {
  nn::Transformer::BatchDecodeState St = Model.startDecodeStream(1, 5, 256);
  Model.admitStreamRow(St, 0, std::move(Enc));
  Model.stepDecodeBatch(St, {nn::Transformer::BosId});
  Model.reorderBeams(St, {0, 0, 0, 0, 0});
  return St;
}

/// One batched step for five beams — the amortized per-step cost of the
/// batched beam search (compare against 5x BM_DecodeStep).
void BM_DecodeStepBatched5(benchmark::State &State) {
  nn::TransformerConfig MC;
  MC.Vocab = 512;
  nn::Transformer Model(MC);
  std::vector<int> Src(128, 5);
  auto Enc = Model.encodeSource(Src);
  nn::Transformer::BatchDecodeState St = fiveBeamState(Model, Enc);
  std::vector<int> Tokens = {7, 8, 9, 10, 11};
  for (auto _ : State) {
    auto Logits = Model.stepDecodeBatch(St, Tokens);
    benchmark::DoNotOptimize(Logits);
    if (St.Len > 200)
      St = fiveBeamState(Model, Enc);
  }
}
BENCHMARK(BM_DecodeStepBatched5);

/// Per-call weight packing vs. the pre-packed operand, at the decode
/// tick's biggest GEMM (the logits projection, [5,64] x [64,512]):
/// arg 0 = pack B every call (what every GEMM paid before the
/// weight-version pack cache), arg 1 = pack once outside the loop and
/// run gemmAccPacked (the cached-PackedWeights hot path).
void BM_GemmPrepacked(benchmark::State &State) {
  const int M = 5, K = 64, N = 512;
  std::vector<float> A(static_cast<size_t>(M) * K),
      B(static_cast<size_t>(K) * N), C(static_cast<size_t>(M) * N);
  for (size_t I = 0; I < A.size(); ++I)
    A[I] = static_cast<float>((I * 37) % 64) / 64.0f - 0.5f;
  for (size_t I = 0; I < B.size(); ++I)
    B[I] = static_cast<float>((I * 53) % 64) / 64.0f - 0.5f;
  const bool Prepacked = State.range(0) != 0;
  nn::PackedMat P;
  if (Prepacked)
    nn::packBInto(B.data(), K, N, P);
  nn::PackedMat Scratch;
  for (auto _ : State) {
    std::fill(C.begin(), C.end(), 0.0f);
    if (Prepacked) {
      nn::gemmAccPacked(A.data(), P, C.data(), M);
    } else {
      nn::packBInto(B.data(), K, N, Scratch);
      nn::gemmAccPacked(A.data(), Scratch, C.data(), M);
    }
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() * 2LL * M * K * N);
}
BENCHMARK(BM_GemmPrepacked)->Arg(0)->Arg(1);

/// One 5-beam batched decode tick with the intra-tick pool installed
/// (BatchDecodeState::TP), arg = worker threads. Arg 1 is the
/// sequential path (a one-thread ParallelFor spawns no workers) and
/// must stay within noise of BM_DecodeStepBatched5 — that delta is the
/// --tick-threads 1 overhead budget (<2%). On a multi-core host the
/// higher args show the intra-tick scaling a single request gets.
void BM_TickThreadScaling(benchmark::State &State) {
  nn::TransformerConfig MC;
  MC.Vocab = 512;
  nn::Transformer Model(MC);
  std::vector<int> Src(128, 5);
  auto Enc = Model.encodeSource(Src);
  nn::ParallelFor TP(static_cast<int>(State.range(0)));
  nn::Transformer::BatchDecodeState St = fiveBeamState(Model, Enc);
  St.TP = &TP;
  std::vector<int> Tokens = {7, 8, 9, 10, 11};
  for (auto _ : State) {
    auto Logits = Model.stepDecodeBatch(St, Tokens);
    benchmark::DoNotOptimize(Logits);
    if (St.Len > 200) {
      St = fiveBeamState(Model, Enc);
      St.TP = &TP;
    }
  }
}
BENCHMARK(BM_TickThreadScaling)->Arg(1)->Arg(2)->Arg(4);

/// One decoder layer's cross-attention for the 5 beams of one source
/// (every head; the rows form one group), over a real EncoderCache of a
/// source of Arg tokens. The tick runs it once per decoder layer.
void BM_CrossAttention(benchmark::State &State) {
  nn::TransformerConfig MC;
  MC.Vocab = 512;
  MC.MaxLen = 336;
  nn::Transformer Model(MC);
  const int T = static_cast<int>(State.range(0)), Rows = 5;
  std::vector<int> Src;
  for (int I = 0; I < T; ++I)
    Src.push_back(3 + (I * 7) % 500);
  auto Enc = Model.encodeSource(Src);
  const int D = MC.DModel, H = MC.NHeads, Dh = D / H;
  const size_t KStride = static_cast<size_t>(nn::crossKStride(T));
  std::vector<float> Q(static_cast<size_t>(Rows) * D), Out(Q.size()),
      Scores(static_cast<size_t>(Rows) * KStride);
  for (size_t I = 0; I < Q.size(); ++I)
    Q[I] = static_cast<float>((I * 37) % 64) / 32.0f - 1.0f;
  const float InvS = 1.0f / std::sqrt(static_cast<float>(Dh));
  for (auto _ : State) {
    for (int Hd = 0; Hd < H; ++Hd)
      nn::crossAttendGroup(Q.data(), Out.data(), Rows, D, Dh, Hd,
                           Enc->CrossKT[0].data(), KStride,
                           Enc->CrossV[0].data(), T, InvS, Scores.data(),
                           KStride);
    benchmark::DoNotOptimize(Out.data());
  }
}
BENCHMARK(BM_CrossAttention)
    ->Arg(64)
    ->Arg(246)
    ->Arg(330)
    ->Unit(benchmark::kMicrosecond);

/// Beam selection (log-softmax, top-k, candidate ordering, retirement
/// and, constrained, the grammar mask) as the decode tick runs it after
/// the forward, which BM_DecodeStepBatched5 leaves out. The logits of
/// whole k=5 decodes of ARM O3 functions by the benchmark's pinned ARM O3
/// weights (perfbench/weights) are recorded once; each iteration replays
/// every decode's selections from scratch, so the trajectories are the
/// real ones. Masks come from the vocabulary's shared cache, which the
/// recording pass fills: every iteration measures it warm, as a
/// long-running decoder sees it. Reports the mean per 5-beam tick.
void BM_BeamSelect(benchmark::State &State, bool Constrained) {
  static const auto Sys =
      core::loadSystem(SLADE_SOURCE_DIR "/perfbench/weights", "slade_arm_O3");
  if (!Sys) {
    State.SkipWithError("pinned ARM O3 weights not found");
    return;
  }
  static const tok::VocabConstraint VC(Sys->Tok);
  const nn::Transformer &Model = Sys->Model;
  const int V = Model.config().Vocab;
  nn::BeamConfig BC; // k = 5, MaxLen 220: the decompiler's defaults.
  if (Constrained)
    BC.Constraint = &VC;

  // Per decode: the logits every tick's selection consumed.
  std::vector<std::vector<std::vector<float>>> Decodes;
  dataset::Corpus Corpus = dataset::buildCorpus(dataset::Suite::ExeBench, 0,
                                                24, /*Seed=*/20240505);
  for (const core::EvalTask &T :
       core::buildTasks(Corpus.Test, asmx::Dialect::Arm, /*Optimize=*/true)) {
    if (Decodes.size() == 8)
      break;
    auto Enc = Model.encodeSource(Sys->Tok.encode(T.Prog.TargetAsm));
    nn::Transformer::BatchDecodeState St =
        Model.startDecodeStream(1, BC.BeamSize, BC.MaxLen + 1);
    Model.admitStreamRow(St, 0, Enc);
    std::vector<float> Logits =
        Model.stepDecodeBatch(St, {nn::Transformer::BosId});
    std::vector<nn::beamcore::BeamMeta> Live(1);
    std::vector<nn::Hypothesis> Done;
    nn::beamcore::SelectScratch S;
    nn::beamcore::ConstraintCtx CC;
    CC.init(BC);
    Decodes.emplace_back();
    for (int It = 0; It < BC.MaxLen && !Live.empty(); ++It) {
      Decodes.back().push_back(Logits);
      nn::beamcore::SelectResult R = nn::beamcore::selectBeamStep(
          Live, Done, [&](size_t B) { return Logits.data() + B * V; }, V,
          BC, S, &CC);
      if (R.StopNow)
        break;
      if (!Live.empty()) {
        Model.reorderBeams(St, R.SrcIdx);
        Logits = Model.stepDecodeBatch(St, R.Tokens);
      }
    }
  }

  int64_t Ticks = 0;
  nn::beamcore::SelectScratch S;
  for (auto _ : State) {
    for (const std::vector<std::vector<float>> &Rec : Decodes) {
      std::vector<nn::beamcore::BeamMeta> Live(1);
      std::vector<nn::Hypothesis> Done;
      nn::beamcore::ConstraintCtx CC;
      CC.init(BC);
      for (const std::vector<float> &Logits : Rec) {
        ++Ticks;
        nn::beamcore::SelectResult R = nn::beamcore::selectBeamStep(
            Live, Done, [&](size_t B) { return Logits.data() + B * V; }, V,
            BC, S, &CC);
        if (R.StopNow)
          break;
      }
      benchmark::DoNotOptimize(Done.data());
    }
  }
  State.counters["per_tick"] = benchmark::Counter(
      static_cast<double>(Ticks),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_BeamSelect, plain, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BeamSelect, constrained, true)
    ->Unit(benchmark::kMillisecond);

/// One 512-wide log-softmax row (the pinned models' vocabulary), as beam
/// selection runs it once per live beam: over the whole row (plain
/// decode), or over the allowed ids of a grammar mask (constrained
/// decode; a fixed random mask allowing about a third of the ids).
void BM_LogSoftmaxRow(benchmark::State &State, bool AllowedIds) {
  const int V = 512;
  std::mt19937 Rng(5);
  std::normal_distribution<float> Normal(0.0f, 4.0f);
  std::vector<float> Row(V), LogP(V);
  std::vector<uint16_t> Ids;
  for (int I = 0; I < V; ++I) {
    Row[static_cast<size_t>(I)] = Normal(Rng);
    if (Rng() % 3 == 0)
      Ids.push_back(static_cast<uint16_t>(I));
  }
  for (auto _ : State) {
    if (AllowedIds)
      benchmark::DoNotOptimize(
          nn::beamcore::logSoftmaxAllowed(Row.data(), Ids, LogP));
    else
      nn::beamcore::logSoftmax(Row.data(), V, LogP);
    benchmark::DoNotOptimize(LogP.data());
  }
}
BENCHMARK_CAPTURE(BM_LogSoftmaxRow, plain, false);
BENCHMARK_CAPTURE(BM_LogSoftmaxRow, allowed, true);

/// The observability tax on the decode hot loop: one batched decode
/// step wrapped in EXACTLY the per-tick instrumentation the engine's
/// shardLoop runs — the per-shard counter bumps, the enabled() check,
/// the tick span record, and one per-request sampling decision.
/// Arg 0: tracing off (the always-compiled default cost).
/// Arg 1: tracing on, --trace-sample 16 (the recommended sampling).
/// Arg 2: tracing on, sample everything (worst case).
/// Budget (bench/README.md): Arg 0 within 1% of BM_DecodeStepBatched5,
/// Arg 1 within 2%.
void BM_TraceOverhead(benchmark::State &State) {
  nn::TransformerConfig MC;
  MC.Vocab = 512;
  nn::Transformer Model(MC);
  std::vector<int> Src(128, 5);
  auto Enc = Model.encodeSource(Src);
  nn::Transformer::BatchDecodeState St = fiveBeamState(Model, Enc);
  std::vector<int> Tokens = {7, 8, 9, 10, 11};

  // Private recorder + registry: the benchmark never dirties the global
  // trace. Instrument shapes mirror Engine::registerInstruments.
  obs::TraceRecorder R(obs::TraceRecorder::DefaultCapacity);
  obs::Registry Reg;
  obs::Counter &Steps = Reg.counter("bm_shard_steps_total", "bench", 1);
  obs::Counter &Rows = Reg.counter("bm_shard_step_rows_total", "bench", 1);
  obs::FloatCounter &Secs =
      Reg.floatCounter("bm_shard_decode_seconds_total", "bench", 1);
  if (State.range(0) == 1)
    R.enable(/*SampleEvery=*/16, /*Seed=*/7);
  else if (State.range(0) == 2)
    R.enable(1, 7);

  uint64_t Seq = 0;
  for (auto _ : State) {
    const bool TraceTick = R.enabled();
    const uint64_t TickStart = TraceTick ? R.nowNs() : 0;
    auto T0 = std::chrono::steady_clock::now();
    auto Logits = Model.stepDecodeBatch(St, Tokens);
    benchmark::DoNotOptimize(Logits);
    Secs.add(0, std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count());
    Steps.add(0, 1);
    Rows.add(0, Tokens.size());
    if (TraceTick)
      R.record(obs::SpanKind::Tick, 0, TickStart, R.nowNs(),
               Tokens.size());
    benchmark::DoNotOptimize(R.sampled(++Seq));
    if (St.Len > 200)
      St = fiveBeamState(Model, Enc);
  }
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1)->Arg(2);

std::vector<int> encodeBenchSource(int T) {
  std::vector<int> Src;
  for (int I = 0; I < T; ++I)
    Src.push_back(3 + (I * 7) % 500);
  return Src;
}

nn::TransformerConfig encodeBenchConfig() {
  nn::TransformerConfig MC; // Paper-shaped model, room for 300 tokens.
  MC.Vocab = 512;
  MC.MaxLen = 320;
  return MC;
}

/// Cold encoder forward + cross-K/V on the graph-free InferRuntime fast
/// path (the serving encode path). Arg: source length in tokens.
void BM_EncodeSource(benchmark::State &State) {
  nn::Transformer Model(encodeBenchConfig());
  std::vector<int> Src = encodeBenchSource(static_cast<int>(State.range(0)));
  for (auto _ : State) {
    auto Enc = Model.encodeSource(Src);
    benchmark::DoNotOptimize(Enc);
  }
}
BENCHMARK(BM_EncodeSource)->Arg(17)->Arg(300)->Unit(benchmark::kMicrosecond);

/// The encoder with pre-packed weights: arg 0 = steady state (the
/// weight-version pack cache is warm — every encode reuses the packed
/// tiles; compare against the recorded pre-pack BM_EncodeSource/300
/// number), arg 1 = a weight bump before every encode, so each
/// iteration pays the full DecodeConstants + PackedWeights rebuild on
/// top of the encode — the post-train-step cold cost.
void BM_EncodePrepacked(benchmark::State &State) {
  nn::Transformer Model(encodeBenchConfig());
  std::vector<int> Src = encodeBenchSource(300);
  const bool BumpEachIter = State.range(0) != 0;
  Model.encodeSource(Src); // Warm the pack cache.
  for (auto _ : State) {
    if (BumpEachIter)
      Model.bumpWeightVersion();
    auto Enc = Model.encodeSource(Src);
    benchmark::DoNotOptimize(Enc);
  }
}
BENCHMARK(BM_EncodePrepacked)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// The retained training-graph reference path (inference-mode Graph,
/// per-node arena allocation): the baseline the fast path is measured
/// against and the bit-exactness oracle.
void BM_EncodeSourceGraph(benchmark::State &State) {
  nn::Transformer Model(encodeBenchConfig());
  std::vector<int> Src = encodeBenchSource(static_cast<int>(State.range(0)));
  for (auto _ : State) {
    auto Enc = Model.encodeSourceGraph(Src);
    benchmark::DoNotOptimize(Enc);
  }
}
BENCHMARK(BM_EncodeSourceGraph)
    ->Arg(17)
    ->Arg(300)
    ->Unit(benchmark::kMicrosecond);

nn::BeamConfig beamBenchConfig() {
  nn::BeamConfig BC;
  BC.BeamSize = 5; // Paper: k = 5.
  BC.MaxLen = 64;  // 64-token targets.
  return BC;
}

/// End-to-end beam search, batched hot path (k=5, 64-token target).
void BM_BeamSearchBatched(benchmark::State &State) {
  nn::TransformerConfig MC;
  MC.Vocab = 512;
  nn::Transformer Model(MC);
  std::vector<int> Src(128, 5);
  nn::BeamConfig BC = beamBenchConfig();
  for (auto _ : State) {
    auto Hyps = nn::beamSearch(Model, Src, BC);
    benchmark::DoNotOptimize(Hyps);
  }
}
BENCHMARK(BM_BeamSearchBatched)->Unit(benchmark::kMillisecond);

/// The retained sequential reference path (per-beam stepDecode, full
/// KV-cache copy per survivor): the pre-batching baseline.
void BM_BeamSearchSequential(benchmark::State &State) {
  nn::TransformerConfig MC;
  MC.Vocab = 512;
  nn::Transformer Model(MC);
  std::vector<int> Src(128, 5);
  nn::BeamConfig BC = beamBenchConfig();
  for (auto _ : State) {
    auto Hyps = nn::beamSearchSequential(Model, Src, BC);
    benchmark::DoNotOptimize(Hyps);
  }
}
BENCHMARK(BM_BeamSearchSequential)->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// Streaming serve engine (continuous batching)
//===----------------------------------------------------------------------===//

/// A small deployable system + demo assembly corpus for the serving
/// benchmarks (paper-shaped model, tokenizer trained on the demo
/// corpus, weights at init — decode cost is representative and
/// deterministic). Built once, shared by every serving benchmark.
struct StreamBench {
  std::unique_ptr<core::Decompiler> Slade;
  std::vector<std::string> Asm; ///< Unique demo functions' assembly.
};

const StreamBench &streamBench() {
  static StreamBench *SB = [] {
    auto *B = new StreamBench();
    dataset::Corpus Corpus =
        dataset::buildCorpus(dataset::Suite::ExeBench, 24, 12,
                             /*Seed=*/20240303);
    core::TrainConfig TC;
    TC.Steps = 0; // Tokenizer only.
    TC.Verbose = false;
    core::TrainedSystem Sys = core::trainSystem(
        core::buildTrainPairs(Corpus.Train, asmx::Dialect::X86, false), TC);
    B->Slade = std::make_unique<core::Decompiler>(std::move(Sys.Tok),
                                                  std::move(Sys.Model));
    for (const core::EvalTask &T :
         core::buildTasks(Corpus.Test, asmx::Dialect::X86, false))
      B->Asm.push_back(T.Prog.TargetAsm);
    return B;
  }();
  return *SB;
}

/// Deterministic Poisson arrival offsets at \p Rate requests/sec.
std::vector<double> poissonArrivals(size_t N, double Rate, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::exponential_distribution<double> Exp(Rate);
  std::vector<double> At(N);
  double T = 0;
  for (size_t I = 0; I < N; ++I) {
    T += Exp(Rng);
    At[I] = T;
  }
  return At;
}

/// Streaming replay through the continuous-batching engine: Poisson
/// arrivals over the demo corpus, translate-only requests. Arg: engine
/// width (MaxLiveSources). Reports end-to-end requests/sec including
/// the arrival process.
void BM_EngineStreamPoisson(benchmark::State &State) {
  const StreamBench &B = streamBench();
  serve::EngineOptions EO;
  EO.BeamSize = 2; // The fusable regime (see the fusion table).
  EO.MaxLen = 48;
  EO.MaxLiveSources = static_cast<int>(State.range(0));
  // The decompiler (and its decoded-hypotheses LRU) is shared across
  // iterations; disable the cache so every replay really decodes.
  EO.UseDecodeCache = false;
  std::vector<double> At =
      poissonArrivals(B.Asm.size(), /*Rate=*/400.0, /*Seed=*/99);
  for (auto _ : State) {
    serve::Engine Eng(*B.Slade, EO);
    std::vector<serve::Handle> Handles(B.Asm.size());
    auto Start = std::chrono::steady_clock::now();
    for (size_t I = 0; I < B.Asm.size(); ++I) {
      std::this_thread::sleep_until(
          Start + std::chrono::duration<double>(At[I]));
      Handles[I] = Eng.submit({"f", B.Asm[I], {}, {}, nullptr});
    }
    for (auto &H : Handles)
      benchmark::DoNotOptimize(H.get());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Asm.size()));
}
BENCHMARK(BM_EngineStreamPoisson)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// BM_EngineStreamPoisson width 4 with request-lifecycle tracing armed
/// at the recommended sampling (--trace-sample 16): the end-to-end
/// serving overhead of tracing-on, budgeted <2% against the untraced
/// run (bench/README.md). The ring is cleared per iteration so wrap
/// bookkeeping stays out of the measurement.
void BM_EngineStreamPoissonTraced(benchmark::State &State) {
  const StreamBench &B = streamBench();
  serve::EngineOptions EO;
  EO.BeamSize = 2;
  EO.MaxLen = 48;
  EO.MaxLiveSources = 4;
  EO.UseDecodeCache = false;
  std::vector<double> At =
      poissonArrivals(B.Asm.size(), /*Rate=*/400.0, /*Seed=*/99);
  obs::trace().enable(/*SampleEvery=*/16, /*Seed=*/0);
  for (auto _ : State) {
    serve::Engine Eng(*B.Slade, EO);
    std::vector<serve::Handle> Handles(B.Asm.size());
    auto Start = std::chrono::steady_clock::now();
    for (size_t I = 0; I < B.Asm.size(); ++I) {
      std::this_thread::sleep_until(
          Start + std::chrono::duration<double>(At[I]));
      Handles[I] = Eng.submit({"f", B.Asm[I], {}, {}, nullptr});
    }
    for (auto &H : Handles)
      benchmark::DoNotOptimize(H.get());
  }
  obs::trace().disable();
  obs::trace().clear();
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Asm.size()));
}
BENCHMARK(BM_EngineStreamPoissonTraced)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Multi-core decode scaling: the all-unique demo corpus submitted all
/// at once (no arrival process) through an engine with N decode shards
/// at k=5 — the unfusable regime where sharding, not fusion, is the
/// decode lever. Reports end-to-end fn/s (items/s) and the p95 request
/// latency as a counter; compare Arg(1) vs Arg(2) vs Arg(4) for the
/// scaling curve (bench/README.md records it). The decode LRU is
/// disabled so every iteration really decodes.
void BM_EngineShardScaling(benchmark::State &State) {
  const StreamBench &B = streamBench();
  serve::EngineOptions EO;
  EO.BeamSize = 5;
  EO.MaxLen = 48;
  EO.MaxLiveSources = 1; // One source per shard batch: pure fan-out.
  EO.Shards = static_cast<int>(State.range(0));
  EO.UseDecodeCache = false;
  double P95 = 0;
  for (auto _ : State) {
    serve::Engine Eng(*B.Slade, EO);
    std::vector<serve::Handle> Handles;
    Handles.reserve(B.Asm.size());
    for (const std::string &A : B.Asm)
      Handles.push_back(Eng.submit({"f", A, {}, {}, nullptr}));
    for (auto &H : Handles)
      benchmark::DoNotOptimize(H.get());
    P95 = Eng.metrics().Latency.P95;
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Asm.size()));
  State.counters["p95_ms"] = 1e3 * P95;
}
BENCHMARK(BM_EngineShardScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Deadline-bookkeeping overhead at ZERO shed: the same all-at-once
/// replay with no deadlines (Arg 0) vs. a deadline generous enough that
/// nothing ever expires (Arg 1). The per-request costs a deadline adds
/// — the EDF heap ordering, the cancel-flag allocation, and the
/// dead-request sweeps on dispatch and every shard tick — must stay in
/// the noise: bench/README.md pins served-p95 within 2% across the two.
void BM_EngineDeadlineOverhead(benchmark::State &State) {
  const StreamBench &B = streamBench();
  const bool WithDeadline = State.range(0) != 0;
  serve::EngineOptions EO;
  EO.BeamSize = 2;
  EO.MaxLen = 48;
  EO.MaxLiveSources = 4;
  EO.UseDecodeCache = false;
  double P95 = 0;
  for (auto _ : State) {
    serve::Engine Eng(*B.Slade, EO);
    std::vector<serve::Handle> Handles;
    Handles.reserve(B.Asm.size());
    for (const std::string &A : B.Asm) {
      serve::DecompileRequest R;
      R.Name = "f";
      R.Asm = A;
      if (WithDeadline)
        R.Deadline =
            std::chrono::steady_clock::now() + std::chrono::hours(1);
      Handles.push_back(Eng.submit(std::move(R)));
    }
    for (auto &H : Handles)
      benchmark::DoNotOptimize(H.get());
    P95 = Eng.metrics().Latency.P95;
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Asm.size()));
  State.counters["p95_ms"] = 1e3 * P95;
}
BENCHMARK(BM_EngineDeadlineOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

//===----------------------------------------------------------------------===//
// Grammar-constrained decoding (--constrain=syntax)
//===----------------------------------------------------------------------===//

/// Raw oracle cost per emitted piece: advance over a representative C
/// function one vocabulary-piece-sized chunk at a time, computing the
/// terminal mask at each step — the work a constrained decode adds per
/// token before any logits are touched.
void BM_OraclePerToken(benchmark::State &State) {
  cc::PrefixOracle O;
  const std::string Src(SumSrc);
  // Chunk the text like tokenizer pieces (words / single puncts).
  std::vector<std::string> Pieces;
  size_t I = 0;
  auto IsWord = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
           (C >= '0' && C <= '9') || C == '_';
  };
  while (I < Src.size()) {
    size_t J = I + 1;
    if (IsWord(Src[I]))
      while (J < Src.size() && IsWord(Src[J]))
        ++J;
    Pieces.push_back(Src.substr(I, J - I));
    I = J;
  }
  for (auto _ : State) {
    cc::PrefixOracle::State S = O.start();
    for (const std::string &P : Pieces) {
      O.advance(S, P);
      uint64_t M = O.terminalMask(S);
      benchmark::DoNotOptimize(M);
    }
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Pieces.size()));
}
BENCHMARK(BM_OraclePerToken);

/// Full per-step constraint cost in context: beam search over the demo
/// system with the vocabulary mask on (Arg 1) vs. off (Arg 0). The gap
/// between the two, divided by steps, is the per-token overhead the
/// acceptance gate bounds at <5%% of the decode step (bench/README.md).
void BM_BeamConstrained(benchmark::State &State) {
  const StreamBench &B = streamBench();
  const bool Constrained = State.range(0) != 0;
  nn::ConstraintStats Stats;
  nn::BeamConfig BC;
  BC.BeamSize = 5;
  BC.MaxLen = 64;
  if (Constrained) {
    BC.Constraint = &B.Slade->vocabConstraint();
    BC.Stats = &Stats;
  }
  std::vector<int> Src = B.Slade->tokenizer().encode(B.Asm.front());
  auto Enc = B.Slade->encodeCached(Src);
  double Wall = 0;
  for (auto _ : State) {
    auto T0 = std::chrono::steady_clock::now();
    auto Hyps = nn::beamSearch(B.Slade->model(), Enc, BC);
    Wall += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          T0)
                .count();
    benchmark::DoNotOptimize(Hyps);
  }
  // Mask-computation share of the constrained decode's wall time: the
  // honest in-context overhead (total wall also shifts because the
  // constrained trajectory decodes to different, often longer, outputs).
  if (Constrained && Wall > 0)
    State.counters["oracle_pct"] = 100.0 * Stats.OracleSeconds / Wall;
}
BENCHMARK(BM_BeamConstrained)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// One streaming admission (encode through a warm LRU + admitStreamRow +
/// slot bookkeeping): the per-request fixed cost of joining the batch.
void BM_StreamAdmitRow(benchmark::State &State) {
  nn::Transformer Model(encodeBenchConfig());
  std::vector<int> Src = encodeBenchSource(64);
  auto Enc = Model.encodeSource(Src);
  nn::Transformer::BatchDecodeState St = Model.startDecodeStream(4, 5, 64);
  for (auto _ : State) {
    Model.admitStreamRow(St, 0, Enc);
    std::vector<float> L =
        Model.stepDecodeBatch(St, {nn::Transformer::BosId});
    benchmark::DoNotOptimize(L);
    Model.reorderBeams(St, {}); // Retire: recycle the row.
  }
}
BENCHMARK(BM_StreamAdmitRow)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
