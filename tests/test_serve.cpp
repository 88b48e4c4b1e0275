//===- test_serve.cpp - serving layer tests ------------------------------------===//
//
// The serving layer's contract is determinism: N jobs through the
// streaming engine (fused decode, in-flight dedup, decode cache, worker
// pool) must produce byte-identical per-job results to running the same
// jobs one at a time through the Decompiler. Plus JSONL corpus IO
// round-trips.
//
//===----------------------------------------------------------------------===//

#include "core/Eval.h"
#include "core/Metrics.h"
#include "obs/Metrics.h"
#include "serve/Engine.h"
#include "serve/Jsonl.h"

#include "PipelineTestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace slade;

namespace {

// -- JSONL -------------------------------------------------------------------

TEST(Jsonl, EscapeRoundTripsHostileStrings) {
  const std::string Cases[] = {
      "",
      "plain",
      "int f(char *s) { return s[0] == '\\n'; }",
      "quote \" backslash \\ tab \t newline \n cr \r",
      std::string("embedded\x01control\x1f"),
  };
  for (const std::string &S : Cases) {
    std::string Back;
    ASSERT_TRUE(serve::jsonUnescape(serve::jsonEscape(S), &Back));
    EXPECT_EQ(Back, S);
  }
}

TEST(Jsonl, UnicodeEscapesIncludingSurrogatePairs) {
  std::string Out;
  ASSERT_TRUE(serve::jsonUnescape("\\u0041\\u00e9\\u2581", &Out));
  EXPECT_EQ(Out, "A\xc3\xa9\xe2\x96\x81");
  // Non-BMP code point arrives as a surrogate pair from standard JSON
  // encoders and must decode to 4-byte UTF-8, not CESU-8 halves.
  ASSERT_TRUE(serve::jsonUnescape("\\ud83d\\ude00", &Out));
  EXPECT_EQ(Out, "\xf0\x9f\x98\x80");
  EXPECT_FALSE(serve::jsonUnescape("\\ud83d", &Out)) << "unpaired high";
  EXPECT_FALSE(serve::jsonUnescape("\\ude00", &Out)) << "unpaired low";
}

TEST(Jsonl, StringFieldExtraction) {
  std::string Line = "{\"name\": \"f1\", \"asm\": \"mov\\neax\", "
                     "\"n\": 3, \"context\": \"\"}";
  std::string V;
  ASSERT_TRUE(serve::jsonStringField(Line, "name", &V));
  EXPECT_EQ(V, "f1");
  ASSERT_TRUE(serve::jsonStringField(Line, "asm", &V));
  EXPECT_EQ(V, "mov\neax");
  ASSERT_TRUE(serve::jsonStringField(Line, "context", &V));
  EXPECT_EQ(V, "");
  EXPECT_FALSE(serve::jsonStringField(Line, "n", &V)) << "not a string";
  EXPECT_FALSE(serve::jsonStringField(Line, "missing", &V));
}

TEST(Jsonl, CorpusLoadClassifiesJobs) {
  std::string Path = testing::TempDir() + "slade_serve_corpus.jsonl";
  {
    std::ofstream Out(Path);
    Out << "# comment\n";
    Out << "{\"name\": \"a\", \"asm\": \"mov eax, 1\"}\n";
    Out << "\n";
    Out << "{\"name\": \"b\", \"function\": \"int b(void) { return 2; }\", "
           "\"context\": \"\"}\n";
  }
  auto Entries = serve::loadCorpusJsonl(Path);
  ASSERT_TRUE(Entries.hasValue()) << Entries.errorMessage();
  ASSERT_EQ(Entries->size(), 2u);
  EXPECT_EQ((*Entries)[0].Name, "a");
  EXPECT_FALSE((*Entries)[0].Asm.empty());
  EXPECT_TRUE((*Entries)[0].Function.empty());
  EXPECT_EQ((*Entries)[1].Name, "b");
  EXPECT_FALSE((*Entries)[1].Function.empty());
  std::remove(Path.c_str());
}

TEST(Jsonl, CorpusLoadRejectsJobsWithoutPayload) {
  std::string Path = testing::TempDir() + "slade_serve_bad.jsonl";
  {
    std::ofstream Out(Path);
    Out << "{\"name\": \"a\"}\n";
  }
  auto Entries = serve::loadCorpusJsonl(Path);
  EXPECT_FALSE(Entries.hasValue());
  std::remove(Path.c_str());
}

// Shared pipeline fixtures (tests/PipelineTestUtil.h): a tiny
// tokenizer-only system, demo tasks + Decompiler, and outcome equality.
using testutil::expectSameOutcome;
using ServeFixture = testutil::DecompilerFixture;

// -- streaming engine --------------------------------------------------------

TEST(AdmissionQueue, BoundedBackpressureAndClose) {
  serve::AdmissionQueue Q(2);
  serve::Admission A;
  A.Req.Name = "a";
  A.Seq = 0;
  ASSERT_TRUE(Q.push(A));
  A = serve::Admission();
  A.Req.Name = "b";
  A.Seq = 1;
  ASSERT_TRUE(Q.push(A));
  EXPECT_EQ(Q.size(), 2u);
  A = serve::Admission();
  A.Req.Name = "c";
  A.Seq = 2;
  EXPECT_FALSE(Q.tryPush(A)) << "full queue must reject tryPush";
  EXPECT_EQ(A.Req.Name, "c") << "rejected admission must stay intact";

  // A blocked push is released by a pop on another thread (backpressure).
  std::thread Producer([&Q] {
    serve::Admission P;
    P.Req.Name = "c";
    P.Seq = 2;
    EXPECT_TRUE(Q.push(P));
  });
  serve::Admission Out;
  ASSERT_TRUE(Q.pop(&Out));
  EXPECT_EQ(Out.Req.Name, "a") << "no deadlines: FIFO by submit seq";
  Producer.join();
  EXPECT_EQ(Q.size(), 2u);

  // close(): pops drain what remains, pushes fail with the admission
  // intact (the caller owns the typed rejection).
  Q.close();
  serve::Admission After;
  After.Req.Name = "d";
  After.Seq = 3;
  EXPECT_FALSE(Q.push(After));
  EXPECT_EQ(After.Req.Name, "d");
  ASSERT_TRUE(Q.pop(&Out));
  EXPECT_EQ(Out.Req.Name, "b");
  ASSERT_TRUE(Q.pop(&Out));
  EXPECT_EQ(Out.Req.Name, "c");
  EXPECT_FALSE(Q.pop(&Out)) << "closed + drained";
}

TEST(AdmissionQueue, EarliestDeadlineFirstWithFifoTiebreak) {
  // Deadlined admissions dequeue earliest-deadline-first ahead of
  // undeadlined ones; equal deadlines (including the no-deadline
  // common case) dequeue FIFO by submit sequence — deterministically.
  auto Now = std::chrono::steady_clock::now();
  serve::AdmissionQueue Q(8);
  auto Push = [&](const char *Name, uint64_t Seq,
                  std::chrono::steady_clock::time_point D) {
    serve::Admission A;
    A.Req.Name = Name;
    A.Req.Deadline = D;
    A.Seq = Seq;
    ASSERT_TRUE(Q.tryPush(A));
  };
  const auto None = std::chrono::steady_clock::time_point::max();
  Push("late-fifo-1", 0, None);
  Push("d200", 1, Now + std::chrono::milliseconds(200));
  Push("late-fifo-2", 2, None);
  Push("d100-first", 3, Now + std::chrono::milliseconds(100));
  Push("d100-second", 4, Now + std::chrono::milliseconds(100));
  Push("d50", 5, Now + std::chrono::milliseconds(50));

  const char *Expect[] = {"d50",         "d100-first",  "d100-second",
                          "d200",        "late-fifo-1", "late-fifo-2"};
  Q.close(); // pop() then drains what is queued and returns false.
  serve::Admission Out;
  for (const char *Name : Expect) {
    ASSERT_TRUE(Q.pop(&Out));
    EXPECT_EQ(Out.Req.Name, Name);
  }
  EXPECT_FALSE(Q.pop(&Out));
}

TEST(AdmissionQueue, CloseWakesEveryBlockedProducer) {
  // The shutdown race (satellite of the overload-safety PR): producers
  // blocked in push() on a FULL queue must ALL wake on close() and
  // return false with their admissions intact — no silent drop, no
  // producer left blocked forever, and the already-queued items still
  // drain through pop().
  serve::AdmissionQueue Q(1);
  serve::Admission A;
  A.Req.Name = "queued";
  ASSERT_TRUE(Q.push(A));

  constexpr int Blocked = 4;
  std::atomic<int> Rejected{0};
  std::vector<std::thread> Producers;
  for (int P = 0; P < Blocked; ++P)
    Producers.emplace_back([&Q, &Rejected, P] {
      serve::Admission B;
      B.Req.Name = "blocked" + std::to_string(P);
      if (!Q.push(B)) {
        EXPECT_EQ(B.Req.Name, "blocked" + std::to_string(P));
        ++Rejected;
      }
    });
  // Give the producers time to actually block on the full queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Q.close();
  for (std::thread &T : Producers)
    T.join(); // Hangs here if close() fails to wake a producer.
  EXPECT_EQ(Rejected.load(), Blocked);
  serve::Admission Out;
  ASSERT_TRUE(Q.pop(&Out)) << "queued items still drain after close";
  EXPECT_EQ(Out.Req.Name, "queued");
  EXPECT_FALSE(Q.pop(&Out));
}

TEST(Engine, StreamedArrivalsMatchSoloByteForByte) {
  // Requests submitted one at a time in a randomized order, with waits
  // in between that force retire-then-admit into recycled rows, must
  // each match a solo Decompiler::translate byte for byte.
  ServeFixture F(6);
  ASSERT_GE(F.Tasks.size(), 4u);
  std::vector<std::string> Asm;
  for (const core::EvalTask &T : F.Tasks)
    Asm.push_back(T.Prog.TargetAsm);

  serve::EngineOptions EO;
  EO.BeamSize = 3;
  EO.MaxLen = 32;
  EO.MaxLiveSources = 2;
  EO.QueueCapacity = 4;
  serve::Engine Eng(*F.Slade, EO);

  std::vector<size_t> Order(Asm.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::mt19937 Rng(7);
  std::shuffle(Order.begin(), Order.end(), Rng);

  std::vector<serve::Handle> Futs(Asm.size());
  for (size_t K = 0; K < Order.size(); ++K) {
    size_t I = Order[K];
    Futs[I] = Eng.submit({F.Tasks[I].Name, Asm[I], {}, {}, nullptr});
    if (K % 2 == 1) {
      // Wait a request out mid-stream: the engine goes (partially) idle
      // and the next submissions recycle freed segments.
      Futs[Order[K - 1]].wait();
    }
  }
  for (size_t I = 0; I < Asm.size(); ++I) {
    serve::RequestResult R = Futs[I].get();
    EXPECT_EQ(R.CSource,
              F.Slade->translate(Asm[I], EO.BeamSize, EO.MaxLen))
        << "job " << I;
    EXPECT_GE(R.TotalSeconds, 0.0);
  }
  serve::EngineMetrics M = Eng.metrics();
  EXPECT_EQ(M.Completed, Asm.size());
  EXPECT_GE(M.Steps, 1u);
}

TEST(Engine, RowRecyclingStressAndInFlightDedup) {
  // More jobs than rows, duplicate-heavy, submitted all at once: every
  // segment is recycled several times, admissions land while other
  // sources are mid-decode, and duplicates of live sources attach
  // (single-flight) — all without changing a single output byte.
  // Requests carry pre-encoded sources so dispatch is near-instant on
  // this tiny (sub-millisecond-decode) model and sources genuinely
  // overlap in the shard's batch.
  ServeFixture F(5);
  ASSERT_GE(F.Tasks.size(), 3u);
  std::vector<std::string> Asm;
  for (const core::EvalTask &T : F.Tasks)
    Asm.push_back(T.Prog.TargetAsm);

  serve::EngineOptions EO;
  EO.BeamSize = 2;
  EO.MaxLen = 28;
  EO.MaxLiveSources = 2;
  EO.QueueCapacity = 64;
  // Cache off: every duplicate must exercise a row or an attach — the
  // paths this stress test exists for — not a decode-LRU lookup.
  EO.UseDecodeCache = false;
  serve::Engine Eng(*F.Slade, EO);

  std::vector<std::vector<int>> Srcs;
  std::vector<std::shared_ptr<const nn::Transformer::EncoderCache>> Encs;
  for (const std::string &A : Asm) {
    Srcs.push_back(F.Slade->tokenizer().encode(A));
    Encs.push_back(F.Slade->encodeCached(Srcs.back()));
  }

  std::vector<size_t> Pick;
  for (int Round = 0; Round < 4; ++Round)
    for (size_t I = 0; I < Asm.size(); ++I)
      Pick.push_back(I);
  std::mt19937 Rng(11);
  std::shuffle(Pick.begin(), Pick.end(), Rng);

  std::vector<serve::Handle> Futs;
  for (size_t I : Pick)
    Futs.push_back(Eng.submit({"job", "", Srcs[I], Encs[I], nullptr}));
  for (size_t K = 0; K < Pick.size(); ++K) {
    serve::RequestResult R = Futs[K].get();
    EXPECT_EQ(R.CSource,
              F.Slade->translate(Asm[Pick[K]], EO.BeamSize, EO.MaxLen))
        << "request " << K << " (source " << Pick[K] << ")";
  }
  serve::EngineMetrics M = Eng.metrics();
  EXPECT_EQ(M.Completed, Pick.size());
  EXPECT_LE(M.PeakLiveSources, 2u);
  EXPECT_GE(M.FusedJobs, 2u) << "sources must have shared ticks";
}

TEST(Engine, VerifiedRequestsMatchDecompileOutcomes) {
  // Task-mode requests run the full pipeline with verification pooled
  // and overlapped; outcomes must equal sequential Decompiler runs.
  ServeFixture F(5);
  ASSERT_GE(F.Tasks.size(), 3u);
  // Duplicate a task: in-flight dedup or a decode-cache hit must not
  // change its result.
  F.Tasks.push_back(F.Tasks.front());

  serve::EngineOptions EO;
  EO.BeamSize = 3;
  EO.MaxLen = 40;
  EO.MaxLiveSources = 2;
  EO.VerifyThreads = 2;
  serve::Engine Eng(*F.Slade, EO);

  std::vector<serve::Handle> Futs;
  for (const core::EvalTask &T : F.Tasks)
    Futs.push_back(Eng.submit({T.Name, "", {}, {}, &T}));

  core::Decompiler::Options DO;
  DO.BeamSize = EO.BeamSize;
  DO.MaxLen = EO.MaxLen;
  core::Decompiler::Options Pooled = DO;
  DO.VerifyThreads = 1;
  Pooled.VerifyThreads = 2;
  for (size_t I = 0; I < F.Tasks.size(); ++I) {
    serve::RequestResult R = Futs[I].get();
    ASSERT_TRUE(R.Verified);
    int Rank;
    core::HypothesisOutcome Ref =
        testutil::referenceSelection(*F.Slade, F.Tasks[I], DO, &Rank);
    expectSameOutcome(R.Outcome, Ref, I);
    expectSameOutcome(F.Slade->decompile(F.Tasks[I], DO), Ref, I);
    expectSameOutcome(F.Slade->decompile(F.Tasks[I], Pooled), Ref, I);
  }
  serve::EngineMetrics M = Eng.metrics();
  EXPECT_GE(M.InFlightDeduped + M.DecodeCacheHits, 1u)
      << "the duplicate must not decode again";
}

TEST(Engine, SelectionMatchesReferenceAtEveryPassRank) {
  // With the serving benchmark's pinned x86 O0 weights, candidates do
  // pass: pick tasks whose first IO pass is the top candidate, a later
  // one, or none, and check that the sequential and pooled decompile
  // paths and a verified engine request keep the outcome (EditSim bits
  // included) of evaluating every candidate in beam order.
  auto Sys = core::loadSystem(SLADE_SOURCE_DIR "/perfbench/weights",
                              "slade_x86_O0");
  ASSERT_TRUE(Sys.hasValue()) << Sys.errorMessage();
  core::Decompiler D(std::move(Sys->Tok), std::move(Sys->Model));
  dataset::Corpus Corpus =
      dataset::buildCorpus(dataset::Suite::ExeBench, 0, 160, 20240101);
  std::vector<core::EvalTask> All =
      core::buildTasks(Corpus.Test, asmx::Dialect::X86, /*Optimize=*/false);

  core::Decompiler::Options DO;
  DO.VerifyThreads = 1;
  std::vector<const core::EvalTask *> Picked;
  std::vector<core::HypothesisOutcome> Refs;
  int Want[3] = {2, 2, 2}; // No pass, a top-candidate pass, a later pass.
  for (const core::EvalTask &T : All) {
    int Rank;
    core::HypothesisOutcome Ref =
        testutil::referenceSelection(D, T, DO, &Rank);
    int &Left = Want[Rank < 0 ? 0 : Rank == 0 ? 1 : 2];
    if (Left == 0)
      continue;
    --Left;
    Picked.push_back(&T);
    Refs.push_back(Ref);
    if (Picked.size() == 6)
      break;
  }
  ASSERT_EQ(Picked.size(), 6u) << "no pass / top pass / later pass left: "
                               << Want[0] << " / " << Want[1] << " / "
                               << Want[2];

  core::Decompiler::Options Pooled = DO;
  Pooled.VerifyThreads = 4;
  serve::EngineOptions EO;
  EO.BeamSize = DO.BeamSize;
  EO.MaxLen = DO.MaxLen;
  serve::Engine Eng(D, EO);
  std::vector<serve::Handle> Futs;
  for (const core::EvalTask *T : Picked)
    Futs.push_back(Eng.submit({T->Name, "", {}, {}, T}));
  for (size_t I = 0; I < Picked.size(); ++I) {
    expectSameOutcome(D.decompile(*Picked[I], DO), Refs[I], I);
    expectSameOutcome(D.decompile(*Picked[I], Pooled), Refs[I], I);
    serve::RequestResult R = Futs[I].get();
    ASSERT_TRUE(R.Verified);
    expectSameOutcome(R.Outcome, Refs[I], I);
  }
}

TEST(Engine, CallbackRunsBeforeFutureAndStopDrains) {
  ServeFixture F(3);
  ASSERT_GE(F.Tasks.size(), 1u);
  serve::EngineOptions EO;
  EO.BeamSize = 1;
  EO.MaxLen = 16;
  EO.MaxLiveSources = 1;
  serve::Engine Eng(*F.Slade, EO);

  std::atomic<int> Called{0};
  std::vector<serve::Handle> Futs;
  for (const core::EvalTask &T : F.Tasks)
    Futs.push_back(
        Eng.submit({T.Name, T.Prog.TargetAsm, {}, {}, nullptr},
                   [&Called](const serve::RequestResult &R) {
                     EXPECT_FALSE(R.Name.empty());
                     ++Called;
                   }));
  Eng.drain();
  EXPECT_EQ(static_cast<size_t>(Called.load()), F.Tasks.size());
  for (size_t I = 0; I < Futs.size(); ++I)
    EXPECT_EQ(Futs[I].get().Name, F.Tasks[I].Name);
  Eng.stop(); // Idempotent with the destructor.
  EXPECT_EQ(Eng.metrics().Completed, F.Tasks.size());
}

TEST(Engine, DegenerateConfigsResolveOkWithoutCrashOrHang) {
  // Options the decoder cannot run as given: no beam or no step decodes
  // nothing (Ok, no hypotheses, translate's empty source), and a
  // non-positive MaxLiveSources still gets one segment per shard.
  ServeFixture F(3);
  ASSERT_GE(F.Tasks.size(), 1u);
  const std::string &Asm = F.Tasks[0].Prog.TargetAsm;
  struct Case {
    int Beam, MaxLen, Live;
  };
  const Case Cases[] = {{0, 16, 2}, {-1, 16, 2}, {2, 0, 2},
                        {2, -1, 2}, {2, 16, 0}, {2, 16, -1}};
  for (const Case &C : Cases) {
    std::string What = "beam " + std::to_string(C.Beam) + " maxlen " +
                       std::to_string(C.MaxLen) + " live " +
                       std::to_string(C.Live);
    serve::EngineOptions EO;
    EO.BeamSize = C.Beam;
    EO.MaxLen = C.MaxLen;
    EO.MaxLiveSources = C.Live;
    serve::Engine Eng(*F.Slade, EO);
    EXPECT_GE(Eng.options().MaxLiveSources, 1) << What;
    serve::Handle H = Eng.submit({"job", Asm, {}, {}, nullptr});
    if (H.future().wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
      ADD_FAILURE() << What << ": request unresolved after 30 s";
      Eng.drain(std::chrono::steady_clock::now()); // Force-resolve, join.
      continue;
    }
    serve::RequestResult R = H.get();
    EXPECT_EQ(R.Status, serve::RequestStatus::Ok) << What;
    EXPECT_EQ(R.CSource, F.Slade->translate(Asm, C.Beam, C.MaxLen)) << What;
    EXPECT_EQ(R.Hyps.empty(), C.Beam < 1 || C.MaxLen < 1) << What;
  }
}

TEST(Engine, MismatchedConstraintResolvesOkWithNothing) {
  // A model whose vocabulary is not its tokenizer's cannot run a
  // constrained search: the dispatcher resolves the request Ok with no
  // hypotheses, as for no beam or no step, and the solo paths yield
  // nothing. (The model's vocabulary is the larger one here, so every
  // source id still has an embedding.)
  ServeFixture F(2);
  ASSERT_GE(F.Tasks.size(), 1u);
  const std::string &Asm = F.Tasks[0].Prog.TargetAsm;
  nn::TransformerConfig Cfg = F.Slade->model().config();
  Cfg.Vocab = static_cast<int>(F.Slade->tokenizer().vocabSize()) + 16;
  core::Decompiler D(F.Slade->tokenizer(), nn::Transformer(Cfg));
  serve::EngineOptions EO;
  EO.MaxLen = 16;
  EO.Constrain = nn::ConstrainMode::Syntax;
  serve::Engine Eng(D, EO);
  serve::Handle H = Eng.submit({"job", Asm, {}, {}, nullptr});
  ASSERT_EQ(H.future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  serve::RequestResult R = H.get();
  EXPECT_EQ(R.Status, serve::RequestStatus::Ok);
  EXPECT_TRUE(R.Hyps.empty());
  EXPECT_EQ(D.translate(Asm, 5, 16, nn::ConstrainMode::Syntax), "");
  core::Decompiler::Options DO;
  DO.MaxLen = 16;
  DO.Constrain = nn::ConstrainMode::Syntax;
  EXPECT_FALSE(D.decompile(F.Tasks[0], DO).Produced);
}

TEST(Engine, OutOfVocabularySourceResolvesEncodeFailed) {
  // A source id the model has no embedding for fails that request's
  // encode; the dispatcher survives and serves the next request. The
  // solo paths throw: the tokenizer and the model do not match.
  ServeFixture F(2);
  ASSERT_GE(F.Tasks.size(), 1u);
  const std::string &Asm = F.Tasks[0].Prog.TargetAsm;
  const int Vocab = F.Slade->model().config().Vocab;
  serve::EngineOptions EO;
  EO.BeamSize = 2;
  EO.MaxLen = 16;
  serve::Engine Eng(*F.Slade, EO);
  const std::vector<int> Bad[] = {{tok::Tokenizer::BosId, Vocab}, {-1}};
  for (const std::vector<int> &Src : Bad)
    EXPECT_EQ(Eng.submit({"oov", "", Src, {}, nullptr}).get().Status,
              serve::RequestStatus::EncodeFailed);
  serve::RequestResult R = Eng.submit({"job", Asm, {}, {}, nullptr}).get();
  EXPECT_EQ(R.Status, serve::RequestStatus::Ok);
  EXPECT_EQ(R.CSource, F.Slade->translate(Asm, EO.BeamSize, EO.MaxLen));
  Eng.stop();
  EXPECT_EQ(Eng.metrics().EncodeFailed, 2u);

  nn::TransformerConfig Cfg = F.Slade->model().config();
  Cfg.Vocab = 8;
  ASSERT_GT(F.Slade->tokenizer().vocabSize(), 8u);
  core::Decompiler Small(F.Slade->tokenizer(), nn::Transformer(Cfg));
  EXPECT_THROW(Small.translate(Asm, 2, 16), std::out_of_range);
}

// -- sharded engine ----------------------------------------------------------

TEST(Engine, BitExactAcrossShardCountsOnRandomizedArrivals) {
  // The same randomized arrival schedule (shuffled order, Poisson-style
  // gaps, duplicates) replayed through 1, 2, and 4 decode shards must
  // produce byte-identical results — equal to each other and to solo
  // translate calls. The decode LRU is off so every configuration
  // genuinely decodes on its shards.
  ServeFixture F(6);
  ASSERT_GE(F.Tasks.size(), 4u);
  std::vector<std::string> Asm;
  for (const core::EvalTask &T : F.Tasks)
    Asm.push_back(T.Prog.TargetAsm);

  // Two requests per source, shuffled; deterministic exponential gaps.
  std::vector<size_t> Order;
  for (size_t R = 0; R < 2; ++R)
    for (size_t I = 0; I < Asm.size(); ++I)
      Order.push_back(I);
  std::mt19937 Rng(13);
  std::shuffle(Order.begin(), Order.end(), Rng);
  std::exponential_distribution<double> Gap(2000.0); // ~0.5 ms mean.
  std::vector<double> Gaps;
  for (size_t K = 0; K < Order.size(); ++K)
    Gaps.push_back(Gap(Rng));

  std::vector<std::string> Solo(Asm.size());
  for (size_t I = 0; I < Asm.size(); ++I)
    Solo[I] = F.Slade->translate(Asm[I], 2, 24);

  for (int Shards : {1, 2, 4}) {
    serve::EngineOptions EO;
    EO.BeamSize = 2;
    EO.MaxLen = 24;
    EO.MaxLiveSources = 2;
    EO.Shards = Shards;
    EO.UseDecodeCache = false;
    serve::Engine Eng(*F.Slade, EO);
    EXPECT_EQ(Eng.shardCount(), Shards);
    std::vector<serve::Handle> Futs(Order.size());
    for (size_t K = 0; K < Order.size(); ++K) {
      std::this_thread::sleep_for(std::chrono::duration<double>(Gaps[K]));
      Futs[K] = Eng.submit({"job", Asm[Order[K]], {}, {}, nullptr});
    }
    for (size_t K = 0; K < Order.size(); ++K)
      EXPECT_EQ(Futs[K].get().CSource, Solo[Order[K]])
          << "shards=" << Shards << " request " << K;
    serve::EngineMetrics M = Eng.metrics();
    EXPECT_EQ(M.Completed, Order.size());
    ASSERT_EQ(M.Shards.size(), static_cast<size_t>(Shards));
    size_t ShardSources = 0;
    for (const serve::ShardUtil &U : M.Shards)
      ShardSources += U.Sources;
    // Every request is exactly one of: admitted into a shard row,
    // attached to a live duplicate, or (here, disabled) a cache hit.
    EXPECT_EQ(ShardSources + M.InFlightDeduped, M.Completed);
  }
}

TEST(Engine, BitExactAcrossTickThreadsShardsAndConstraint) {
  // The intra-tick pool contract: every TickThreads x Shards
  // combination, plain and grammar-constrained, serves byte-identical
  // results to solo translate. Pool runs must actually fan regions out
  // (slade_shard_parallel_regions_total > 0) and TickThreads = 1 runs
  // must fan out NOTHING — it is the sequential path, not an idle pool.
  ServeFixture F(5);
  ASSERT_GE(F.Tasks.size(), 3u);
  std::vector<std::string> Asm;
  for (const core::EvalTask &T : F.Tasks)
    Asm.push_back(T.Prog.TargetAsm);

  for (bool Constrained : {false, true}) {
    nn::ConstrainMode CM =
        Constrained ? nn::ConstrainMode::Syntax : nn::ConstrainMode::Off;
    std::vector<std::string> Solo(Asm.size());
    for (size_t I = 0; I < Asm.size(); ++I)
      Solo[I] = F.Slade->translate(Asm[I], 2, 24, CM);

    for (int Shards : {1, 2})
      for (int TickThreads : {1, 2, 4}) {
        obs::Registry Reg;
        serve::EngineOptions EO;
        EO.BeamSize = 2;
        EO.MaxLen = 24;
        EO.MaxLiveSources = 2;
        EO.Shards = Shards;
        EO.TickThreads = TickThreads;
        EO.UseDecodeCache = false;
        EO.Constrain = CM;
        EO.Metrics = &Reg;
        serve::Engine Eng(*F.Slade, EO);
        std::vector<serve::Handle> Futs;
        for (size_t R = 0; R < 2; ++R)
          for (size_t I = 0; I < Asm.size(); ++I)
            Futs.push_back(Eng.submit({"job", Asm[I], {}, {}, nullptr}));
        for (size_t K = 0; K < Futs.size(); ++K)
          EXPECT_EQ(Futs[K].get().CSource, Solo[K % Asm.size()])
              << "constrained=" << Constrained << " shards=" << Shards
              << " tick-threads=" << TickThreads << " request " << K;
        uint64_t Regions =
            Reg.counter("slade_shard_parallel_regions_total", "", Shards)
                .value();
        if (TickThreads > 1)
          EXPECT_GT(Regions, 0u)
              << "shards=" << Shards << " tick-threads=" << TickThreads
              << ": the pool never fanned out";
        else
          EXPECT_EQ(Regions, 0u)
              << "tick-threads=1 must take the sequential path";
      }
  }
}

TEST(Engine, CrossShardSingleFlightAttach) {
  // A burst of identical requests with the decode LRU OFF: the first
  // occupies a row on some shard; the dispatcher must route every
  // later duplicate to THAT shard as an attach (cross-shard
  // single-flight), not decode it again elsewhere. Every request
  // resolves under its own name, attached duplicates included.
  ServeFixture F(4);
  ASSERT_GE(F.Tasks.size(), 2u);
  const std::string &A = F.Tasks[0].Prog.TargetAsm;
  const std::string &B = F.Tasks[1].Prog.TargetAsm;

  serve::EngineOptions EO;
  EO.BeamSize = 2;
  EO.MaxLen = 32;
  EO.MaxLiveSources = 1;
  EO.Shards = 2;
  EO.UseDecodeCache = false;
  serve::Engine Eng(*F.Slade, EO);

  std::vector<std::string> Names = {"a0", "b"};
  for (int K = 1; K <= 10; ++K)
    Names.push_back("a" + std::to_string(K));
  std::vector<serve::Handle> Futs;
  for (const std::string &Name : Names)
    Futs.push_back(Eng.submit({Name, Name == "b" ? B : A, {}, {}, nullptr}));
  std::string SoloA = F.Slade->translate(A, EO.BeamSize, EO.MaxLen);
  std::string SoloB = F.Slade->translate(B, EO.BeamSize, EO.MaxLen);
  for (size_t K = 0; K < Futs.size(); ++K) {
    serve::RequestResult R = Futs[K].get();
    EXPECT_EQ(R.CSource, K == 1 ? SoloB : SoloA) << "request " << K;
    EXPECT_EQ(R.Name, Names[K]) << "request " << K;
  }
  serve::EngineMetrics M = Eng.metrics();
  EXPECT_EQ(M.Completed, Futs.size());
  EXPECT_GE(M.InFlightDeduped, 1u)
      << "duplicates of a live source must attach, not re-decode";
  EXPECT_EQ(M.DecodeCacheHits, 0u) << "cache disabled";
}

TEST(Engine, DecodeLRUServesNonOverlappingRepeats) {
  // The regime in-flight dedup cannot cover: a repeat arriving AFTER
  // the original retired. With the decoded-hypotheses LRU the repeat
  // completes without decoding, byte-identical.
  ServeFixture F(3);
  ASSERT_GE(F.Tasks.size(), 1u);
  const std::string &A = F.Tasks[0].Prog.TargetAsm;

  serve::EngineOptions EO;
  EO.BeamSize = 2;
  EO.MaxLen = 24;
  EO.MaxLiveSources = 1;
  serve::Engine Eng(*F.Slade, EO);

  serve::RequestResult First =
      Eng.submit({"first", A, {}, {}, nullptr}).get();
  // The source is now retired — nothing live to attach to.
  serve::RequestResult Again =
      Eng.submit({"again", A, {}, {}, nullptr}).get();
  EXPECT_EQ(Again.CSource, First.CSource);
  ASSERT_EQ(Again.Hyps.size(), First.Hyps.size());
  for (size_t I = 0; I < First.Hyps.size(); ++I)
    EXPECT_EQ(Again.Hyps[I].Tokens, First.Hyps[I].Tokens);
  serve::EngineMetrics M = Eng.metrics();
  EXPECT_EQ(M.DecodeCacheHits, 1u) << "the repeat must hit the LRU";
  EXPECT_EQ(M.InFlightDeduped, 0u) << "nothing was live to attach to";
  EXPECT_GT(M.DecodeCacheBytes, 0u);
  EXPECT_EQ(F.Slade->decodeCache().stats().Hits, 1u);
  // And a FRESH engine over the same decompiler still hits: the cache
  // outlives engines, which is what closes the non-overlapping-repeat
  // regime for long-lived serving.
  serve::Engine Eng2(*F.Slade, EO);
  serve::RequestResult Third =
      Eng2.submit({"third", A, {}, {}, nullptr}).get();
  EXPECT_EQ(Third.CSource, First.CSource);
  EXPECT_EQ(Eng2.metrics().DecodeCacheHits, 1u);
}

TEST(Engine, ShardBackfillAfterMassRetirement) {
  // More unique sources than total row slots (2 shards x 1 source):
  // placement fills both shards, later sources wait in the global
  // queue, and every retirement backfills the freed shard. Both shards
  // must end up having decoded sources.
  ServeFixture F(6);
  ASSERT_GE(F.Tasks.size(), 4u);

  serve::EngineOptions EO;
  EO.BeamSize = 2;
  EO.MaxLen = 24;
  EO.MaxLiveSources = 1;
  EO.Shards = 2;
  EO.UseDecodeCache = false;
  // Every tick sleeps SlowTickSeconds, so shard 0 is still decoding
  // request 1 when request 2 is placed (without it, a fast decode could
  // retire first and the tie would send request 2 to shard 0 again).
  EO.Faults.SlowTick = 1;
  serve::Engine Eng(*F.Slade, EO);

  std::vector<serve::Handle> Futs;
  for (const core::EvalTask &T : F.Tasks)
    Futs.push_back(Eng.submit({T.Name, T.Prog.TargetAsm, {}, {}, nullptr}));
  for (size_t I = 0; I < Futs.size(); ++I)
    EXPECT_EQ(Futs[I].get().CSource,
              F.Slade->translate(F.Tasks[I].Prog.TargetAsm, EO.BeamSize,
                                 EO.MaxLen))
        << "job " << I;
  serve::EngineMetrics M = Eng.metrics();
  ASSERT_EQ(M.Shards.size(), 2u);
  EXPECT_GE(M.Shards[0].Sources, 1u) << "shard 0 must get backfilled work";
  EXPECT_GE(M.Shards[1].Sources, 1u) << "shard 1 must get backfilled work";
  EXPECT_EQ(M.Shards[0].Sources + M.Shards[1].Sources, F.Tasks.size());
  EXPECT_LE(M.PeakLiveSources, 2u) << "1 row per shard, 2 shards";
}

TEST(Engine, StopDrainsNonEmptyShardsAndQueue) {
  // stop() with sources mid-decode on several shards AND requests still
  // queued: everything must complete (futures fulfilled with real
  // results), nothing dropped.
  ServeFixture F(5);
  ASSERT_GE(F.Tasks.size(), 3u);

  serve::EngineOptions EO;
  EO.BeamSize = 2;
  EO.MaxLen = 24;
  EO.MaxLiveSources = 1;
  EO.Shards = 2;
  serve::Engine Eng(*F.Slade, EO);

  std::vector<serve::Handle> Futs;
  std::vector<size_t> Pick;
  for (int Round = 0; Round < 2; ++Round)
    for (size_t I = 0; I < F.Tasks.size(); ++I) {
      Pick.push_back(I);
      Futs.push_back(Eng.submit(
          {"job", F.Tasks[I].Prog.TargetAsm, {}, {}, nullptr}));
    }
  Eng.stop(); // Immediately: shards are mid-flight, queue non-empty.
  for (size_t K = 0; K < Futs.size(); ++K)
    EXPECT_EQ(Futs[K].get().CSource,
              F.Slade->translate(F.Tasks[Pick[K]].Prog.TargetAsm,
                                 EO.BeamSize, EO.MaxLen))
        << "request " << K;
  EXPECT_EQ(Eng.metrics().Completed, Futs.size());
}

TEST(Engine, MetricsAggregationIsConsistentUnderConcurrentProducers) {
  // Four producer threads hammer a 4-shard engine; retirement and
  // completion bookkeeping from N shard threads plus the verify pool
  // must aggregate without losing a count (per-shard single-writer
  // accumulators + one completion mutex — TSan-friendly by design).
  ServeFixture F(4);
  ASSERT_GE(F.Tasks.size(), 2u);
  std::vector<std::string> Asm;
  for (const core::EvalTask &T : F.Tasks)
    Asm.push_back(T.Prog.TargetAsm);

  serve::EngineOptions EO;
  EO.BeamSize = 1;
  EO.MaxLen = 12;
  EO.MaxLiveSources = 2;
  EO.Shards = 4;
  serve::Engine Eng(*F.Slade, EO);

  constexpr int PerProducer = 10;
  std::vector<std::thread> Producers;
  std::mutex FutsMu;
  std::vector<serve::Handle> Futs;
  for (int P = 0; P < 4; ++P)
    Producers.emplace_back([&, P] {
      for (int K = 0; K < PerProducer; ++K) {
        serve::Handle Fut = Eng.submit(
            {"p" + std::to_string(P), Asm[static_cast<size_t>(K) %
                                          Asm.size()],
             {}, {}, nullptr});
        std::lock_guard<std::mutex> Lock(FutsMu);
        Futs.push_back(std::move(Fut));
      }
    });
  for (std::thread &T : Producers)
    T.join();
  Eng.drain();
  serve::EngineMetrics M = Eng.metrics();
  EXPECT_EQ(M.Submitted, static_cast<size_t>(4 * PerProducer));
  EXPECT_EQ(M.Completed, M.Submitted);
  size_t ShardSources = 0;
  uint64_t ShardRows = 0;
  for (const serve::ShardUtil &U : M.Shards) {
    ShardSources += U.Sources;
    ShardRows += U.StepRows;
  }
  // Every request resolves exactly one way; the global row/tick sums
  // are exactly the per-shard sums.
  EXPECT_EQ(ShardSources + M.InFlightDeduped + M.DecodeCacheHits,
            M.Completed);
  EXPECT_EQ(M.StepRows, ShardRows);
  // Every future must be fulfilled (get() would throw broken_promise
  // if a completion were lost).
  for (serve::Handle &Fut : Futs)
    EXPECT_NO_THROW(Fut.get());
}

// -- overload safety: deadlines, cancellation, shedding, drain, faults -------

/// Asserts the engine's accounting invariant: every submitted request
/// resolved exactly once with a typed status, and the status counters
/// partition the completions.
void expectAccountingClosed(const serve::EngineMetrics &M) {
  EXPECT_EQ(M.Completed, M.Submitted);
  size_t NonOk = M.Shed + M.Expired + M.Cancelled + M.ShutDown +
                 M.EncodeFailed + M.VerifyFailed;
  EXPECT_LE(NonOk, M.Completed);
  // Ok completions are the remainder; the counters must not overlap.
  EXPECT_EQ(M.Completed - NonOk + NonOk, M.Completed);
}

TEST(Engine, PreExpiredDeadlineShedsAtSubmit) {
  ServeFixture F(3);
  ASSERT_GE(F.Tasks.size(), 1u);
  serve::EngineOptions EO;
  EO.BeamSize = 1;
  EO.MaxLen = 16;
  serve::Engine Eng(*F.Slade, EO);

  serve::DecompileRequest R;
  R.Name = "expired";
  R.Asm = F.Tasks[0].Prog.TargetAsm;
  R.Deadline = std::chrono::steady_clock::now() -
               std::chrono::milliseconds(1);
  serve::RequestResult Res = Eng.submit(std::move(R)).get();
  EXPECT_EQ(Res.Status, serve::RequestStatus::DeadlineExpired);
  EXPECT_EQ(Res.Name, "expired") << "typed resolutions keep the name";
  EXPECT_FALSE(Res.ok());
  EXPECT_TRUE(Res.Hyps.empty());
  Eng.stop();
  serve::EngineMetrics M = Eng.metrics();
  EXPECT_EQ(M.Expired, 1u);
  EXPECT_EQ(M.Steps, 0u) << "shed work must never reach a decode row";
  expectAccountingClosed(M);
}

TEST(Engine, DeadlineExpiringBetweenDispatchAndAdmissionIsShed) {
  // A single 1-row shard is held by a long decode; a deadlined request
  // dispatched behind it expires while waiting for a segment (between
  // dispatch and shard admission) and must resolve DeadlineExpired at
  // its deadline — without decoding, without waiting for the blocker to
  // retire, and without holding up the undeadlined request behind it.
  ServeFixture F(4);
  ASSERT_GE(F.Tasks.size(), 3u);
  serve::EngineOptions EO;
  EO.BeamSize = 5;
  EO.MaxLen = 220; // The blocker decodes for many ticks.
  EO.MaxLiveSources = 1;
  EO.Shards = 1;
  EO.UseDecodeCache = false;
  // Every tick sleeps 2 ms, so the blocker still holds the row after the
  // 5 ms below on any host: unslowed, this tiny model's decode can end
  // sooner, and the victim would then be admitted at once.
  EO.Faults.SlowTick = 1;
  serve::Engine Eng(*F.Slade, EO);

  serve::Handle Blocker =
      Eng.submit({"blocker", F.Tasks[0].Prog.TargetAsm, {}, {}, nullptr});
  // Let the blocker reach its decode row before the victim arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  serve::DecompileRequest R;
  R.Name = "victim";
  R.Asm = F.Tasks[1].Prog.TargetAsm;
  R.Deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(2);
  serve::Handle VictimH = Eng.submit(std::move(R));
  serve::Handle After =
      Eng.submit({"after", F.Tasks[2].Prog.TargetAsm, {}, {}, nullptr});
  serve::RequestResult Victim = VictimH.get();
  EXPECT_EQ(Victim.Status, serve::RequestStatus::DeadlineExpired)
      << "expired between dispatch and admission";
  EXPECT_EQ(Blocker.future().wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "resolved at its deadline, while the blocker still decodes";
  EXPECT_TRUE(Blocker.get().ok()) << "the blocker is unaffected";
  EXPECT_TRUE(After.get().ok()) << "the request behind it is served";
  Eng.stop();
  serve::EngineMetrics M = Eng.metrics();
  EXPECT_EQ(M.Expired, 1u);
  expectAccountingClosed(M);
}

TEST(Engine, CancelResolvesInAnyStateAndRacesRetirementSafely) {
  // Cancels fired at random points — queued, mid-decode, and racing
  // retirement — must each resolve exactly once as Ok or Cancelled,
  // never hang, never double-resolve, and never disturb the requests
  // that were not cancelled.
  ServeFixture F(5);
  ASSERT_GE(F.Tasks.size(), 3u);
  std::vector<std::string> Asm;
  for (const core::EvalTask &T : F.Tasks)
    Asm.push_back(T.Prog.TargetAsm);

  serve::EngineOptions EO;
  EO.BeamSize = 2;
  EO.MaxLen = 32;
  EO.MaxLiveSources = 2;
  EO.Shards = 2;
  EO.UseDecodeCache = false;
  serve::Engine Eng(*F.Slade, EO);

  std::mt19937 Rng(17);
  std::vector<serve::Handle> Futs;
  std::vector<size_t> Pick;
  std::vector<bool> Cancelled;
  for (int Round = 0; Round < 6; ++Round)
    for (size_t I = 0; I < Asm.size(); ++I) {
      Pick.push_back(I);
      Futs.push_back(Eng.submit({"job", Asm[I], {}, {}, nullptr}));
      bool DoCancel = (Rng() % 2) == 0;
      Cancelled.push_back(DoCancel);
      if (DoCancel) {
        // Random stagger: some cancels land while queued, some
        // mid-decode, some exactly as the row retires.
        std::this_thread::sleep_for(
            std::chrono::microseconds(Rng() % 2000));
        Futs.back().cancel();
      }
    }
  size_t OkCount = 0, CancelledCount = 0;
  for (size_t K = 0; K < Futs.size(); ++K) {
    serve::RequestResult R = Futs[K].get(); // Throws if double-resolved.
    if (R.ok()) {
      ++OkCount;
      EXPECT_EQ(R.CSource,
                F.Slade->translate(Asm[Pick[K]], EO.BeamSize, EO.MaxLen))
          << "request " << K;
    } else {
      ASSERT_EQ(R.Status, serve::RequestStatus::Cancelled)
          << "request " << K;
      EXPECT_FALSE(Cancelled[K] == false)
          << "only cancelled requests may resolve Cancelled";
      ++CancelledCount;
    }
  }
  Eng.stop();
  serve::EngineMetrics M = Eng.metrics();
  EXPECT_EQ(M.Completed, Futs.size());
  EXPECT_EQ(M.Cancelled, CancelledCount);
  EXPECT_EQ(OkCount + CancelledCount, Futs.size());
  expectAccountingClosed(M);
}

TEST(Engine, CancellingTheMainServesItsAttachedDuplicate) {
  // The request that started a decode is cancelled while a duplicate is
  // attached to it: the decode is still wanted, so it keeps its row and
  // serves the duplicate, byte-identical to a solo translate.
  ServeFixture F(3);
  ASSERT_GE(F.Tasks.size(), 1u);
  const std::string &A = F.Tasks[0].Prog.TargetAsm;
  serve::EngineOptions EO = testutil::slowSingleFlightOptions();
  serve::Engine Eng(*F.Slade, EO);

  auto [Main, Dup] = testutil::submitWithAttachedDuplicate(Eng, A);
  Main.cancel();
  EXPECT_EQ(Main.get().Status, serve::RequestStatus::Cancelled);
  serve::RequestResult R = Dup.get();
  ASSERT_TRUE(R.ok()) << serve::requestStatusName(R.Status);
  EXPECT_EQ(R.Name, "dup");
  EXPECT_EQ(R.CSource, F.Slade->translate(A, EO.BeamSize, EO.MaxLen));
  Eng.stop();
  serve::EngineMetrics M = Eng.metrics();
  ASSERT_EQ(M.Shards.size(), 1u);
  EXPECT_EQ(M.Shards[0].Sources, 1u) << "one decode served the duplicate";
  EXPECT_EQ(M.InFlightDeduped, 1u);
  EXPECT_EQ(M.Cancelled, 1u);
  expectAccountingClosed(M);
}

TEST(Engine, CancellingAnAttachedDuplicateLeavesTheMainDecoding) {
  // A cancelled attached duplicate resolves on its own at the next tick;
  // the decode it shared goes on for the request that started it.
  ServeFixture F(3);
  ASSERT_GE(F.Tasks.size(), 1u);
  const std::string &A = F.Tasks[0].Prog.TargetAsm;
  serve::EngineOptions EO = testutil::slowSingleFlightOptions();
  serve::Engine Eng(*F.Slade, EO);

  auto [Main, Dup] = testutil::submitWithAttachedDuplicate(Eng, A);
  Dup.cancel();
  serve::RequestResult D = Dup.get();
  EXPECT_EQ(D.Status, serve::RequestStatus::Cancelled);
  EXPECT_EQ(D.Name, "dup");
  EXPECT_EQ(Main.future().wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "the duplicate resolves while the main still decodes";
  serve::RequestResult R = Main.get();
  ASSERT_TRUE(R.ok()) << serve::requestStatusName(R.Status);
  EXPECT_EQ(R.CSource, F.Slade->translate(A, EO.BeamSize, EO.MaxLen));
  Eng.stop();
  serve::EngineMetrics M = Eng.metrics();
  ASSERT_EQ(M.Shards.size(), 1u);
  EXPECT_EQ(M.Shards[0].Sources, 1u);
  EXPECT_EQ(M.InFlightDeduped, 1u);
  EXPECT_EQ(M.Cancelled, 1u);
  expectAccountingClosed(M);
}

TEST(Engine, LoadSheddingAccountsEveryRequestExactlyOnce) {
  // Load-shedding mode under a producer storm into a tiny queue: the
  // served set and the shed set must partition the submissions — every
  // handle resolves with a typed status, none resolves twice, and the
  // metrics agree with the per-request statuses.
  ServeFixture F(4);
  ASSERT_GE(F.Tasks.size(), 2u);
  std::vector<std::string> Asm;
  for (const core::EvalTask &T : F.Tasks)
    Asm.push_back(T.Prog.TargetAsm);

  serve::EngineOptions EO;
  EO.BeamSize = 2;
  EO.MaxLen = 24;
  EO.MaxLiveSources = 1;
  EO.Shards = 1;
  EO.QueueCapacity = 2; // Tiny on purpose: most of the storm sheds.
  EO.BlockOnFull = false;
  EO.UseDecodeCache = false;
  serve::Engine Eng(*F.Slade, EO);

  constexpr int Producers = 4, PerProducer = 12;
  std::mutex FutsMu;
  std::vector<serve::Handle> Futs;
  std::vector<std::thread> Threads;
  for (int P = 0; P < Producers; ++P)
    Threads.emplace_back([&, P] {
      std::mt19937 Rng(static_cast<unsigned>(100 + P));
      for (int K = 0; K < PerProducer; ++K) {
        serve::Handle H = Eng.submit(
            {"p" + std::to_string(P),
             Asm[static_cast<size_t>(Rng()) % Asm.size()], {}, {},
             nullptr});
        std::lock_guard<std::mutex> Lock(FutsMu);
        Futs.push_back(std::move(H));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  size_t Ok = 0, Shed = 0;
  for (serve::Handle &H : Futs) {
    serve::RequestResult R = H.get();
    if (R.ok())
      ++Ok;
    else {
      ASSERT_EQ(R.Status, serve::RequestStatus::QueueFull);
      EXPECT_TRUE(R.Hyps.empty());
      ++Shed;
    }
  }
  EXPECT_EQ(Ok + Shed, Futs.size()) << "served + shed = submitted";
  Eng.stop();
  serve::EngineMetrics M = Eng.metrics();
  EXPECT_EQ(M.Submitted, static_cast<size_t>(Producers * PerProducer));
  EXPECT_EQ(M.Shed, Shed);
  expectAccountingClosed(M);
}

TEST(Engine, GracefulDrainDeadlineResolvesEverything) {
  // drain(deadline) with a stuffed queue: in-flight work finishes until
  // the deadline, the leftovers force-resolve ShuttingDown, EVERY
  // future resolves, and later submits are rejected typed.
  ServeFixture F(5);
  ASSERT_GE(F.Tasks.size(), 3u);

  serve::EngineOptions EO;
  EO.BeamSize = 5;
  EO.MaxLen = 220; // Long decodes: the drain deadline lands mid-flight.
  EO.MaxLiveSources = 1;
  EO.Shards = 1;
  EO.UseDecodeCache = false;
  serve::Engine Eng(*F.Slade, EO);

  std::vector<serve::Handle> Futs;
  for (int Round = 0; Round < 4; ++Round)
    for (const core::EvalTask &T : F.Tasks)
      Futs.push_back(
          Eng.submit({T.Name, T.Prog.TargetAsm, {}, {}, nullptr}));
  Eng.drain(std::chrono::steady_clock::now() +
            std::chrono::milliseconds(30));
  size_t Ok = 0, ShutDown = 0;
  for (serve::Handle &H : Futs) {
    serve::RequestResult R = H.get(); // Must ALL be resolved by now.
    if (R.ok())
      ++Ok;
    else {
      ASSERT_EQ(R.Status, serve::RequestStatus::ShuttingDown);
      ++ShutDown;
    }
  }
  EXPECT_EQ(Ok + ShutDown, Futs.size());
  serve::RequestResult Late =
      Eng.submit({"late", F.Tasks[0].Prog.TargetAsm, {}, {}, nullptr})
          .get();
  EXPECT_EQ(Late.Status, serve::RequestStatus::ShuttingDown)
      << "submits after a drain resolve typed, not broken";
  serve::EngineMetrics M = Eng.metrics();
  EXPECT_EQ(M.ShutDown, ShutDown + 1);
  EXPECT_GE(M.DrainMs, 0.0);
  expectAccountingClosed(M);
}

TEST(Engine, EncodeFaultIsContainedToItsRequest) {
  ServeFixture F(3);
  ASSERT_GE(F.Tasks.size(), 2u);
  serve::EngineOptions EO;
  EO.BeamSize = 1;
  EO.MaxLen = 16;
  EO.Faults.Seed = 7;
  EO.Faults.EncodeThrow = 1.0; // Every encode throws, deterministically.
  serve::Engine Eng(*F.Slade, EO);

  std::vector<serve::Handle> Futs;
  for (const core::EvalTask &T : F.Tasks)
    Futs.push_back(
        Eng.submit({T.Name, T.Prog.TargetAsm, {}, {}, nullptr}));
  for (serve::Handle &H : Futs) {
    serve::RequestResult R = H.get();
    EXPECT_EQ(R.Status, serve::RequestStatus::EncodeFailed);
  }
  Eng.stop(); // The dispatcher survived every throw.
  serve::EngineMetrics M = Eng.metrics();
  EXPECT_EQ(M.EncodeFailed, Futs.size());
  expectAccountingClosed(M);
}

TEST(Engine, VerifyFaultsRetryThenResolveVerifyFailed) {
  // Every verify attempt throws (injected): the bounded retry ladder
  // runs, the candidate is given up as faulted, and the request
  // resolves VerifyFailed + Degraded — the verify pool and the shard
  // survive untouched.
  ServeFixture F(4);
  ASSERT_GE(F.Tasks.size(), 2u);
  serve::EngineOptions EO;
  EO.BeamSize = 2;
  EO.MaxLen = 32;
  EO.VerifyThreads = 2;
  EO.VerifyMaxRetries = 1;
  EO.VerifyRetryBackoff = 0.001;
  EO.Faults.Seed = 11;
  EO.Faults.VerifyThrow = 1.0;
  serve::Engine Eng(*F.Slade, EO);

  serve::RequestResult R =
      Eng.submit({F.Tasks[0].Name, "", {}, {}, &F.Tasks[0]}).get();
  EXPECT_EQ(R.Status, serve::RequestStatus::VerifyFailed);
  EXPECT_TRUE(R.Degraded);
  EXPECT_FALSE(R.Hyps.empty()) << "the decode itself succeeded";
  // The kept candidate faulted out: it reports no edit similarity, though
  // its C has some.
  ASSERT_TRUE(R.Outcome.Produced);
  EXPECT_EQ(R.Outcome.EditSim, 0.0);
  EXPECT_GT(core::editSimilarity(R.Outcome.CSource,
                                 F.Tasks[0].FunctionSource),
            0.0);

  // The engine still serves translate requests after the fault storm.
  serve::RequestResult T2 =
      Eng.submit({"t", F.Tasks[1].Prog.TargetAsm, {}, {}, nullptr}).get();
  EXPECT_TRUE(T2.ok());
  Eng.stop();
  serve::EngineMetrics M = Eng.metrics();
  EXPECT_EQ(M.VerifyFailed, 1u);
  EXPECT_GE(M.VerifyRetries, 1u) << "the retry ladder must have run";
  expectAccountingClosed(M);
}

TEST(Engine, FaultSoakEveryRequestResolvesExactlyOnceByteIdentical) {
  // The soak: a Poisson-ish replay under injected faults (encode
  // throws, verify throws/hangs, slow ticks), tight deadlines on some
  // requests, cancels on others, load-shedding admission — then a
  // bounded drain. Invariants: every handle resolves exactly once with
  // a typed status, the metrics partition the submissions, and every
  // undegraded OK translate matches the sequential decode byte for
  // byte. Run under ASan and TSan in CI.
  ServeFixture F(5);
  ASSERT_GE(F.Tasks.size(), 3u);
  std::vector<std::string> Asm;
  for (const core::EvalTask &T : F.Tasks)
    Asm.push_back(T.Prog.TargetAsm);
  std::vector<std::string> Solo(Asm.size());
  for (size_t I = 0; I < Asm.size(); ++I)
    Solo[I] = F.Slade->translate(Asm[I], 2, 24);

  serve::EngineOptions EO;
  EO.BeamSize = 2;
  EO.MaxLen = 24;
  EO.MaxLiveSources = 2;
  EO.Shards = 2;
  EO.QueueCapacity = 8;
  EO.BlockOnFull = false; // Shedding admission.
  EO.UseDecodeCache = false;
  EO.VerifyThreads = 2;
  EO.VerifyCandidateTimeout = 0.05;
  EO.VerifyMaxRetries = 1;
  EO.VerifyRetryBackoff = 0.001;
  EO.Faults.Seed = 20240808;
  EO.Faults.EncodeThrow = 0.1;
  EO.Faults.VerifyThrow = 0.2;
  EO.Faults.VerifyHang = 0.1;
  EO.Faults.SlowTick = 0.05;
  EO.Faults.HangSeconds = 0.01;
  EO.Faults.SlowTickSeconds = 0.001;
  serve::Engine Eng(*F.Slade, EO);

  std::mt19937 Rng(23);
  std::exponential_distribution<double> Gap(3000.0);
  std::vector<serve::Handle> Futs;
  std::vector<size_t> Pick; // Source index; SIZE_MAX = task mode.
  for (int K = 0; K < 48; ++K) {
    std::this_thread::sleep_for(std::chrono::duration<double>(Gap(Rng)));
    bool TaskMode = (Rng() % 8) == 0;
    serve::DecompileRequest R;
    R.Name = "soak" + std::to_string(K);
    if (TaskMode) {
      size_t TI = Rng() % F.Tasks.size();
      R.Task = &F.Tasks[TI];
      R.Asm = F.Tasks[TI].Prog.TargetAsm;
      Pick.push_back(SIZE_MAX);
    } else {
      size_t SI = Rng() % Asm.size();
      R.Asm = Asm[SI];
      Pick.push_back(SI);
    }
    if ((Rng() % 4) == 0) // Tight deadline on a quarter of the load.
      R.Deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(static_cast<int>(Rng() % 20));
    serve::Handle H = Eng.submit(std::move(R));
    if ((Rng() % 6) == 0) // Cancel a sixth, at random delay.
      H.cancel();
    Futs.push_back(std::move(H));
  }
  Eng.drain(std::chrono::steady_clock::now() +
            std::chrono::seconds(20)); // Generous: normally finishes early.

  size_t ByStatus[7] = {0, 0, 0, 0, 0, 0, 0};
  for (size_t K = 0; K < Futs.size(); ++K) {
    serve::RequestResult R = Futs[K].get(); // Exactly-once: get() works.
    ++ByStatus[static_cast<int>(R.Status)];
    if (R.ok() && !R.Degraded && Pick[K] != SIZE_MAX)
      EXPECT_EQ(R.CSource, Solo[Pick[K]])
          << "undegraded OK request " << K
          << " must match sequential decode";
  }
  serve::EngineMetrics M = Eng.metrics();
  EXPECT_EQ(M.Submitted, Futs.size());
  EXPECT_EQ(M.Completed, M.Submitted) << "no request lost or duplicated";
  EXPECT_EQ(M.Shed, ByStatus[1]);
  EXPECT_EQ(M.Expired, ByStatus[2]);
  EXPECT_EQ(M.Cancelled, ByStatus[3]);
  EXPECT_EQ(M.ShutDown, ByStatus[4]);
  EXPECT_EQ(M.EncodeFailed, ByStatus[5]);
  EXPECT_EQ(M.VerifyFailed, ByStatus[6]);
  expectAccountingClosed(M);
}

// -- unified metrics registry: scrape coherence ------------------------------

/// One sample value from a Prometheus exposition, or -1 when absent.
/// \p Sample is the full sample name including any label set.
double promSample(const std::string &Text, const std::string &Sample) {
  size_t At = 0;
  while ((At = Text.find(Sample, At)) != std::string::npos) {
    bool LineStart = At == 0 || Text[At - 1] == '\n';
    size_t After = At + Sample.size();
    if (LineStart && After < Text.size() && Text[After] == ' ')
      return std::atof(Text.c_str() + After + 1);
    At = After;
  }
  return -1;
}

TEST(Engine, PrometheusScrapeIsCoherentMidFlight) {
  // The scrape-consistency contract: `Completed == sum of the typed
  // outcome counters` and `Completed <= Submitted` hold on EVERY scrape
  // taken while the dispatcher, shard threads, and verify workers are
  // mutating counters concurrently — the outcome group renders from ONE
  // snapshot under the engine's completion mutex, never one atomic at a
  // time. Load mixes deadline expiries and cancels into the outcomes so
  // the invariant is exercised across several status counters at once.
  ServeFixture F(4);
  ASSERT_GE(F.Tasks.size(), 2u);
  std::vector<std::string> Asm;
  for (const core::EvalTask &T : F.Tasks)
    Asm.push_back(T.Prog.TargetAsm);

  obs::Registry Reg;
  serve::EngineOptions EO;
  EO.BeamSize = 2;
  EO.MaxLen = 24;
  EO.MaxLiveSources = 2;
  EO.Shards = 2;
  EO.QueueCapacity = 16;
  EO.UseDecodeCache = false;
  EO.Metrics = &Reg;
  serve::Engine Eng(*F.Slade, EO);

  std::atomic<bool> Done{false};
  std::atomic<size_t> Scrapes{0};
  std::thread Scraper([&] {
    while (!Done.load(std::memory_order_acquire)) {
      std::ostringstream SS;
      Reg.renderPrometheus(SS);
      std::string T = SS.str();
      double Submitted =
          promSample(T, "slade_engine_requests_submitted_total");
      double Completed =
          promSample(T, "slade_engine_requests_completed_total");
      EXPECT_GE(Submitted, 0) << "family missing from scrape";
      EXPECT_GE(Completed, 0) << "family missing from scrape";
      double OutcomeSum = 0;
      for (const char *St :
           {"ok", "queue_full", "deadline_expired", "cancelled",
            "shutting_down", "encode_failed", "verify_failed"}) {
        double V = promSample(
            T, std::string("slade_engine_outcome_total{status=\"") + St +
                   "\"}");
        EXPECT_GE(V, 0) << "status " << St << " missing from scrape";
        OutcomeSum += std::max(0.0, V);
      }
      EXPECT_DOUBLE_EQ(Completed, OutcomeSum)
          << "typed outcomes must partition completions on every scrape";
      EXPECT_LE(Completed, Submitted);
      Scrapes.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  std::mt19937 Rng(31);
  std::vector<serve::Handle> Futs;
  for (int K = 0; K < 40; ++K) {
    serve::DecompileRequest R;
    R.Name = "scrape" + std::to_string(K);
    R.Asm = Asm[static_cast<size_t>(K) % Asm.size()];
    if ((Rng() % 4) == 0)
      R.Deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(static_cast<int>(Rng() % 10));
    serve::Handle H = Eng.submit(std::move(R));
    if ((Rng() % 5) == 0)
      H.cancel();
    Futs.push_back(std::move(H));
    if ((K % 4) == 3)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Eng.drain(std::chrono::steady_clock::now() + std::chrono::seconds(20));
  // Keep scraping across the drained-but-alive window too.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Done.store(true, std::memory_order_release);
  Scraper.join();
  EXPECT_GE(Scrapes.load(), 10u) << "the soak must actually overlap scrapes";

  std::vector<double> Latency, QueueWait; // Over the Ok results.
  for (serve::Handle &Fut : Futs) {
    serve::RequestResult R;
    EXPECT_NO_THROW(R = Fut.get());
    if (R.ok()) {
      Latency.push_back(R.TotalSeconds);
      QueueWait.push_back(R.QueueWaitSeconds);
    }
  }
  serve::EngineMetrics M = Eng.metrics();
  expectAccountingClosed(M);
  // The new Ok counter closes the partition exactly.
  EXPECT_EQ(M.Ok + M.Shed + M.Expired + M.Cancelled + M.ShutDown +
                M.EncodeFailed + M.VerifyFailed,
            M.Completed);
  EXPECT_EQ(M.LiveSources, 0u) << "a drained engine holds no rows";
  // The registry-owned latency histogram is the JSONL percentile
  // source: exactly one observation per Ok completion.
  obs::Histogram &H = Reg.histogram("slade_engine_latency_seconds", "",
                                    obs::Histogram::defaultLatencyBounds());
  EXPECT_EQ(H.count(), static_cast<uint64_t>(M.Ok));
  // slade-serve's summary prints these percentiles as its served ones:
  // they must equal what the results themselves give.
  ASSERT_EQ(Latency.size(), M.Ok);
  for (const auto &Pair :
       {std::make_pair(M.Latency, obs::sampleStats(Latency)),
        std::make_pair(M.QueueWait, obs::sampleStats(QueueWait))}) {
    EXPECT_EQ(Pair.first.P50, Pair.second.P50);
    EXPECT_EQ(Pair.first.P95, Pair.second.P95);
    EXPECT_EQ(Pair.first.P99, Pair.second.P99);
    EXPECT_EQ(Pair.first.Max, Pair.second.Max);
  }
  // The collector emits the two engine gauges from the same store.
  std::ostringstream SS;
  Reg.renderPrometheus(SS);
  EXPECT_EQ(promSample(SS.str(), "slade_engine_live_sources"), 0.0);
  EXPECT_EQ(promSample(SS.str(), "slade_engine_tick_threads"), 1.0);
}

TEST(Engine, LaterEngineWithMoreShardsOnOneRegistry) {
  // drain() is the weight-hot-swap primitive, and the next engine on the
  // same registry may run more shards: it gets per-shard families of its
  // own width, while the drained engine keeps reading the cells it
  // wrote. Its collector replaces the drained engine's, so the
  // exposition renders each sample once.
  ServeFixture F(5);
  ASSERT_GE(F.Tasks.size(), 4u);
  obs::Registry Reg;
  serve::EngineOptions EO;
  EO.BeamSize = 2;
  EO.MaxLen = 16;
  EO.MaxLiveSources = 1;
  EO.UseDecodeCache = false;
  EO.Faults.SlowTick = 1; // Rows stay live, so placement spreads.
  EO.Metrics = &Reg;
  EO.Shards = 1;
  serve::Engine First(*F.Slade, EO);
  EXPECT_TRUE(First.submit({"first", F.Tasks[0].Prog.TargetAsm, {}, {},
                            nullptr})
                  .get()
                  .ok());
  First.drain(std::chrono::steady_clock::now() + std::chrono::seconds(20));

  EO.Shards = 4;
  serve::Engine Second(*F.Slade, EO);
  std::vector<serve::Handle> Futs;
  for (const core::EvalTask &T : F.Tasks)
    Futs.push_back(
        Second.submit({T.Name, T.Prog.TargetAsm, {}, {}, nullptr}));
  for (serve::Handle &H : Futs)
    EXPECT_TRUE(H.get().ok());
  Second.stop();
  serve::EngineMetrics M = Second.metrics();
  ASSERT_EQ(M.Shards.size(), 4u);
  size_t Sources = 0;
  for (const serve::ShardUtil &U : M.Shards)
    Sources += U.Sources;
  EXPECT_EQ(Sources, F.Tasks.size());
  EXPECT_EQ(
      Reg.counter("slade_shard_sources_total", "", 4).cellValue(3),
      M.Shards[3].Sources);
  serve::EngineMetrics Old = First.metrics();
  ASSERT_EQ(Old.Shards.size(), 1u);
  EXPECT_EQ(Old.Shards[0].Sources, 1u);

  // Both engines are alive here: only the later one's totals render.
  std::ostringstream SS;
  Reg.renderPrometheus(SS);
  const std::string Text = SS.str();
  std::set<std::string> Samples;
  std::istringstream In(Text);
  for (std::string Line; std::getline(In, Line);) {
    if (Line.empty() || Line[0] == '#')
      continue;
    EXPECT_TRUE(Samples.insert(Line.substr(0, Line.rfind(' '))).second)
        << "duplicate sample: " << Line;
  }
  EXPECT_EQ(promSample(Text, "slade_engine_requests_submitted_total"),
            static_cast<double>(F.Tasks.size()));
}

} // namespace
