//===- test_obs.cpp - observability layer tests --------------------------------===//
//
// The obs/ contract: the metrics registry renders lintable Prometheus
// text with exact percentile parity against the one nearest-rank
// implementation; the trace recorder's rings wrap without losing count,
// sample deterministically under a fixed seed, and record a complete,
// correctly-ordered span lifecycle for every sampled request at any
// shard count; the Chrome trace_event export is structurally valid JSON.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "serve/Engine.h"

#include "PipelineTestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <thread>

using namespace slade;

namespace {

// -- percentiles --------------------------------------------------------------

TEST(ObsStats, NearestRankPercentiles) {
  // Reference semantics pinned to the historical serve implementation —
  // rank = floor(P * N) into the zero-based sorted sample — so the
  // JSONL percentile fields report the exact values they always have.
  std::vector<double> S;
  for (int I = 100; I >= 1; --I)
    S.push_back(static_cast<double>(I));
  obs::SampleStats St = obs::sampleStats(S);
  EXPECT_EQ(St.Count, 100u);
  EXPECT_DOUBLE_EQ(St.P50, 51.0);  // Sorted[50].
  EXPECT_DOUBLE_EQ(St.P95, 96.0);  // Sorted[95].
  EXPECT_DOUBLE_EQ(St.P99, 100.0); // Sorted[99].
  EXPECT_DOUBLE_EQ(St.Max, 100.0);
  EXPECT_DOUBLE_EQ(St.Mean, 50.5);

  EXPECT_EQ(obs::sampleStats({}).Count, 0u);
  obs::SampleStats One = obs::sampleStats({3.5});
  EXPECT_DOUBLE_EQ(One.P50, 3.5);
  EXPECT_DOUBLE_EQ(One.P99, 3.5);
}

// -- instruments --------------------------------------------------------------

TEST(ObsMetrics, CountersAggregateAcrossCellsAndWriters) {
  obs::Registry Reg;
  obs::Counter &C = Reg.counter("t_total", "test", /*Cells=*/4);
  std::vector<std::thread> Ts;
  for (int W = 0; W < 4; ++W)
    Ts.emplace_back([&C, W] {
      for (int I = 0; I < 1000; ++I)
        C.add(W, 1);
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(C.value(), 4000u);
  EXPECT_EQ(C.cellValue(2), 1000u);

  obs::FloatCounter &F = Reg.floatCounter("t_seconds_total", "test", 2);
  F.add(0, 0.25);
  F.add(1, 0.5);
  EXPECT_DOUBLE_EQ(F.value(), 0.75);

  // Idempotent registration: same name -> same instrument.
  EXPECT_EQ(&Reg.counter("t_total", "test", 4), &C);
}

TEST(ObsMetrics, WiderRegistrationReplacesAndRetiresTheInstrument) {
  // The next engine on a registry may run more shards than the last: a
  // registration with a different cell count gets a fresh instrument,
  // and a writer still holding the old one stays valid.
  obs::Registry Reg;
  obs::Counter &Old = Reg.counter("t_shard_total", "test", 1);
  Old.add(0, 5);
  obs::Counter &New = Reg.counter("t_shard_total", "test", 4);
  EXPECT_NE(&New, &Old);
  EXPECT_EQ(New.cells(), 4);
  Old.add(0, 1); // Retired, not freed.
  EXPECT_EQ(Old.value(), 6u);
  New.add(3, 2);
  EXPECT_EQ(&Reg.counter("t_shard_total", "test", 4), &New);
  obs::FloatCounter &OldF = Reg.floatCounter("t_shard_seconds_total", "", 1);
  EXPECT_EQ(Reg.floatCounter("t_shard_seconds_total", "", 2).cells(), 2);
  OldF.add(0, 0.5);

  std::ostringstream SS;
  Reg.renderPrometheus(SS);
  const std::string T = SS.str();
  size_t Types = 0;
  for (size_t P = T.find("# TYPE t_shard_total "); P != std::string::npos;
       P = T.find("# TYPE t_shard_total ", P + 1))
    ++Types;
  EXPECT_EQ(Types, 1u) << T;
  for (int C = 0; C < 4; ++C)
    EXPECT_NE(T.find("t_shard_total{cell=\"" + std::to_string(C) + "\"} " +
                     (C == 3 ? "2" : "0") + "\n"),
              std::string::npos)
        << "cell " << C << " of the fresh instrument\n" << T;
  EXPECT_EQ(T.find("t_shard_total 6"), std::string::npos) << T;
}

TEST(ObsMetrics, HistogramBucketsAndExactWindowAgree) {
  obs::Registry Reg;
  obs::Histogram &H =
      Reg.histogram("t_lat_seconds", "test", {0.01, 0.1, 1.0}, 2);
  H.observe(0, 0.005); // le 0.01
  H.observe(1, 0.05);  // le 0.1
  H.observe(0, 0.5);   // le 1.0
  H.observe(1, 5.0);   // +Inf
  EXPECT_EQ(H.count(), 4u);
  EXPECT_DOUBLE_EQ(H.sum(), 5.555);
  std::vector<uint64_t> Cum = H.cumulativeCounts();
  ASSERT_EQ(Cum.size(), 4u); // 3 bounds + Inf.
  EXPECT_EQ(Cum[0], 1u);
  EXPECT_EQ(Cum[1], 2u);
  EXPECT_EQ(Cum[2], 3u);
  EXPECT_EQ(Cum[3], 4u);
  // The raw window gives EXACT percentiles, not bucket interpolation.
  obs::SampleStats St = H.stats();
  EXPECT_EQ(St.Count, 4u);
  EXPECT_DOUBLE_EQ(St.Max, 5.0);
  EXPECT_DOUBLE_EQ(St.P50, 0.5); // Sorted[floor(0.5 * 4)] = Sorted[2].

  std::vector<double> B = obs::Histogram::defaultLatencyBounds();
  ASSERT_GE(B.size(), 2u);
  EXPECT_TRUE(std::is_sorted(B.begin(), B.end()));
}

// -- Prometheus exposition ----------------------------------------------------

/// Minimal exposition-format lint, mirroring tools/check-prom.py: every
/// non-comment line is `name[{labels}] value`, HELP/TYPE announced once
/// per family and before its samples, histogram le="+Inf" count equals
/// the family's _count.
void lintPrometheus(const std::string &Text) {
  std::istringstream In(Text);
  std::string Line;
  std::set<std::string> Announced;
  std::map<std::string, double> InfCount, Count;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    if (Line.rfind("# HELP ", 0) == 0 || Line.rfind("# TYPE ", 0) == 0) {
      std::istringstream LS(Line);
      std::string Hash, What, Name;
      LS >> Hash >> What >> Name;
      if (What == "TYPE") {
        EXPECT_TRUE(Announced.insert(Name).second)
            << "duplicate TYPE for " << Name;
      }
      continue;
    }
    ASSERT_NE(Line[0], '#') << "unknown comment: " << Line;
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    std::string Sample = Line.substr(0, Space);
    double V = 0;
    ASSERT_NO_THROW(V = std::stod(Line.substr(Space + 1))) << Line;
    std::string Name = Sample.substr(0, Sample.find('{'));
    // Family = name minus a histogram/summary suffix.
    std::string Family = Name;
    for (const char *Suffix : {"_bucket", "_sum", "_count"}) {
      size_t L = std::strlen(Suffix);
      if (Name.size() > L && Name.compare(Name.size() - L, L, Suffix) == 0)
        Family = Name.substr(0, Name.size() - L);
    }
    EXPECT_TRUE(Announced.count(Name) || Announced.count(Family))
        << "sample before TYPE: " << Line;
    if (Sample.find("le=\"+Inf\"") != std::string::npos)
      InfCount[Family] = V;
    if (Name == Family + "_count")
      Count[Family] = V;
  }
  for (const auto &KV : Count)
    EXPECT_DOUBLE_EQ(InfCount[KV.first], KV.second)
        << "le=+Inf != _count for " << KV.first;
}

TEST(ObsMetrics, RegistryRendersLintablePrometheusText) {
  obs::Registry Reg;
  obs::Counter &C = Reg.counter("app_requests_total",
                                "Requests by shard.", 2);
  C.add(0, 3);
  C.add(1, 4);
  obs::Histogram &H =
      Reg.histogram("app_latency_seconds", "Latency.", {0.1, 1.0});
  H.observe(0, 0.05);
  H.observe(0, 3.0);
  uint64_t Tok = Reg.addCollector("app", [](obs::MetricSink &Sink) {
    Sink.counter("app_outcome_total", "Outcomes.", "status=\"ok\"", 5);
    Sink.counter("app_outcome_total", "Outcomes.", "status=\"shed\"", 2);
    Sink.gauge("app_live", "Live now.", "", 2);
  });

  std::ostringstream SS;
  Reg.renderPrometheus(SS);
  std::string Text = SS.str();
  lintPrometheus(Text);
  EXPECT_NE(Text.find("app_requests_total{cell=\"0\"} 3"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("app_latency_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("app_outcome_total{status=\"ok\"} 5"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("# TYPE app_live gauge\napp_live 2\n"),
            std::string::npos)
      << Text;

  // A collector added under the same key replaces the first, and the
  // first one's token then removes nothing.
  uint64_t Tok2 = Reg.addCollector("app", [](obs::MetricSink &Sink) {
    Sink.gauge("app_live", "Live now.", "", 3);
  });
  Reg.removeCollector(Tok);
  std::ostringstream SS2;
  Reg.renderPrometheus(SS2);
  lintPrometheus(SS2.str());
  EXPECT_EQ(SS2.str().find("app_outcome_total"), std::string::npos)
      << SS2.str();
  EXPECT_NE(SS2.str().find("app_live 3\n"), std::string::npos)
      << "the replacement stays\n" << SS2.str();
  Reg.removeCollector(Tok2);
  std::ostringstream SS3;
  Reg.renderPrometheus(SS3);
  EXPECT_EQ(SS3.str().find("app_live"), std::string::npos)
      << "collector must unregister";
}

// -- trace recorder -----------------------------------------------------------

TEST(ObsTrace, RingWrapsKeepingNewestAndCountingDropped) {
  constexpr size_t Cap = 64;
  obs::TraceRecorder R(Cap);
  R.enable();
  for (uint64_t I = 0; I < 3 * Cap; ++I)
    R.record(obs::SpanKind::Tick, /*Id=*/0, I, I + 1, /*Arg0=*/I);
  EXPECT_EQ(R.eventCount(), Cap);
  EXPECT_EQ(R.droppedCount(), 2 * Cap);
  // The survivors are exactly the NEWEST Cap events, oldest-first.
  std::vector<uint64_t> Args;
  R.forEachEvent([&](const obs::SpanEvent &E, uint32_t) {
    Args.push_back(E.Arg0);
  });
  ASSERT_EQ(Args.size(), Cap);
  for (size_t I = 0; I < Cap; ++I)
    EXPECT_EQ(Args[I], 2 * Cap + I);
  R.clear();
  EXPECT_EQ(R.eventCount(), 0u);
}

TEST(ObsTrace, SamplingIsDeterministicUnderAFixedSeed) {
  obs::TraceRecorder A(16), B(16);
  A.enable(/*SampleEvery=*/8, /*Seed=*/1234);
  B.enable(8, 1234);
  size_t Picked = 0;
  for (uint64_t Seq = 0; Seq < 4096; ++Seq) {
    EXPECT_EQ(A.sampled(Seq), B.sampled(Seq)) << Seq;
    EXPECT_EQ(A.sampled(Seq), A.sampled(Seq)) << "stable per Seq";
    Picked += A.sampled(Seq);
  }
  // Hash sampling: ~1/8 of requests, not exactly, never none.
  EXPECT_GT(Picked, 4096 / 16);
  EXPECT_LT(Picked, 4096 / 4);
  // A different seed picks a different subset.
  obs::TraceRecorder C(16);
  C.enable(8, 99);
  size_t Differs = 0;
  for (uint64_t Seq = 0; Seq < 4096; ++Seq)
    Differs += A.sampled(Seq) != C.sampled(Seq);
  EXPECT_GT(Differs, 0u);
  // Disabled recorders sample nothing; SampleEvery=1 samples everything.
  A.disable();
  EXPECT_FALSE(A.sampled(0));
  obs::TraceRecorder D(16);
  D.enable(1, 0);
  for (uint64_t Seq = 0; Seq < 64; ++Seq)
    EXPECT_TRUE(D.sampled(Seq));
}

TEST(ObsTrace, BuffersArePerThreadAndSurviveTheirThreads) {
  obs::TraceRecorder R(32);
  R.enable();
  std::vector<std::thread> Ts;
  for (int T = 0; T < 4; ++T)
    Ts.emplace_back([&R, T] {
      R.nameThread("w-" + std::to_string(T));
      for (int I = 0; I < 8; ++I)
        R.instant(obs::SpanKind::Submit, static_cast<uint64_t>(T));
    });
  for (std::thread &T : Ts)
    T.join();
  // All 32 events retained across 4 per-thread rings, readable after
  // the writers exited.
  EXPECT_EQ(R.eventCount(), 32u);
  std::set<uint32_t> Threads;
  R.forEachEvent([&](const obs::SpanEvent &, uint32_t Tid) {
    Threads.insert(Tid);
  });
  EXPECT_EQ(Threads.size(), 4u);
}

// -- Chrome trace_event export ------------------------------------------------

/// Structural JSON check: balanced {}/[] outside strings, no trailing
/// comma before a closer. (CI additionally runs `python -m json.tool`.)
void expectStructurallyValidJson(const std::string &J) {
  std::vector<char> Stack;
  bool InString = false, Escaped = false;
  char Prev = 0;
  for (char C : J) {
    if (InString) {
      if (Escaped)
        Escaped = false;
      else if (C == '\\')
        Escaped = true;
      else if (C == '"')
        InString = false;
      continue;
    }
    switch (C) {
    case '"':
      InString = true;
      break;
    case '{':
    case '[':
      Stack.push_back(C);
      break;
    case '}':
    case ']': {
      ASSERT_FALSE(Stack.empty());
      char Open = C == '}' ? '{' : '[';
      EXPECT_EQ(Stack.back(), Open);
      Stack.pop_back();
      EXPECT_NE(Prev, ',') << "trailing comma";
      break;
    }
    default:
      break;
    }
    if (!std::isspace(static_cast<unsigned char>(C)))
      Prev = C;
  }
  EXPECT_FALSE(InString);
  EXPECT_TRUE(Stack.empty());
}

TEST(ObsTrace, ChromeExportIsValidAndPairsAsyncSpans) {
  obs::TraceRecorder R(128);
  R.enable();
  R.nameThread("main");
  R.instant(obs::SpanKind::Submit, 7);
  R.record(obs::SpanKind::QueueWait, 7, 100, 250);
  R.record(obs::SpanKind::Decode, 7, 300, 900, /*steps=*/12);
  R.record(obs::SpanKind::Tick, /*shard=*/0, 310, 380, /*rows=*/3);
  R.instant(obs::SpanKind::Resolve, 7, /*status=*/0);
  std::ostringstream SS;
  R.writeChromeTrace(SS);
  std::string J = SS.str();
  expectStructurallyValidJson(J);
  EXPECT_EQ(J.rfind("{\"traceEvents\":[", 0), 0u) << J.substr(0, 40);
  EXPECT_NE(J.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(J.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(J.find("\"thread_name\""), std::string::npos);
  // Request-scope spans pair b/e on the request id; shard ticks are X.
  auto CountOf = [&J](const std::string &Needle) {
    size_t N = 0, At = 0;
    while ((At = J.find(Needle, At)) != std::string::npos) {
      ++N;
      At += Needle.size();
    }
    return N;
  };
  EXPECT_EQ(CountOf("\"ph\":\"b\""), 2u); // QueueWait + Decode.
  EXPECT_EQ(CountOf("\"ph\":\"b\""), CountOf("\"ph\":\"e\""));
  EXPECT_EQ(CountOf("\"ph\":\"X\""), 1u); // Tick.
  EXPECT_EQ(CountOf("\"ph\":\"n\""), 2u); // Submit + Resolve.
}

// -- engine integration: full-lifecycle spans at every shard count ------------

struct RequestTimeline {
  std::map<obs::SpanKind, std::vector<obs::SpanEvent>> ByKind;
  const obs::SpanEvent *one(obs::SpanKind K) const {
    auto It = ByKind.find(K);
    return It != ByKind.end() && It->second.size() == 1
               ? &It->second.front()
               : nullptr;
  }
};

TEST(ObsTrace, EngineRecordsOrderedLifecycleSpansAtEveryShardCount) {
  testutil::DecompilerFixture F(5);
  ASSERT_GE(F.Tasks.size(), 3u);
  std::vector<std::string> Asm;
  for (const core::EvalTask &T : F.Tasks)
    Asm.push_back(T.Prog.TargetAsm);

  obs::TraceRecorder &TR = obs::trace();
  for (int Shards : {1, 2, 4}) {
    TR.clear();
    TR.enable(/*SampleEvery=*/1, /*Seed=*/0);
    std::vector<std::string> Got;
    {
      serve::EngineOptions EO;
      EO.BeamSize = 2;
      EO.MaxLen = 24;
      EO.MaxLiveSources = 2;
      EO.Shards = Shards;
      EO.UseDecodeCache = false;
      serve::Engine Eng(*F.Slade, EO);
      std::vector<serve::Handle> Futs;
      for (const std::string &A : Asm)
        Futs.push_back(Eng.submit({"job", A, {}, {}, nullptr}));
      for (serve::Handle &Fut : Futs)
        Got.push_back(Fut.get().CSource);
    } // Engine stopped: the recorder is quiescent.
    TR.disable();

    // Tracing must not perturb outputs (the --check contract).
    for (size_t I = 0; I < Asm.size(); ++I)
      EXPECT_EQ(Got[I], F.Slade->translate(Asm[I], 2, 24))
          << "shards=" << Shards << " job " << I;

    std::map<uint64_t, RequestTimeline> Requests;
    size_t Ticks = 0;
    TR.forEachEvent([&](const obs::SpanEvent &E, uint32_t) {
      if (obs::isShardScope(E.Kind)) {
        if (E.Kind == obs::SpanKind::Tick) {
          ++Ticks;
          EXPECT_LT(E.Id, static_cast<uint64_t>(Shards));
          EXPECT_GE(E.Arg0, 1u) << "a tick decodes >= 1 row";
        }
        return;
      }
      Requests[E.Id].ByKind[E.Kind].push_back(E);
    });
    EXPECT_GE(Ticks, 1u) << "shards=" << Shards;
    EXPECT_EQ(Requests.size(), Asm.size()) << "shards=" << Shards;

    for (const auto &KV : Requests) {
      const RequestTimeline &T = KV.second;
      // Exactly one of each lifecycle span per sampled request.
      const obs::SpanEvent *Submit = T.one(obs::SpanKind::Submit);
      const obs::SpanEvent *QW = T.one(obs::SpanKind::QueueWait);
      const obs::SpanEvent *Dispatch = T.one(obs::SpanKind::Dispatch);
      const obs::SpanEvent *Decode = T.one(obs::SpanKind::Decode);
      const obs::SpanEvent *Resolve = T.one(obs::SpanKind::Resolve);
      ASSERT_NE(Submit, nullptr) << "req " << KV.first;
      ASSERT_NE(QW, nullptr) << "req " << KV.first;
      ASSERT_NE(Dispatch, nullptr) << "req " << KV.first;
      ASSERT_NE(Decode, nullptr) << "req " << KV.first;
      ASSERT_NE(Resolve, nullptr) << "req " << KV.first;
      // Nesting/ordering: queue wait starts at submit, dispatch follows
      // the pop, decode happens within the request, resolution last.
      EXPECT_LE(QW->StartNs, Submit->StartNs + 1);
      EXPECT_LE(QW->StartNs + QW->DurNs, Dispatch->StartNs + Dispatch->DurNs);
      EXPECT_GE(Decode->StartNs, QW->StartNs);
      EXPECT_GE(Resolve->StartNs, Decode->StartNs + Decode->DurNs);
      EXPECT_GE(Decode->Arg0, 1u) << "decode span carries step count";
      EXPECT_EQ(Resolve->Arg0, 0u) << "status ok";
    }
  }
  TR.clear();
}

TEST(ObsTrace, PromotedDuplicateDecodeSpanStartsAfterItsSubmit) {
  // A sampled duplicate attaches to the decode of an unsampled request,
  // which is then cancelled: the duplicate becomes the decode's front
  // client and records the decode span, which must start no earlier
  // than its own submit.
  testutil::DecompilerFixture F(3);
  ASSERT_GE(F.Tasks.size(), 1u);
  obs::TraceRecorder &TR = obs::trace();
  TR.clear();
  // Pick a seed that samples Seq 1 (the duplicate) but not Seq 0.
  uint64_t Seed = 0;
  for (; Seed < 64; ++Seed) {
    TR.enable(/*SampleEvery=*/2, Seed);
    if (!TR.sampled(0) && TR.sampled(1))
      break;
  }
  ASSERT_LT(Seed, 64u);
  {
    serve::Engine Eng(*F.Slade, testutil::slowSingleFlightOptions());
    auto [Main, Dup] =
        testutil::submitWithAttachedDuplicate(Eng, F.Tasks[0].Prog.TargetAsm);
    Main.cancel();
    EXPECT_EQ(Main.get().Status, serve::RequestStatus::Cancelled);
    EXPECT_TRUE(Dup.get().ok());
  } // Engine stopped: the recorder is quiescent.
  TR.disable();

  RequestTimeline Dup;
  size_t MainSpans = 0;
  TR.forEachEvent([&](const obs::SpanEvent &E, uint32_t) {
    if (obs::isShardScope(E.Kind))
      return;
    if (E.Id == 1)
      Dup.ByKind[E.Kind].push_back(E);
    else
      ++MainSpans;
  });
  EXPECT_EQ(MainSpans, 0u) << "the main request is not sampled";
  const obs::SpanEvent *Submit = Dup.one(obs::SpanKind::Submit);
  const obs::SpanEvent *Decode = Dup.one(obs::SpanKind::Decode);
  ASSERT_NE(Submit, nullptr);
  ASSERT_NE(Decode, nullptr) << "the front client records the decode";
  EXPECT_GE(Decode->StartNs, Submit->StartNs);
  EXPECT_GE(Decode->Arg0, 1u) << "decode span carries step count";
  TR.clear();
}

TEST(ObsTrace, UnsampledRequestsRecordNoLifecycleSpans) {
  testutil::DecompilerFixture F(4);
  ASSERT_GE(F.Tasks.size(), 2u);
  obs::TraceRecorder &TR = obs::trace();
  TR.clear();
  // A sampling rate far above the request count: with this seed no Seq
  // in [1, N] is picked (verified below against sampled()), so the
  // export must contain shard ticks only.
  TR.enable(/*SampleEvery=*/1000000, /*Seed=*/42);
  {
    serve::EngineOptions EO;
    EO.BeamSize = 1;
    EO.MaxLen = 16;
    EO.MaxLiveSources = 2;
    serve::Engine Eng(*F.Slade, EO);
    std::vector<serve::Handle> Futs;
    for (const core::EvalTask &T : F.Tasks)
      Futs.push_back(Eng.submit({T.Name, T.Prog.TargetAsm, {}, {}, nullptr}));
    for (serve::Handle &Fut : Futs)
      Fut.get();
  }
  TR.disable();
  size_t RequestSpans = 0, ShardSpans = 0;
  TR.forEachEvent([&](const obs::SpanEvent &E, uint32_t) {
    if (obs::isShardScope(E.Kind))
      ++ShardSpans;
    else
      ++RequestSpans;
  });
  EXPECT_EQ(RequestSpans, 0u);
  EXPECT_GE(ShardSpans, 1u) << "shard ticks record whenever enabled";
  TR.clear();
}

} // namespace
