//===- Stream.cpp - closed-loop request clients for the engine ------------===//

#include "Stream.h"

#include <algorithm>
#include <atomic>
#include <thread>

using namespace slade;
using namespace slade::perfbench;

namespace {
using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}
} // namespace

PhaseResult slade::perfbench::runPhase(
    serve::Engine &Eng, const std::vector<const core::EvalTask *> &Tasks,
    int Clients) {
  const size_t N = Tasks.size();
  PhaseResult R;
  R.Results.resize(N);
  R.LatencySeconds.resize(N);
  std::vector<std::vector<double>> Resubmit(Clients);
  std::vector<double> Blocked(Clients);
  std::vector<Clock::time_point> LastDone(Clients);
  std::atomic<size_t> Next{0};

  const Clock::time_point Start = Clock::now();
  auto Client = [&](int C) {
    bool First = true;
    Clock::time_point Done;
    for (size_t I; (I = Next.fetch_add(1)) < N;) {
      serve::DecompileRequest Req;
      Req.Name = Tasks[I]->Name;
      Req.Task = Tasks[I];
      Clock::time_point Enter = Clock::now();
      if (!First)
        Resubmit[C].push_back(secondsBetween(Done, Enter));
      First = false;
      // The callback runs on an engine thread just before the future is
      // fulfilled, so Done is visible once get() returns.
      serve::Handle H = Eng.submit(
          std::move(Req),
          [&Done](const serve::RequestResult &) { Done = Clock::now(); });
      Blocked[C] += secondsBetween(Enter, Clock::now());
      R.Results[I] = H.get();
      R.LatencySeconds[I] = secondsBetween(Enter, Done);
      R.Results[I].Hyps = {}; // Only the outcome is checked.
    }
    LastDone[C] = First ? Start : Done;
  };
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &T : Threads)
    T.join();

  Clock::time_point End = Start;
  for (int C = 0; C < Clients; ++C) {
    R.ResubmitSeconds.insert(R.ResubmitSeconds.end(), Resubmit[C].begin(),
                             Resubmit[C].end());
    R.SubmitBlockedSeconds += Blocked[C];
    End = std::max(End, LastDone[C]);
  }
  R.WallSeconds = secondsBetween(Start, End);
  R.Engine = Eng.metrics();
  return R;
}
