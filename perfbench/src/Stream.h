//===- Stream.h - closed-loop request clients for the engine ----*- C++ -*-===//
///
/// \file
/// One timed phase of a closed-loop request stream: a fixed number of
/// client threads each submit a request to a serve::Engine, wait for it to
/// resolve and submit the next, until the phase's requests are used up.
/// The engine always holds that many requests, so its threads stay busy
/// and a request's latency is the engine's service and queueing time
/// rather than how fast the host wakes an idle CPU.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_PERFBENCH_STREAM_H
#define SLADE_PERFBENCH_STREAM_H

#include "serve/Engine.h"

#include <vector>

namespace slade {
namespace perfbench {

struct PhaseResult {
  /// Per request, in the order of \p Tasks, with the raw hypotheses
  /// dropped.
  std::vector<serve::RequestResult> Results;
  std::vector<double> LatencySeconds; ///< submit() entry -> resolution.
  /// Per resubmission: a client's previous resolution -> its next
  /// submit() entry (how long the benchmark, not the engine, took).
  std::vector<double> ResubmitSeconds;
  double SubmitBlockedSeconds = 0; ///< Summed time inside submit().
  double WallSeconds = 0;          ///< Phase start -> last resolution.
  /// Engine counters at the end of the phase, over the engine's life.
  serve::EngineMetrics Engine;
};

/// Serves \p Tasks through \p Eng with \p Clients closed-loop clients, each
/// taking the next unserved task when its previous request resolves, and
/// returns once every request has resolved.
PhaseResult runPhase(serve::Engine &Eng,
                     const std::vector<const core::EvalTask *> &Tasks,
                     int Clients);

} // namespace perfbench
} // namespace slade

#endif // SLADE_PERFBENCH_STREAM_H
