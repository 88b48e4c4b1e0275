//===- Spans.h - in-memory span recorder for the traced run -----*- C++ -*-===//
///
/// \file
/// One span per call into a layer: name, start, end, parent span and
/// request id. Spans stay in memory and are written out once, at exit, as
/// Chrome trace JSON (opens in Perfetto). A disabled recorder reads no
/// clock and stores nothing, so the same staged calls can be timed with
/// recording off to measure the recorder's own overhead.
///
/// Single-threaded by design: the traced run drives every input on one
/// thread, and the parent of a span is whatever span is open when it
/// begins.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_PERFBENCH_SPANS_H
#define SLADE_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace slade {
namespace perfbench {

struct Span {
  const char *Name = nullptr; ///< Static string: "<layer>.<call>".
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int64_t Parent = -1; ///< Index into the recorder's spans; -1 = root.
  uint64_t Request = 0;
};

/// Per-name totals derived from the recorded spans.
struct SpanTotals {
  uint64_t Calls = 0;
  /// Self time: each span's duration minus the part its children cover.
  double SelfSeconds = 0;
};

class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when recording is off.
  int64_t begin(const char *Name, uint64_t Request);
  void end(int64_t Index);

  /// RAII form of begin/end.
  class Scope {
  public:
    Scope(SpanRecorder &R, const char *Name, uint64_t Request)
        : R(R), Index(R.begin(Name, Request)) {}
    ~Scope() { R.end(Index); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &R;
    int64_t Index;
  };

  const std::vector<Span> &spans() const { return Spans; }
  std::map<std::string, SpanTotals> totals() const;

  /// Chrome trace_event JSON: one complete ("X") event per span on a
  /// single track, with the request id and parent in its args.
  bool writeChromeTrace(const std::string &Path) const;

private:
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }

  bool Enabled;
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  std::vector<Span> Spans;
  std::vector<int64_t> Open; ///< Stack of open span indices.
};

} // namespace perfbench
} // namespace slade

#endif // SLADE_PERFBENCH_SPANS_H
