//===- Spans.cpp - in-memory span recorder for the traced run -------------===//

#include "Spans.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace slade;
using namespace slade::perfbench;

int64_t SpanRecorder::begin(const char *Name, uint64_t Request) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Request = Request;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.StartNs = nowNs();
  Spans.push_back(S);
  Open.push_back(static_cast<int64_t>(Spans.size() - 1));
  return Open.back();
}

void SpanRecorder::end(int64_t Index) {
  if (Index < 0)
    return;
  assert(!Open.empty() && Open.back() == Index && "spans close inner-first");
  Spans[static_cast<size_t>(Index)].EndNs = nowNs();
  Open.pop_back();
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
  // Children of one parent run one after another on the single traced
  // thread, so the part of a parent they cover is the sum of their
  // durations clipped to the parent's interval.
  std::vector<uint64_t> Covered(Spans.size(), 0);
  for (const Span &S : Spans) {
    if (S.Parent < 0)
      continue;
    const Span &P = Spans[static_cast<size_t>(S.Parent)];
    uint64_t Lo = std::max(S.StartNs, P.StartNs);
    uint64_t Hi = std::min(S.EndNs, P.EndNs);
    if (Hi > Lo)
      Covered[static_cast<size_t>(S.Parent)] += Hi - Lo;
  }
  std::map<std::string, SpanTotals> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    uint64_t Dur = S.EndNs > S.StartNs ? S.EndNs - S.StartNs : 0;
    uint64_t Self = Dur > Covered[I] ? Dur - Covered[I] : 0;
    SpanTotals &T = Out[S.Name];
    ++T.Calls;
    T.SelfSeconds += static_cast<double>(Self) * 1e-9;
  }
  return Out;
}

bool SpanRecorder::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", F);
  std::fputs("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
             "\"args\":{\"name\":\"staged pipeline\"}}",
             F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 ",\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"request\":%llu,\"span\":%zu,\"parent\":%lld}}",
                 S.Name,
                 static_cast<int>(std::string(S.Name).find('.')), S.Name,
                 static_cast<double>(S.StartNs) / 1000.0,
                 static_cast<double>(S.EndNs - S.StartNs) / 1000.0,
                 static_cast<unsigned long long>(S.Request), I,
                 static_cast<long long>(S.Parent));
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}
