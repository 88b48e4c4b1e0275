//===- Metrics.cpp - unified metrics registry (Prometheus exposition) ---------===//

#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

using namespace slade;
using namespace slade::obs;

double slade::obs::percentileOfSorted(const std::vector<double> &Sorted,
                                      double P) {
  if (Sorted.empty())
    return 0;
  size_t Rank = static_cast<size_t>(P * static_cast<double>(Sorted.size()));
  if (Rank >= Sorted.size())
    Rank = Sorted.size() - 1;
  return Sorted[Rank];
}

SampleStats slade::obs::sampleStats(std::vector<double> Samples) {
  SampleStats S;
  if (Samples.empty())
    return S;
  std::sort(Samples.begin(), Samples.end());
  S.P50 = percentileOfSorted(Samples, 0.50);
  S.P95 = percentileOfSorted(Samples, 0.95);
  S.P99 = percentileOfSorted(Samples, 0.99);
  S.Max = Samples.back();
  double Sum = 0;
  for (double V : Samples)
    Sum += V;
  S.Mean = Sum / static_cast<double>(Samples.size());
  S.Count = Samples.size();
  return S;
}

// -- Counter / FloatCounter --------------------------------------------------

Counter::Counter(std::string Name, std::string Help, size_t N)
    : Name(std::move(Name)), Help(std::move(Help)),
      NCells(std::max<size_t>(N, 1)),
      Cells(new detail::Cell<uint64_t>[NCells]) {}

uint64_t Counter::value() const {
  uint64_t Total = 0;
  for (size_t I = 0; I < NCells; ++I)
    Total += Cells[I].get();
  return Total;
}

FloatCounter::FloatCounter(std::string Name, std::string Help, size_t N)
    : Name(std::move(Name)), Help(std::move(Help)),
      NCells(std::max<size_t>(N, 1)),
      Cells(new detail::Cell<double>[NCells]) {}

double FloatCounter::value() const {
  double Total = 0;
  for (size_t I = 0; I < NCells; ++I)
    Total += Cells[I].get();
  return Total;
}

// -- Histogram ----------------------------------------------------------------

std::vector<double> Histogram::defaultLatencyBounds() {
  std::vector<double> B;
  for (double V = 0.001; V <= 64.0; V *= 2) // 1ms .. 64s
    B.push_back(V);
  return B;
}

Histogram::Histogram(std::string Name, std::string Help,
                     std::vector<double> Bnds, size_t N, size_t WinCap)
    : Name(std::move(Name)), Help(std::move(Help)), Bounds(std::move(Bnds)),
      NCells(std::max<size_t>(N, 1)), Stride(Bounds.size() + 1),
      BucketCells(new detail::Cell<uint64_t>[NCells * Stride]),
      SumCells(new detail::Cell<double>[NCells]),
      CountCells(new detail::Cell<uint64_t>[NCells]), WindowCap(WinCap) {
  assert(std::is_sorted(Bounds.begin(), Bounds.end()) &&
         "histogram bounds must ascend");
}

void Histogram::observe(int CellIdx, double V) {
  size_t C = static_cast<size_t>(CellIdx);
  // Non-cumulative per-bound slot; render merges cumulatively. Upper
  // bounds are inclusive (Prometheus `le`). The last slot is +Inf.
  size_t Slot = std::lower_bound(Bounds.begin(), Bounds.end(), V) -
                Bounds.begin();
  BucketCells[C * Stride + Slot].bump(1);
  SumCells[C].bump(V);
  CountCells[C].bump(1);
  if (WindowCap == 0)
    return;
  std::lock_guard<std::mutex> Lock(WindowMu);
  if (Window.size() < WindowCap) {
    Window.push_back(V);
  } else {
    Window[WindowCursor] = V;
    WindowCursor = (WindowCursor + 1) % WindowCap;
  }
}

uint64_t Histogram::count() const {
  uint64_t Total = 0;
  for (size_t I = 0; I < NCells; ++I)
    Total += CountCells[I].get();
  return Total;
}

double Histogram::sum() const {
  double Total = 0;
  for (size_t I = 0; I < NCells; ++I)
    Total += SumCells[I].get();
  return Total;
}

std::vector<uint64_t> Histogram::cumulativeCounts() const {
  std::vector<uint64_t> Cum(Stride, 0);
  for (size_t C = 0; C < NCells; ++C)
    for (size_t S = 0; S < Stride; ++S)
      Cum[S] += BucketCells[C * Stride + S].get();
  for (size_t S = 1; S < Stride; ++S)
    Cum[S] += Cum[S - 1];
  return Cum;
}

SampleStats Histogram::stats() const {
  std::vector<double> Samples;
  {
    std::lock_guard<std::mutex> Lock(WindowMu);
    Samples = Window;
  }
  return sampleStats(std::move(Samples));
}

// -- Registry -----------------------------------------------------------------

struct Registry::Entry {
  Registry::Kind Kind;
  std::string Name;
  std::unique_ptr<Counter> C;
  std::unique_ptr<FloatCounter> F;
  std::unique_ptr<Histogram> H;
};

// Out of line: Entry is incomplete at the point the header declares the
// Entries vector.
Registry::Registry() = default;
Registry::~Registry() = default;

namespace {

/// Prometheus sample value: integers render exactly, doubles tersely.
std::string promValue(double V) {
  if (V == static_cast<double>(static_cast<long long>(V)) &&
      std::fabs(V) < 1e15) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
    return Buf;
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

void writeHeader(std::ostream &OS, const std::string &Name,
                 const std::string &Help, const char *Type) {
  OS << "# HELP " << Name << ' ' << Help << '\n';
  OS << "# TYPE " << Name << ' ' << Type << '\n';
}

class TextSink final : public MetricSink {
public:
  explicit TextSink(std::ostream &OS) : OS(OS) {}
  void counter(const std::string &Name, const std::string &Help,
               const std::string &Labels, double V) override {
    emit(Name, Help, "counter", Labels, V);
  }
  void gauge(const std::string &Name, const std::string &Help,
             const std::string &Labels, double V) override {
    emit(Name, Help, "gauge", Labels, V);
  }

private:
  void emit(const std::string &Name, const std::string &Help,
            const char *Type, const std::string &Labels, double V) {
    // One HELP/TYPE header per family even when labeled samples arrive
    // one call at a time (Prometheus forbids repeats).
    if (Announced.find(' ' + Name + ' ') == std::string::npos) {
      writeHeader(OS, Name, Help, Type);
      Announced += ' ' + Name + ' ';
    }
    OS << Name;
    if (!Labels.empty())
      OS << '{' << Labels << '}';
    OS << ' ' << promValue(V) << '\n';
  }
  std::ostream &OS;
  std::string Announced;
};

} // namespace

Registry::Entry &Registry::entry(const std::string &Name, Kind K,
                                 size_t Cells) {
  for (std::unique_ptr<Entry> &E : Entries) {
    if (E->Name != Name)
      continue;
    assert(E->Kind == K && "metric re-registered as a different type");
    size_t Have = E->C ? E->C->NCells : E->F ? E->F->NCells : E->H->NCells;
    if (Have == Cells)
      return *E;
    Retired.push_back(std::move(E));
    E = std::make_unique<Entry>(); // Same slot: same exposition order.
    E->Kind = K;
    E->Name = Name;
    return *E;
  }
  Entries.push_back(std::make_unique<Entry>());
  Entries.back()->Kind = K;
  Entries.back()->Name = Name;
  return *Entries.back();
}

Counter &Registry::counter(const std::string &Name, const std::string &Help,
                           int Cells) {
  const size_t N = static_cast<size_t>(std::max(Cells, 1));
  std::lock_guard<std::mutex> Lock(Mu);
  Entry &E = entry(Name, K_Counter, N);
  if (!E.C)
    E.C.reset(new Counter(Name, Help, N));
  return *E.C;
}

FloatCounter &Registry::floatCounter(const std::string &Name,
                                     const std::string &Help, int Cells) {
  const size_t N = static_cast<size_t>(std::max(Cells, 1));
  std::lock_guard<std::mutex> Lock(Mu);
  Entry &E = entry(Name, K_FloatCounter, N);
  if (!E.F)
    E.F.reset(new FloatCounter(Name, Help, N));
  return *E.F;
}

Histogram &Registry::histogram(const std::string &Name,
                               const std::string &Help,
                               std::vector<double> Bounds, int Cells,
                               size_t WindowCap) {
  const size_t N = static_cast<size_t>(std::max(Cells, 1));
  std::lock_guard<std::mutex> Lock(Mu);
  Entry &E = entry(Name, K_Histogram, N);
  if (!E.H)
    E.H.reset(new Histogram(Name, Help, std::move(Bounds), N, WindowCap));
  return *E.H;
}

uint64_t Registry::addCollector(const std::string &Key,
                                std::function<void(MetricSink &)> Fn) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t Token = NextToken++;
  for (Collector &C : Collectors)
    if (C.Key == Key) {
      C.Token = Token;
      C.Fn = std::move(Fn);
      return Token;
    }
  Collectors.push_back({Token, Key, std::move(Fn)});
  return Token;
}

void Registry::removeCollector(uint64_t Token) {
  std::lock_guard<std::mutex> Lock(Mu);
  for (size_t I = 0; I < Collectors.size(); ++I)
    if (Collectors[I].Token == Token) {
      Collectors.erase(Collectors.begin() + static_cast<long>(I));
      return;
    }
}

void Registry::renderPrometheus(std::ostream &OS) const {
  std::lock_guard<std::mutex> Lock(Mu);
  for (const auto &E : Entries) {
    switch (E->Kind) {
    case K_Counter:
      writeHeader(OS, E->Name, E->C->Help, "counter");
      if (E->C->cells() > 1)
        for (int I = 0; I < E->C->cells(); ++I)
          OS << E->Name << "{cell=\"" << I << "\"} "
             << promValue(static_cast<double>(E->C->cellValue(I))) << '\n';
      else
        OS << E->Name << ' '
           << promValue(static_cast<double>(E->C->value())) << '\n';
      break;
    case K_FloatCounter:
      writeHeader(OS, E->Name, E->F->Help, "counter");
      if (E->F->cells() > 1)
        for (int I = 0; I < E->F->cells(); ++I)
          OS << E->Name << "{cell=\"" << I << "\"} "
             << promValue(E->F->cellValue(I)) << '\n';
      else
        OS << E->Name << ' ' << promValue(E->F->value()) << '\n';
      break;
    case K_Histogram: {
      writeHeader(OS, E->Name, E->H->Help, "histogram");
      std::vector<uint64_t> Cum = E->H->cumulativeCounts();
      const std::vector<double> &B = E->H->bounds();
      for (size_t I = 0; I < B.size(); ++I)
        OS << E->Name << "_bucket{le=\"" << promValue(B[I]) << "\"} "
           << Cum[I] << '\n';
      OS << E->Name << "_bucket{le=\"+Inf\"} " << Cum.back() << '\n';
      OS << E->Name << "_sum " << promValue(E->H->sum()) << '\n';
      OS << E->Name << "_count " << E->H->count() << '\n';
      break;
    }
    }
  }
  TextSink Sink(OS);
  for (const Collector &C : Collectors)
    C.Fn(Sink);
}

bool Registry::renderPrometheusFile(const std::string &Path) const {
  if (Path == "-") {
    renderPrometheus(std::cout);
    return static_cast<bool>(std::cout);
  }
  std::ofstream OS(Path);
  if (!OS)
    return false;
  renderPrometheus(OS);
  return static_cast<bool>(OS);
}
