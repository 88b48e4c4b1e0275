//===- Trace.cpp - request-lifecycle trace recorder (Chrome trace_event) ------===//

#include "obs/Trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

using namespace slade;
using namespace slade::obs;

const char *slade::obs::spanKindName(SpanKind K) {
  switch (K) {
  case SpanKind::Submit:
    return "submit";
  case SpanKind::QueueWait:
    return "queue_wait";
  case SpanKind::Dispatch:
    return "dispatch";
  case SpanKind::Encode:
    return "encode";
  case SpanKind::AdmissionWait:
    return "admission_wait";
  case SpanKind::Decode:
    return "decode";
  case SpanKind::Verify:
    return "verify";
  case SpanKind::VerifyCand:
    return "verify_candidate";
  case SpanKind::VerifyAttempt:
    return "verify_attempt";
  case SpanKind::Resolve:
    return "resolve";
  case SpanKind::Tick:
    return "tick";
  case SpanKind::OracleMask:
    return "oracle_mask";
  case SpanKind::ParallelTile:
    return "parallel_tile";
  case SpanKind::KindCount:
    break;
  }
  return "unknown";
}

bool slade::obs::isShardScope(SpanKind K) {
  return K == SpanKind::Tick || K == SpanKind::OracleMask ||
         K == SpanKind::ParallelTile;
}

namespace {

/// splitmix64 finalizer: the sampling hash. Bijective, so distinct Seqs
/// never collide, and seeded so the sampled subset is reproducible.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

uint64_t steadyNowTicks() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<uint64_t> NextRecorderId{1};

} // namespace

/// One thread's ring. The owning thread is the only writer; Written is
/// stored with release so a quiescent reader sees complete slots.
struct TraceRecorder::Buffer {
  explicit Buffer(size_t Cap) : Events(Cap) {}
  std::vector<SpanEvent> Events;
  std::atomic<uint64_t> Written{0}; ///< Total ever recorded.
  std::string Name;
};

TraceRecorder::TraceRecorder(size_t CapacityPerThread)
    : Capacity(std::max<size_t>(CapacityPerThread, 2)),
      Epoch(steadyNowTicks()),
      RecorderId(NextRecorderId.fetch_add(1, std::memory_order_relaxed)) {}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder &TraceRecorder::global() {
  static TraceRecorder G;
  return G;
}

void TraceRecorder::enable(uint32_t SampleEvery, uint64_t Seed) {
  SampleN.store(std::max<uint32_t>(SampleEvery, 1),
                std::memory_order_relaxed);
  SampleSeed.store(Seed, std::memory_order_relaxed);
  Enabled.store(true, std::memory_order_release);
}

void TraceRecorder::disable() {
  Enabled.store(false, std::memory_order_release);
}

bool TraceRecorder::sampled(uint64_t Seq) const {
  if (!enabled())
    return false;
  uint32_t N = SampleN.load(std::memory_order_relaxed);
  if (N <= 1)
    return true;
  return mix64(Seq ^ SampleSeed.load(std::memory_order_relaxed)) % N == 0;
}

uint64_t TraceRecorder::nowNs() const { return steadyNowTicks() - Epoch; }

TraceRecorder::Buffer &TraceRecorder::localBuffer() {
  // Per-thread map of recorder -> ring: the hot path (engine threads ->
  // the one live recorder) is a scan of a tiny thread_local vector, no
  // lock after a thread's first event per recorder. Keyed by the unique
  // RecorderId, never the address, so a recorder reallocated at a dead
  // one's address cannot alias a stale entry.
  static thread_local std::vector<std::pair<uint64_t, Buffer *>> Tls;
  for (const auto &P : Tls)
    if (P.first == RecorderId)
      return *P.second;
  std::lock_guard<std::mutex> Lock(BuffersMu);
  Buffers.push_back(std::make_unique<Buffer>(Capacity));
  Buffer *B = Buffers.back().get();
  Tls.emplace_back(RecorderId, B);
  return *B;
}

void TraceRecorder::record(SpanKind K, uint64_t Id, uint64_t StartNs,
                           uint64_t EndNs, uint64_t Arg0, uint64_t Arg1) {
  Buffer &B = localBuffer();
  uint64_t W = B.Written.load(std::memory_order_relaxed);
  SpanEvent &E = B.Events[W % Capacity];
  E.StartNs = StartNs;
  E.DurNs = EndNs > StartNs ? EndNs - StartNs : 0;
  E.Id = Id;
  E.Arg0 = Arg0;
  E.Arg1 = Arg1;
  E.Kind = K;
  B.Written.store(W + 1, std::memory_order_release);
}

void TraceRecorder::instant(SpanKind K, uint64_t Id, uint64_t Arg0,
                            uint64_t Arg1) {
  uint64_t Now = nowNs();
  record(K, Id, Now, Now, Arg0, Arg1);
}

void TraceRecorder::nameThread(const std::string &Name) {
  Buffer &B = localBuffer();
  std::lock_guard<std::mutex> Lock(BuffersMu);
  B.Name = Name;
}

size_t TraceRecorder::eventCount() const {
  std::lock_guard<std::mutex> Lock(BuffersMu);
  size_t N = 0;
  for (const auto &B : Buffers)
    N += static_cast<size_t>(std::min<uint64_t>(
        B->Written.load(std::memory_order_acquire), Capacity));
  return N;
}

uint64_t TraceRecorder::droppedCount() const {
  std::lock_guard<std::mutex> Lock(BuffersMu);
  uint64_t N = 0;
  for (const auto &B : Buffers) {
    uint64_t W = B->Written.load(std::memory_order_acquire);
    if (W > Capacity)
      N += W - Capacity;
  }
  return N;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> Lock(BuffersMu);
  for (auto &B : Buffers)
    B->Written.store(0, std::memory_order_release);
}

void TraceRecorder::forEachEvent(
    const std::function<void(const SpanEvent &, uint32_t)> &Fn) const {
  std::lock_guard<std::mutex> Lock(BuffersMu);
  for (size_t BI = 0; BI < Buffers.size(); ++BI) {
    const Buffer &B = *Buffers[BI];
    uint64_t W = B.Written.load(std::memory_order_acquire);
    uint64_t Retained = std::min<uint64_t>(W, Capacity);
    // Oldest retained first: with wraparound the slot after the write
    // head is the oldest survivor.
    uint64_t First = W - Retained;
    for (uint64_t I = 0; I < Retained; ++I)
      Fn(B.Events[(First + I) % Capacity], static_cast<uint32_t>(BI));
  }
}

namespace {

double usOf(uint64_t Ns) { return static_cast<double>(Ns) / 1000.0; }

void writeTs(std::ostream &OS, double Us) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3f", Us);
  OS << Buf;
}

} // namespace

void TraceRecorder::writeChromeTrace(std::ostream &OS) const {
  OS << "{\"traceEvents\":[";
  bool FirstEvent = true;
  auto Sep = [&] {
    if (!FirstEvent)
      OS << ",";
    FirstEvent = false;
    OS << "\n";
  };
  {
    std::lock_guard<std::mutex> Lock(BuffersMu);
    for (size_t BI = 0; BI < Buffers.size(); ++BI) {
      Sep();
      std::string Name = Buffers[BI]->Name.empty()
                             ? "thread-" + std::to_string(BI)
                             : Buffers[BI]->Name;
      OS << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << BI
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << Name
         << "\"}}";
    }
  }
  forEachEvent([&](const SpanEvent &E, uint32_t Tid) {
    const char *Name = spanKindName(E.Kind);
    if (isShardScope(E.Kind)) {
      // Shard-scope spans render as complete events on the recording
      // thread's track (ticks on one shard thread never overlap).
      Sep();
      OS << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << Tid << ",\"name\":\""
         << Name << "\",\"cat\":\"shard\",\"ts\":";
      writeTs(OS, usOf(E.StartNs));
      OS << ",\"dur\":";
      writeTs(OS, usOf(E.DurNs));
      OS << ",\"args\":{\"shard\":" << E.Id << ",\"arg0\":" << E.Arg0
         << ",\"arg1\":" << E.Arg1 << "}}";
      return;
    }
    if (E.DurNs == 0 && (E.Kind == SpanKind::Submit ||
                         E.Kind == SpanKind::Resolve)) {
      // Lifecycle endpoints: async instants on the request's lane.
      Sep();
      OS << "{\"ph\":\"n\",\"pid\":1,\"tid\":" << Tid
         << ",\"id\":" << E.Id << ",\"cat\":\"request\",\"name\":\""
         << Name << "\",\"ts\":";
      writeTs(OS, usOf(E.StartNs));
      OS << ",\"args\":{\"req\":" << E.Id << ",\"arg0\":" << E.Arg0
         << ",\"arg1\":" << E.Arg1 << "}}";
      return;
    }
    // Request-scope spans: async begin/end pairs keyed by request id,
    // one swim lane per request regardless of which threads served it.
    Sep();
    OS << "{\"ph\":\"b\",\"pid\":1,\"tid\":" << Tid << ",\"id\":" << E.Id
       << ",\"cat\":\"request\",\"name\":\"" << Name << "\",\"ts\":";
    writeTs(OS, usOf(E.StartNs));
    OS << ",\"args\":{\"req\":" << E.Id << ",\"arg0\":" << E.Arg0
       << ",\"arg1\":" << E.Arg1 << "}}";
    Sep();
    OS << "{\"ph\":\"e\",\"pid\":1,\"tid\":" << Tid << ",\"id\":" << E.Id
       << ",\"cat\":\"request\",\"name\":\"" << Name << "\",\"ts\":";
    writeTs(OS, usOf(E.StartNs + E.DurNs));
    OS << "}";
  });
  OS << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":"
     << droppedCount() << "}}\n";
}

bool TraceRecorder::writeChromeTraceFile(const std::string &Path) const {
  if (Path == "-") {
    writeChromeTrace(std::cout);
    return static_cast<bool>(std::cout);
  }
  std::ofstream OS(Path);
  if (!OS)
    return false;
  writeChromeTrace(OS);
  return static_cast<bool>(OS);
}
