//===- AdmissionQueue.cpp - EDF request queue + shard router ------------------===//

#include "serve/AdmissionQueue.h"

#include <algorithm>

using namespace slade;
using namespace slade::serve;

const char *slade::serve::requestStatusName(RequestStatus S) {
  switch (S) {
  case RequestStatus::Ok:
    return "ok";
  case RequestStatus::QueueFull:
    return "queue_full";
  case RequestStatus::DeadlineExpired:
    return "deadline_expired";
  case RequestStatus::Cancelled:
    return "cancelled";
  case RequestStatus::ShuttingDown:
    return "shutting_down";
  case RequestStatus::EncodeFailed:
    return "encode_failed";
  case RequestStatus::VerifyFailed:
    return "verify_failed";
  }
  return "unknown";
}

namespace {

/// Max-heap comparator that makes the std:: heap functions pop the
/// EARLIEST (deadline, seq) first: "A after B" ordering.
bool laterThan(const Admission &A, const Admission &B) {
  if (A.Req.Deadline != B.Req.Deadline)
    return A.Req.Deadline > B.Req.Deadline;
  return A.Seq > B.Seq;
}

} // namespace

AdmissionQueue::AdmissionQueue(size_t Capacity)
    : Cap(Capacity ? Capacity : 1) {}

bool AdmissionQueue::push(Admission &A) {
  std::unique_lock<std::mutex> Lock(Mu);
  NotFull.wait(Lock, [this] { return Closed || Items.size() < Cap; });
  if (Closed)
    return false; // A intact: the caller resolves it as ShuttingDown.
  Items.push_back(std::move(A));
  std::push_heap(Items.begin(), Items.end(), laterThan);
  Lock.unlock();
  NotEmpty.notify_one();
  return true;
}

bool AdmissionQueue::tryPush(Admission &A) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Closed || Items.size() >= Cap)
      return false;
    Items.push_back(std::move(A));
    std::push_heap(Items.begin(), Items.end(), laterThan);
  }
  NotEmpty.notify_one();
  return true;
}

bool AdmissionQueue::pop(Admission *Out) {
  std::unique_lock<std::mutex> Lock(Mu);
  NotEmpty.wait(Lock, [this] { return Closed || !Items.empty(); });
  if (Items.empty())
    return false; // Closed and drained.
  std::pop_heap(Items.begin(), Items.end(), laterThan);
  *Out = std::move(Items.back());
  Items.pop_back();
  Lock.unlock();
  NotFull.notify_one();
  return true;
}

void AdmissionQueue::close() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Closed = true;
  }
  // Wake EVERY blocked producer (each returns false with its Admission
  // intact -> typed rejection) and the consumer (drains, then exits).
  NotFull.notify_all();
  NotEmpty.notify_all();
}

bool AdmissionQueue::closed() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Closed;
}

size_t AdmissionQueue::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Items.size();
}

ShardRouter::ShardRouter(int Shards, int SourcesPerShard)
    : Assigned(static_cast<size_t>(Shards > 0 ? Shards : 1), 0),
      PerShard(SourcesPerShard > 0 ? SourcesPerShard : 1) {}

int ShardRouter::placeBlocking(
    std::chrono::steady_clock::time_point Deadline) {
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    // Draining (stop placing, shed instead) or the request expired
    // while it waited for capacity.
    std::chrono::steady_clock::time_point Until =
        std::min(ShutdownAt, Deadline);
    if (std::chrono::steady_clock::now() >= Until)
      return -1;
    // Least-loaded shard with a free slot; ties go to the lowest id so
    // placement is deterministic for a given load picture.
    int Best = -1;
    for (size_t S = 0; S < Assigned.size(); ++S)
      if (Assigned[S] < PerShard &&
          (Best < 0 || Assigned[S] < Assigned[static_cast<size_t>(Best)]))
        Best = static_cast<int>(S);
    if (Best >= 0) {
      ++Assigned[static_cast<size_t>(Best)];
      return Best;
    }
    // Saturated: wait for a retirement (backfill wakes us), the drain
    // deadline or the request's deadline, whichever comes first.
    if (Until == std::chrono::steady_clock::time_point::max())
      Capacity.wait(Lock);
    else
      Capacity.wait_until(Lock, Until);
  }
}

void ShardRouter::shutdownAt(std::chrono::steady_clock::time_point D) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ShutdownAt = std::min(ShutdownAt, D);
  }
  Capacity.notify_all();
}

void ShardRouter::retire(int Shard) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    --Assigned[static_cast<size_t>(Shard)];
  }
  Capacity.notify_one();
}
