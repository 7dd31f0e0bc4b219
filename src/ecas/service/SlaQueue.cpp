//===-- ecas/service/SlaQueue.cpp - SLA-partitioned request queue ---------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/service/SlaQueue.h"

#include "ecas/support/Assert.h"

#include <algorithm>
#include <chrono>

using namespace ecas;

SlaQueue::SlaQueue(size_t CapacityPerClassIn, SlaWeights WeightsIn)
    : CapacityPerClass(CapacityPerClassIn), Weights(WeightsIn) {
  ECAS_CHECK(Weights.valid(), "every SLA dequeue weight must be >= 1");
  Lanes.reserve(NumSlaClasses);
  for (unsigned I = 0; I != NumSlaClasses; ++I)
    Lanes.emplace_back(CapacityPerClass);
  for (unsigned I = 0; I != NumSlaClasses; ++I)
    Credits[I] = Weights.Weight[I];
}

bool SlaQueue::tryPush(QueuedRequest Request) {
  {
    LockGuard Lock(Mutex);
    if (Closed)
      return false;
    if (!Lanes[slaIndex(Request.Ctx.Sla)].tryPush(std::move(Request)))
      return false;
  }
  // Notify outside the lock so the woken popper never bounces off a
  // still-held mutex.
  Ready.notify_one();
  return true;
}

unsigned SlaQueue::pickLane() {
  // Highest-priority nonempty lane holding a credit wins; when none
  // holds one, refill every lane's credits from the weights and retry.
  // Scanning strictest-first makes SLA0 unstarvable; the credit cap
  // makes SLA2 progress inevitable while it has queued work.
  for (int Round = 0; Round != 2; ++Round) {
    for (unsigned I = 0; I != NumSlaClasses; ++I)
      if (!Lanes[I].empty() && Credits[I] > 0) {
        --Credits[I];
        return I;
      }
    bool AnyQueued = false;
    for (unsigned I = 0; I != NumSlaClasses; ++I)
      AnyQueued = AnyQueued || !Lanes[I].empty();
    if (!AnyQueued)
      return NumSlaClasses;
    for (unsigned I = 0; I != NumSlaClasses; ++I)
      Credits[I] = Weights.Weight[I];
  }
  ECAS_UNREACHABLE("refilled credits found no nonempty lane");
}

QueuedRequest SlaQueue::take(unsigned Lane) {
  Unfinished.fetch_add(1, std::memory_order_relaxed);
  return Lanes[Lane].pop();
}

std::optional<QueuedRequest> SlaQueue::pop() {
  UniqueLock Lock(Mutex);
  while (true) {
    unsigned Lane = pickLane();
    if (Lane != NumSlaClasses)
      return take(Lane);
    if (Closed)
      return std::nullopt;
    Ready.wait(Lock.native());
  }
}

std::optional<QueuedRequest> SlaQueue::popFor(double Sec) {
  std::chrono::steady_clock::time_point Deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(std::max(Sec, 0.0)));
  UniqueLock Lock(Mutex);
  while (true) {
    unsigned Lane = pickLane();
    if (Lane != NumSlaClasses)
      return take(Lane);
    if (Closed)
      return std::nullopt;
    if (Ready.wait_until(Lock.native(), Deadline) ==
        std::cv_status::timeout) {
      // One more look: a push may have raced the timeout.
      Lane = pickLane();
      if (Lane != NumSlaClasses)
        return take(Lane);
      return std::nullopt;
    }
  }
}

std::optional<QueuedRequest> SlaQueue::tryPop() {
  LockGuard Lock(Mutex);
  unsigned Lane = pickLane();
  if (Lane == NumSlaClasses)
    return std::nullopt;
  return take(Lane);
}

void SlaQueue::close() {
  {
    LockGuard Lock(Mutex);
    Closed = true;
  }
  Ready.notify_all();
}

void SlaQueue::finished() {
  size_t Before = Unfinished.fetch_sub(1, std::memory_order_acq_rel);
  ECAS_CHECK(Before != 0, "finished() without a popped request");
}

bool SlaQueue::idle() const {
  LockGuard Lock(Mutex);
  for (const BoundedRing<QueuedRequest> &Lane : Lanes)
    if (!Lane.empty())
      return false;
  return Unfinished.load(std::memory_order_acquire) == 0;
}

bool SlaQueue::closed() const {
  LockGuard Lock(Mutex);
  return Closed;
}

size_t SlaQueue::depth(SlaClass Sla) const {
  LockGuard Lock(Mutex);
  return Lanes[slaIndex(Sla)].size();
}

size_t SlaQueue::totalDepth() const {
  LockGuard Lock(Mutex);
  size_t Total = 0;
  for (const BoundedRing<QueuedRequest> &Lane : Lanes)
    Total += Lane.size();
  return Total;
}
