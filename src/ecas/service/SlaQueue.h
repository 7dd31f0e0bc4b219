//===-- ecas/service/SlaQueue.h - SLA-partitioned request queue *- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service front end's bounded, SLA-class-partitioned request queue.
/// Each SLA class owns a fixed-capacity lane; producers push into their
/// class's lane (a full lane is backpressure, surfaced by the admission
/// controller as a typed rejection), and consumers pop across lanes
/// under a weighted round-robin credit scheme.
///
/// The credit scheme gives the fairness invariant the chaos-soak test
/// asserts: within one refill cycle of W0+W1+W2 dequeues, SLA0 is served
/// first and up to W0 times (it cannot be starved by lower classes), yet
/// SLA2 still receives its W2 dequeues (SLA0 cannot fully starve it) —
/// the weighted sharing of rrr514/eec_project's SLA tiers, applied to a
/// queue instead of a frequency ladder.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_SERVICE_SLAQUEUE_H
#define ECAS_SERVICE_SLAQUEUE_H

#include "ecas/core/RequestContext.h"
#include "ecas/device/KernelDesc.h"
#include "ecas/service/Bounded.h"
#include "ecas/support/ThreadAnnotations.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <optional>

namespace ecas {

/// One queued kernel invocation, stamped with its submission context.
struct QueuedRequest {
  KernelDesc Kernel;
  double Iterations = 0.0;
  RequestContext Ctx;
  /// Service-clock time at enqueue; the dequeuer's now() minus this is
  /// the queue wait the shedding check judges against the deadline.
  double EnqueueSec = 0.0;
  /// Monotone submission number, unique across classes.
  uint64_t Sequence = 0;
};

/// Dequeue credits granted to each SLA class per refill cycle. Every
/// weight must be at least 1 so no class can be configured out of
/// existence.
struct SlaWeights {
  unsigned Weight[NumSlaClasses] = {6, 3, 1};

  bool valid() const {
    for (unsigned W : Weight)
      if (W == 0)
        return false;
    return true;
  }
};

/// Bounded multi-lane queue with weighted cross-class dequeue.
/// Thread-safe; push never blocks (a full lane fails fast), pop blocks
/// until a request or close() arrives.
class SlaQueue {
public:
  /// Every lane gets \p CapacityPerClass slots. 0 is legal: the queue
  /// is permanently full and every tryPush fails.
  explicit SlaQueue(size_t CapacityPerClass, SlaWeights Weights = {});

  size_t capacityPerClass() const { return CapacityPerClass; }

  /// False when the request's lane is full or the queue is closed; the
  /// caller turns that into an Overloaded rejection.
  bool tryPush(QueuedRequest Request);

  /// Blocks until a request is available or the queue is closed and
  /// drained (nullopt). Concurrent poppers each get distinct requests.
  /// Every popped request stays unfinished until finished() is called
  /// for it; the count rises under the pop's own lock, so a request is
  /// never observable as neither queued nor unfinished.
  std::optional<QueuedRequest> pop();

  /// As pop(), but gives up after \p Sec host seconds: nullopt then
  /// means "idle right now", not "closed" — check closed() to tell the
  /// two apart. Workers use the timeout as their idle tick (journal
  /// group-commit flush).
  std::optional<QueuedRequest> popFor(double Sec);

  /// Non-blocking pop for shutdown drains: a request if one is queued,
  /// nullopt otherwise (closed or momentarily empty).
  std::optional<QueuedRequest> tryPop();

  /// Rejects future pushes and wakes every blocked popper; already
  /// queued requests remain poppable until drained. Idempotent.
  void close();

  /// Marks one popped request as settled.
  void finished();

  /// True when nothing is queued and every popped request is finished.
  /// Once closed, an idle queue stays idle.
  bool idle() const;

  bool closed() const;
  size_t depth(SlaClass Sla) const;
  size_t totalDepth() const;

private:
  /// Index of the lane the credit scheme serves next, or NumSlaClasses
  /// when every lane is empty.
  unsigned pickLane() ECAS_REQUIRES(Mutex);
  /// Pops the head of \p Lane and counts it unfinished.
  QueuedRequest take(unsigned Lane) ECAS_REQUIRES(Mutex);

  const size_t CapacityPerClass;
  const SlaWeights Weights;

  mutable AnnotatedMutex Mutex{"Service.SlaQueue"};
  std::condition_variable Ready;
  std::vector<BoundedRing<QueuedRequest>> Lanes ECAS_GUARDED_BY(Mutex);
  unsigned Credits[NumSlaClasses] ECAS_GUARDED_BY(Mutex) = {};
  bool Closed ECAS_GUARDED_BY(Mutex) = false;
  /// Raised under Mutex by take(), lowered lock-free by finished().
  std::atomic<size_t> Unfinished{0};
};

} // namespace ecas

#endif // ECAS_SERVICE_SLAQUEUE_H
