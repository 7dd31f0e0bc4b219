//===-- ecas/service/Service.h - Multi-tenant service front end *- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The overload-resilient front door for multi-tenant EAS serving
/// (DESIGN.md §12). A ServiceFrontEnd owns a pool of worker threads —
/// each with its own SimProcessor — draining a bounded SLA-partitioned
/// queue into one shared EasScheduler. Producers call submit(), which
/// either enqueues the request or returns a typed rejection (Overloaded
/// / DeadlineInfeasible) with a retry-after hint; nothing ever blocks a
/// producer and nothing queued is unbounded.
///
/// Request lifecycle and the accounting invariant:
///
///   submitted == rejected + shed + completed + cancelled
///
///   - rejected: bounced by admission (or the closed service); never
///     entered a lane.
///   - shed:     deadline expired *while queued*; dropped at dequeue,
///     strictly before any profiling or dispatch starts.
///   - cancelled: cut short mid-flight — a deadline token fired inside
///     the scheduler (its cooperative points guarantee completed
///     profiling still merges into table G), or the shutdown hard-stop
///     cancelled active work and voided the residual queue.
///   - completed: everything else.
///
/// Deadline budgets cover queue wait plus execution: the queue wait is
/// measured on the service clock (injectable for deterministic tests),
/// and the remaining budget is armed as an absolute deadline on the
/// dequeuing worker's virtual clock.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_SERVICE_SERVICE_H
#define ECAS_SERVICE_SERVICE_H

#include "ecas/core/EasScheduler.h"
#include "ecas/hw/PlatformSpec.h"
#include "ecas/obs/Metrics.h"
#include "ecas/service/Admission.h"
#include "ecas/service/SlaQueue.h"
#include "ecas/support/Error.h"
#include "ecas/support/ThreadAnnotations.h"

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

namespace ecas::service {
class ControlServer;
} // namespace ecas::service

namespace ecas {

/// Tunables of one service front end.
struct ServiceConfig {
  /// Worker threads draining the queue (each owns a SimProcessor).
  unsigned Workers = 4;
  /// Per-SLA-lane queue capacity. 0 is legal: every submission is
  /// rejected Overloaded (the zero-capacity edge case).
  size_t QueueCapPerClass = 64;
  /// Cross-class dequeue credits.
  SlaWeights Weights;
  /// Admission tunables; Workers is overwritten with the field above so
  /// the wait estimate always matches the real drain parallelism.
  AdmissionPolicy Admission;
  /// Host seconds the graceful shutdown drain may take before the
  /// hard-stop cancels in-flight work and voids the residual queue.
  double DrainGraceSec = 5.0;
  /// Idle tick: a worker that finds the queue empty for this long
  /// flushes the scheduler's journal, so a group-commit tail never
  /// outlives a traffic lull by more than this bound. 0 disables the
  /// tick (workers block indefinitely, pre-journal behaviour).
  double IdleFlushSec = 0.25;
  /// Service clock (seconds); queue waits and shed decisions are judged
  /// on it. Defaults to host steady time; deterministic tests inject a
  /// controlled clock.
  std::function<double()> Clock;
  /// Optional metrics registry (borrowed). When set, the front end
  /// pre-registers the eas_service_* taxonomy and every submission /
  /// rejection / shed / completion folds in.
  obs::MetricsRegistry *Metrics = nullptr;
  /// Optional flight recorder (borrowed, DESIGN.md §16). When set, shed
  /// and deadline-miss events land in the crash ring alongside the
  /// scheduler's decision tail. Null no-ops.
  obs::FlightRecorder *Flight = nullptr;

  Status validate() const;
};

/// What submit() decided.
struct SubmitResult {
  /// Success (queued) or Overloaded / DeadlineInfeasible.
  Status Verdict = Status::success();
  /// Backoff hint for rejected submissions; 0 means "do not retry".
  double RetryAfterSec = 0.0;
  /// The request's submission number (assigned even when rejected).
  uint64_t Sequence = 0;

  bool admitted() const { return Verdict.ok(); }
};

/// Request accounting, total and per SLA class.
struct ServiceStats {
  uint64_t Submitted = 0;
  uint64_t Rejected = 0;
  uint64_t Shed = 0;
  uint64_t Completed = 0;
  uint64_t Cancelled = 0;

  uint64_t SubmittedBySla[NumSlaClasses] = {};
  uint64_t RejectedBySla[NumSlaClasses] = {};
  uint64_t ShedBySla[NumSlaClasses] = {};
  uint64_t CompletedBySla[NumSlaClasses] = {};
  uint64_t CancelledBySla[NumSlaClasses] = {};

  /// SLA0 requests that missed their deadline while the service was
  /// responsible for them: shed in queue, cancelled by their deadline
  /// token, or completed past budget. Hard-stop cancellations are
  /// excluded — shutdown is the operator's choice, not a miss.
  uint64_t Sla0DeadlineMisses = 0;

  /// Deadline misses per SLA class, same definition as above applied to
  /// every lane (Sla0DeadlineMisses == DeadlineMissesBySla[0]). The
  /// burn-rate detector's counter and the serve summary both read the
  /// same underlying accounting.
  uint64_t DeadlineMissesBySla[NumSlaClasses] = {};

  /// Longest observed queue wait per class (service-clock seconds).
  double MaxQueueWaitSec[NumSlaClasses] = {};

  /// Bounded per-tenant accounting for statusz and table-G attribution.
  /// A fixed array (no allocation under StatsMutex); tenants past the
  /// cap fold into TenantsUntracked.
  struct TenantBucket {
    uint64_t TenantId = 0;
    uint64_t Submitted = 0;
    uint64_t Completed = 0;
    uint64_t Shed = 0;
    uint64_t Cancelled = 0;
  };
  static constexpr size_t MaxTrackedTenants = 32;
  TenantBucket Tenants[MaxTrackedTenants] = {};
  size_t TenantsTracked = 0;
  uint64_t TenantsUntracked = 0;

  /// The conservation law every soak asserts. Exact at quiescence (every
  /// submit() call returned, shutdown() complete); a snapshot taken while
  /// submissions are still in flight can transiently show Submitted
  /// ahead of the terminal counts (never behind — a request's terminal
  /// state is always accounted after its submission was).
  bool consistent() const {
    return Submitted == Rejected + Shed + Completed + Cancelled;
  }
  double shedFraction() const {
    return Submitted ? static_cast<double>(Shed) /
                           static_cast<double>(Submitted)
                     : 0.0;
  }
};

/// Maps a finished serve run onto the CLI's exit codes: 0 (ExitOk) for a
/// clean run, 1 (ExitRuntime) when any SLA0 deadline was missed or more
/// than \p ShedThresholdFraction of submissions were shed — so an
/// overload-induced rejection storm no longer exits like a clean run.
int serveExitCode(const ServiceStats &Stats, double ShedThresholdFraction);

/// Parse-friendly table-G summary: one aggregate line plus (bounded)
/// per-entry lines. Shared by statusz, the serve summary, and the
/// incident writer's tableg.txt.
std::string renderTableGDigest(const EasScheduler &Scheduler);

/// The multi-tenant service front end. Construction starts the workers;
/// shutdown() (or the destructor) closes the queue, drains gracefully,
/// and hard-stops stragglers after the grace period.
class ServiceFrontEnd {
public:
  /// \p Scheduler and \p Config.Metrics are borrowed and must outlive
  /// the front end. \p Spec is copied (each worker builds its own
  /// SimProcessor from it), so a temporary is fine.
  ServiceFrontEnd(EasScheduler &Scheduler, const PlatformSpec &Spec,
                  ServiceConfig Config = {});
  ~ServiceFrontEnd();

  ServiceFrontEnd(const ServiceFrontEnd &) = delete;
  ServiceFrontEnd &operator=(const ServiceFrontEnd &) = delete;

  /// Admission-checks and enqueues one request. Never blocks; a full
  /// lane, an infeasible deadline, or a closed service returns the
  /// matching typed Status instead.
  SubmitResult submit(const KernelDesc &Kernel, double Iterations,
                      const RequestContext &Ctx);

  /// Graceful shutdown: stop admitting, let the workers drain the queue
  /// for up to DrainGraceSec host seconds, then cancel in-flight work
  /// and void whatever is still queued (counted cancelled). Idempotent;
  /// returns the final stats.
  ServiceStats shutdown();

  /// Point-in-time accounting snapshot (consistent totals).
  ServiceStats stats() const;

  size_t queueDepth(SlaClass Sla) const { return Queue.depth(Sla); }
  const AdmissionController &admission() const { return Admission; }
  bool accepting() const {
    return Accepting.load(std::memory_order_acquire);
  }

  /// Starts the UNIX-domain control endpoint at \p SocketPath serving
  /// `statusz`, `metricz`, and `dump` (DESIGN.md §16). Call once after
  /// construction; shutdown() stops it.
  Status startControl(const std::string &SocketPath);

  /// Responder for the control endpoint's `dump` command (typically a
  /// forced incident-bundle write). Set before startControl().
  void setDumpHook(std::function<std::string()> Hook);

  /// Human-oriented status text: uptime, admission state, per-SLA lane
  /// accounting (depth / submitted / rejected / shed / completed /
  /// cancelled / deadline_miss / max_wait), per-tenant buckets, a
  /// table-G summary, P-state residency, and GPU health.
  std::string renderStatusz() const;

private:
  struct WorkerSlot;

  void workerLoop(unsigned WorkerIndex);
  void accountShed(const QueuedRequest &Request, double WaitSec);
  void accountCancelled(const QueuedRequest &Request, bool DeadlineMiss);
  void accountCompleted(const QueuedRequest &Request, double WaitSec,
                        double ServiceSec);
  void registerInstruments();
  obs::Counter *shedCounter(const QueuedRequest &Request);
  void updateDepthGauges();
  void accountDeadlineMiss(SlaClass Sla) ECAS_REQUIRES(StatsMutex);
  void bumpTenant(uint64_t TenantId,
                  uint64_t ServiceStats::TenantBucket::*Field)
      ECAS_REQUIRES(StatsMutex);

  EasScheduler &Scheduler;
  const PlatformSpec Spec;
  ServiceConfig Config;
  SlaQueue Queue;
  AdmissionController Admission;

  std::atomic<bool> Accepting{true};
  std::atomic<uint64_t> NextSequence{1};

  /// Per-worker active cancellation token, so the hard-stop can fire
  /// every in-flight request's token. HardStop lives under the same
  /// mutex: a worker that registers its token after the hard-stop began
  /// sees the flag and cancels itself, closing the race.
  mutable AnnotatedMutex TokenMutex{"Service.ActiveTokens"};
  std::vector<std::optional<CancellationToken>> ActiveTokens
      ECAS_GUARDED_BY(TokenMutex);
  bool HardStop ECAS_GUARDED_BY(TokenMutex) = false;

  mutable AnnotatedMutex StatsMutex{"Service.Stats"};
  ServiceStats Counts ECAS_GUARDED_BY(StatsMutex);

  /// Shutdown idempotency latch.
  std::atomic<bool> ShutdownStarted{false};
  mutable AnnotatedMutex ShutdownMutex{"Service.Shutdown"};
  std::condition_variable ShutdownDone;
  bool ShutdownComplete ECAS_GUARDED_BY(ShutdownMutex) = false;

  /// Instruments cached at construction (null without a registry).
  struct MetricInstruments {
    obs::Counter *Submitted[NumSlaClasses] = {};
    obs::Counter *Admitted = nullptr;
    obs::Counter *RejectedOverloaded = nullptr;
    obs::Counter *RejectedInfeasible = nullptr;
    obs::Counter *Completed[NumSlaClasses] = {};
    obs::Counter *Cancelled[NumSlaClasses] = {};
    obs::Counter *DeadlineMiss[NumSlaClasses] = {};
    obs::Gauge *QueueDepth[NumSlaClasses] = {};
    obs::Histogram *QueueWait[NumSlaClasses] = {};
    obs::Histogram *RetryAfter = nullptr;
  };
  MetricInstruments Ins;

  /// Service-clock time at construction, for statusz's uptime line.
  double StartSec = 0.0;

  /// Control endpoint (null until startControl()).
  std::unique_ptr<service::ControlServer> Control;
  std::function<std::string()> DumpHook;

  std::vector<std::thread> WorkerThreads;
};

} // namespace ecas

#endif // ECAS_SERVICE_SERVICE_H
