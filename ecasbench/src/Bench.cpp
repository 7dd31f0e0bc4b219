//===-- ecasbench/src/Bench.cpp - The ecas benchmark ----------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One run of one workload:
///
///   ecasbench --workload W --seed N --seconds S --trace 0|1 --tmp-dir D
///             [--trace-out FILE]
///
/// Every run has the same phases; the workload picks the serving traffic
/// and how long each serving window lasts:
///   setup   trace construction, characterization, scheduler construction;
///   probes  chooseOperatingPoint and EasScheduler::execute called
///           directly, which also warms table G for serving;
///   rounds  until the measured seconds are spent: the EAS and joint
///           passes and half the baselines through ExecutionSession::run,
///           then one serving window (a ServiceFrontEnd fed by one
///           producer thread) ending with a snapshot and its recovery.
/// paper-suite serves hot traffic for 0.5 s a round and serve-hot for
/// 0.75 s; serve-churn serves journaled episodes of new tenants for 0.75 s.
/// The last stdout line is one JSON object: correct, attempted, failed and
/// the metrics (end-to-end ones untraced, per-layer ones traced).
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Spans.h"

#include "ecas/core/EasScheduler.h"
#include "ecas/core/ExecutionSession.h"
#include "ecas/core/OperatingPoint.h"
#include "ecas/hw/Presets.h"
#include "ecas/power/Characterizer.h"
#include "ecas/service/Service.h"
#include "ecas/workloads/Registry.h"
#include "ecas/workloads/BarnesHut.h"
#include "ecas/workloads/BlackScholes.h"
#include "ecas/workloads/FaceDetect.h"
#include "ecas/workloads/GraphWorkloads.h"
#include "ecas/workloads/Mandelbrot.h"
#include "ecas/workloads/MatrixMultiply.h"
#include "ecas/workloads/NBody.h"
#include "ecas/workloads/RayTracer.h"
#include "ecas/workloads/Seismic.h"
#include "ecas/workloads/SkipList.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace ecas;
using namespace ecasbench;

namespace {

/// Taken during static initialization, so setup_s counts from the start
/// of the process.
const int64_t ProcessStartNs = nowNs();

//===----------------------------------------------------------------------===//
// Sizing. Changing any of these changes what the metrics mean.
//===----------------------------------------------------------------------===//

/// Graph workloads' construction scale (ecas-cli's default): CC's label
/// propagation at 1.0 alone takes ~25 s.
constexpr double GraphScale = 0.3;
/// The joint search's P-state ladder.
constexpr unsigned NumPStates = 4;
/// ServiceFrontEnd workers; with the producer, four threads of load.
constexpr unsigned ServeWorkers = 3;
/// Desktop workloads whose kernels the serving workloads request.
const char *const ServeWorkloads[] = {"BFS", "CC", "FD", "SP", "BS"};
/// Tenants whose table G is warmed before serving; serve-hot cycles them.
constexpr unsigned HotTenants = 4;
/// Hits per warmed (tenant, kernel) pair in the execute probe.
constexpr unsigned ProbeHitRounds = 8;
/// serve-churn: each round brings this many new tenants, and each tenant
/// submits the kernel list twice, so half the requests are first sight.
/// A repeat trails its first sight by 250 submissions, more than the
/// three 64-deep SLA lanes hold, so it finds the pair learned.
constexpr unsigned ChurnTenantsPerRound = 50;
/// A run is rounds of paper work and one serving window, repeated until
/// the measured seconds are spent. A round's paper work is the EAS and
/// joint passes and the baselines under one objective (~1.5 s in all),
/// so two rounds make a whole pass. The workload sets the window: short for
/// paper-suite, longer for the serving workloads.
constexpr unsigned MinRounds = 2;
constexpr double PaperServeWindowSec = 0.5;
constexpr double ServeWindowSec = 0.75;
/// Producer back-off after an Overloaded answer.
constexpr auto OverloadBackoff = std::chrono::microseconds(20);
/// chooseOperatingPoint inputs per run and timed rounds over them.
constexpr unsigned SearchProblems = 64;
constexpr unsigned SearchRounds = 40;
/// serve-churn episode length: 40 rounds of 50 new tenants, a
/// 10,000-entry table G and 20,000 requests per episode.
constexpr unsigned ChurnRoundsPerEpisode = 40;
/// Recoveries of the hot table after each serving window.
constexpr unsigned HotRecoveriesPerWindow = 4;
/// Batches of the traced service probes: A/B pairs for
/// obs.armed_ns_per_request and passes over 1..3 workers.
constexpr unsigned AbPairs = 12;
constexpr unsigned ScalingPasses = 6;
constexpr unsigned AbBatchRequests = 6000;
/// Whole spans kept for the written trace.
constexpr size_t KeptSpans = 200000;

enum class WorkloadKind { PaperSuite, ServeHot, ServeChurn };

/// One request of a serving round.
struct Slot {
  unsigned Kernel; ///< index into the serving kernel mix
  unsigned Tenant; ///< hot: tenant id; churn: index among the round's
  SlaClass Sla;
};

struct Options {
  WorkloadKind Kind = WorkloadKind::PaperSuite;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string TmpDir;
  std::string TraceOut;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: ecasbench --workload "
               "paper-suite|serve-hot|serve-churn --seed N --seconds S "
               "--trace 0|1 --tmp-dir DIR [--trace-out FILE]\n",
               Why);
  std::exit(2);
}

Options parseOptions(int Argc, char **Argv) {
  Options Opts;
  bool HaveWorkload = false, HaveTmp = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Key).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Key == "--workload") {
      HaveWorkload = true;
      if (Value == "paper-suite")
        Opts.Kind = WorkloadKind::PaperSuite;
      else if (Value == "serve-hot")
        Opts.Kind = WorkloadKind::ServeHot;
      else if (Value == "serve-churn")
        Opts.Kind = WorkloadKind::ServeChurn;
      else
        usage("unknown workload");
    } else if (Key == "--seed") {
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (*End)
        usage("--seed wants an unsigned integer");
    } else if (Key == "--seconds") {
      Opts.Seconds = std::strtod(Value.c_str(), &End);
      if (*End || !(Opts.Seconds > 0.0 && Opts.Seconds <= 600.0))
        usage("--seconds wants a number in (0, 600]");
    } else if (Key == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace wants 0 or 1");
      Opts.Trace = Value == "1";
    } else if (Key == "--tmp-dir") {
      HaveTmp = true;
      Opts.TmpDir = Value;
    } else if (Key == "--trace-out") {
      Opts.TraceOut = Value;
    } else {
      usage(("unknown flag " + Key).c_str());
    }
  }
  if (!HaveWorkload || !HaveTmp)
    usage("--workload and --tmp-dir are required");
  return Opts;
}

//===----------------------------------------------------------------------===//
// Result collection.
//===----------------------------------------------------------------------===//

double seconds(int64_t Ns) { return static_cast<double>(Ns) * 1e-9; }

/// Nearest-rank quantile of \p Values (copied; the caller's order stays).
double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(
      std::ceil(Q * static_cast<double>(Values.size())));
  return Values[std::min(Values.size() - 1, Rank ? Rank - 1 : 0)];
}

double median(const std::vector<double> &Values) {
  return quantile(Values, 0.5);
}

double minimum(const std::vector<double> &Values) {
  return quantile(Values, 0.0);
}

double maximum(const std::vector<double> &Values) {
  return quantile(Values, 1.0);
}

struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;

  void check(const std::string &Why) {
    if (Why.empty())
      return;
    if (Correct) // the first failure is the informative one
      std::fprintf(stderr, "check failed: %s\n", Why.c_str());
    Correct = false;
  }
  void metric(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                Correct ? "true" : "false",
                static_cast<unsigned long long>(Attempted),
                static_cast<unsigned long long>(Failed));
    for (size_t I = 0; I != Metrics.size(); ++I) {
      double V = std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", Metrics[I].Name.c_str(), V,
                  Metrics[I].Unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

//===----------------------------------------------------------------------===//
// Setup.
//===----------------------------------------------------------------------===//

using Maker = Workload (*)(const WorkloadConfig &);

struct MakerEntry {
  Maker Make;
  bool Graph;
};

/// desktopSuite()'s order; the tablet runs the seven non-graph entries
/// that Table 1 marks as building on the 32-bit target.
const MakerEntry DesktopMakers[] = {
    {makeBarnesHutWorkload, false},  {makeBfsWorkload, true},
    {makeCcWorkload, true},          {makeFaceDetectWorkload, false},
    {makeMandelbrotWorkload, false}, {makeSkipListWorkload, false},
    {makeSsspWorkload, true},        {makeBlackScholesWorkload, false},
    {makeMatrixMultiplyWorkload, false}, {makeNBodyWorkload, false},
    {makeRayTracerWorkload, false},  {makeSeismicWorkload, false},
};
const Maker TabletMakers[] = {
    makeMandelbrotWorkload,       makeSkipListWorkload, makeBlackScholesWorkload,
    makeMatrixMultiplyWorkload,   makeNBodyWorkload,    makeRayTracerWorkload,
    makeSeismicWorkload,
};

/// One platform of the paper experiment.
struct Platform {
  const char *Tag;
  PlatformSpec Spec;
  std::vector<Workload> Suite;
  PowerCurveSet Curves;
};

/// A serving scheduler's configuration: the joint search on the ladder,
/// the given observability sinks, and table-G durability through
/// \p HistoryFile (none when empty), journaled when \p Journaled.
EasConfig servingConfig(bool Journaled, const std::string &HistoryFile,
                        obs::MetricsRegistry *Registry,
                        obs::FlightRecorder *Flight) {
  EasConfig Config;
  Config.PStates = true;
  Config.Metrics = Registry;
  Config.Flight = Flight;
  Config.HistoryFile = HistoryFile;
  Config.Journal.Enabled = Journaled;
  return Config;
}

/// Waits until all \p Admitted requests have settled, then shuts \p Front
/// down. A shutdown() that still finds work queued can cancel a request
/// that has no deadline (see FOUND in CHANGES.md), which would make the
/// failure count depend on timing.
ServiceStats settleAndShutdown(ServiceFrontEnd &Front, uint64_t Admitted) {
  while (true) {
    ServiceStats Now = Front.stats();
    if (Now.Completed + Now.Shed + Now.Cancelled >= Admitted)
      break;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return Front.shutdown();
}

/// Host seconds of the paper sessions: per session name and objective,
/// one entry per repetition.
///
/// A pass figure is the sum over sessions of each session's fastest
/// repetition, which is the pass as it runs when nothing else presses on
/// the host's shared cache. On the shared 4-core host, neighbours' cache
/// pressure comes and goes over seconds and slowed identical sessions by
/// up to 2x within one run; whole-pass medians moved by 40% between runs.
class SessionTimes {
public:
  void add(unsigned Column, unsigned Part, const std::string &Name,
           double Sec) {
    std::vector<double> &Times = PerName[Name][Part];
    if (Times.size() <= Column)
      Times.resize(Column + 1, std::numeric_limits<double>::infinity());
    Times[Column] = Sec;
  }
  /// \p Name's fastest repetition, summed over its parts (objectives).
  double best(const std::string &Name) const {
    auto It = PerName.find(Name);
    if (It == PerName.end())
      return 0.0;
    double Sum = 0.0;
    for (const auto &[Part, Times] : It->second)
      Sum += *std::min_element(Times.begin(), Times.end());
    return Sum;
  }
  /// Sum of every session's fastest repetition.
  double bestPass() const {
    double Sum = 0.0;
    for (const auto &Entry : PerName)
      Sum += best(Entry.first);
    return Sum;
  }
  /// Total of repetition \p Column over every session, or over one part
  /// (a diagnostic).
  double column(unsigned Column, unsigned Part = ~0u) const {
    double Sum = 0.0;
    for (const auto &[Name, Parts] : PerName)
      for (const auto &[P, Times] : Parts)
        if ((Part == ~0u || P == Part) && Column < Times.size() &&
            std::isfinite(Times[Column]))
          Sum += Times[Column];
    return Sum;
  }

private:
  std::map<std::string, std::map<unsigned, std::vector<double>>> PerName;
};

//===----------------------------------------------------------------------===//
// The benchmark.
//===----------------------------------------------------------------------===//

class Bench {
public:
  explicit Bench(const Options &Opts)
      : Opts(Opts), Trace(Opts.Trace, Opts.Trace ? KeptSpans : 0),
        Rng(Opts.Seed * 0x9e3779b97f4a7c15ULL + 0x5eed) {}

  int run();

private:
  void setup();
  void paperRound(unsigned Round);
  const std::vector<std::vector<FixedRun>> &fixedAlphaSweep(unsigned PI);
  void searchProbe();
  void executeProbe();
  void hotWindow(double Budget);
  void churnWindow(double Budget);
  std::vector<Slot> makeHotRound();
  std::vector<Slot> makeChurnRound();
  void assignLanes(std::vector<Slot> &Round);

  /// One serving stream: completed requests, host seconds from the first
  /// submit to shutdown()'s return, and the drain inside that window.
  struct ServeRun {
    uint64_t Completed = 0;
    double Seconds = 0.0;
    double DrainSec = 0.0;
  };
  /// Streams rounds of \p Round through a fresh front end over
  /// \p Scheduler, until \p MaxRounds rounds or, when \p Budget is
  /// positive, the first round boundary past it; then checks the
  /// accounting. Nonzero \p ChurnBase gives every round new tenants
  /// from that id on. \p DirectBefore counts the invocations the
  /// scheduler ran before serving.
  ServeRun serveRounds(EasScheduler &Scheduler, obs::MetricsRegistry *Metrics,
                       obs::FlightRecorder *Recorder,
                       const std::vector<Slot> &Round, uint64_t ChurnBase,
                       unsigned MaxRounds, double Budget,
                       uint64_t DirectBefore);
  void noteServeRun(const ServeRun &Run);
  static std::vector<EntryImage> imagesOf(const EasScheduler &Scheduler);
  void recoverAndCheck(const EasConfig &Config,
                       const std::vector<EntryImage> &Before);
  double batchNs(EasScheduler &Scheduler, unsigned Workers,
                 obs::MetricsRegistry *Metrics, obs::FlightRecorder *Recorder);
  void serviceBatchProbes();
  void reportEndToEnd();
  void reportPerLayer();

  SessionReport session(const ExecutionSession &Session, SchemeKind Kind,
                        const RunOptions &Run) {
    ++Out.Attempted;
    SessionReport Report = Session.run(Kind, Run);
    if (Report.Cancelled || !std::isfinite(Report.MetricValue) ||
        !(Report.MetricValue > 0.0))
      ++Out.Failed;
    return Report;
  }

  /// Executes one request directly on the benchmark's own processor and
  /// checks that the devices did exactly its iterations.
  EasScheduler::InvocationOutcome executeChecked(EasScheduler &Scheduler,
                                                 SimProcessor &Proc,
                                                 const KernelInvocation &Inv,
                                                 uint64_t Tenant);

  const Options &Opts;
  Spans Trace;
  std::mt19937_64 Rng;
  Result Out;

  // Setup products.
  std::vector<Platform> Platforms; // desktop, tablet
  PlatformSpec LadderSpec;         // desktop with the P-state ladder
  PowerCurveFamily Family;
  std::vector<KernelInvocation> ServeKernels;
  obs::MetricsRegistry Registry;
  obs::FlightRecorder Flight;
  std::unique_ptr<EasScheduler> Serving;
  std::string HistoryPath;
  int64_t SetupNs = 0;

  // Paper phase.
  SessionTimes EasTimes, BaselineTimes, JointTimes;
  /// Span around one session that also records its host time in
  /// \p Times.
  class TimedSection {
  public:
    TimedSection(Bench &B, SessionTimes &Times, unsigned Column,
                 unsigned Part, const std::string &Name)
        : B(B), Times(Times), Column(Column), Part(Part), Name(Name),
          Start(nowNs()) {}
    ~TimedSection() {
      int64_t End = nowNs();
      B.Trace.add(B.Trace.intern(Name), Start, End);
      Times.add(Column, Part, Name, seconds(End - Start));
    }
    TimedSection(const TimedSection &) = delete;
    TimedSection &operator=(const TimedSection &) = delete;

  private:
    Bench &B;
    SessionTimes &Times;
    unsigned Column, Part;
    std::string Name;
    int64_t Start;
  };
  double EffEdp[2] = {}, EffEnergy[2] = {};
  double JointJoules = 0.0;
  unsigned ProfileReps = 0, Searches = 0;
  /// Per platform, the benchmark's own FixedAlpha sweep, and its host
  /// time and invocations: simulated dispatch cost per invocation.
  std::vector<std::vector<FixedRun>> FixedSweeps[2];
  int64_t FixedAlphaNs = 0;
  uint64_t FixedAlphaInvocations = 0;

  // Search probe.
  unsigned EvalsSingle = 0, EvalsJoint = 0;

  // Execute probe.
  uint64_t DirectCompleted = 0;
  double AppendsPerHit = 0.0;

  // Serving and restarts.
  std::vector<double> SubmitNs, RequestsPerSec, DrainSec;
  uint64_t ServeAdmitted = 0, ServeOverloaded = 0, ServeCompleted = 0;
  uint64_t JournalAppends = 0, JournalFlushes = 0, JournalBytes = 0;
  std::vector<double> SnapshotSec, RecoverySec;
  std::vector<Slot> HotRound, ChurnRound;
  uint64_t ChurnTenantBase = 0;
  unsigned Episodes = 0;
  double ArmedNsPerRequest = 0.0;
  double RpsByWorkers[ServeWorkers] = {};
};

int Bench::run() {
  setup();
  searchProbe();
  executeProbe();
  // Rounds of paper work and one serving window until the measured
  // seconds are spent, so that every repeated figure is sampled across
  // the whole run rather than in one stretch of it.
  double Window = Opts.Kind == WorkloadKind::PaperSuite ? PaperServeWindowSec
                                                        : ServeWindowSec;
  int64_t Start = nowNs();
  for (unsigned Round = 0;
       Round < MinRounds || seconds(nowNs() - Start) < Opts.Seconds; ++Round) {
    paperRound(Round);
    if (Opts.Kind == WorkloadKind::ServeChurn)
      churnWindow(Window);
    else
      hotWindow(Window);
  }
  Serving->shutdown();
  if (Opts.Trace)
    serviceBatchProbes();
  reportEndToEnd();
  if (Opts.Trace) {
    // The traced run's own end-to-end figures, set beside an untraced
    // run's, show what tracing costs.
    for (const Result::Metric &M : Out.Metrics)
      std::fprintf(stderr, "traced run: %s = %.6g %s\n", M.Name.c_str(),
                   M.Value, M.Unit.c_str());
    Out.Metrics.clear();
    reportPerLayer();
    if (!Opts.TraceOut.empty() && !Trace.write(Opts.TraceOut))
      std::fprintf(stderr, "warning: cannot write %s\n",
                   Opts.TraceOut.c_str());
  }
  Out.print();
  return 0;
}

void Bench::setup() {
  WorkloadConfig Config;
  Config.Scale = GraphScale;
  Config.Seed = Rng();
  uint32_t GraphBuild = Trace.intern("workloads.graph_build");
  uint32_t OtherBuild = Trace.intern("workloads.other_build");
  uint32_t Characterize = Trace.intern("power.characterize");
  uint32_t FamilySpan = Trace.intern("power.family");

  Platforms.push_back({"desktop", haswellDesktop(), {}, {}});
  Platforms.push_back({"tablet", bayTrailTablet(), {}, {}});
  for (const MakerEntry &Entry : DesktopMakers) {
    Spans::Scope S(Trace, Entry.Graph ? GraphBuild : OtherBuild);
    Platforms[0].Suite.push_back(Entry.Make(Config));
  }
  WorkloadConfig TabletConfig = Config;
  TabletConfig.TabletInputs = true;
  for (Maker Make : TabletMakers) {
    Spans::Scope S(Trace, OtherBuild);
    Platforms[1].Suite.push_back(Make(TabletConfig));
  }
  for (Platform &P : Platforms) {
    Spans::Scope S(Trace, Characterize);
    P.Curves = Characterizer(P.Spec).characterize();
  }
  LadderSpec = haswellDesktop();
  LadderSpec.synthesizePStates(NumPStates);
  {
    Spans::Scope S(Trace, FamilySpan);
    Family = characterizeFamily(LadderSpec);
  }

  // The serving kernel mix: the median-sized invocation of each
  // multi-invocation desktop workload whose requests stay small enough
  // for the front end, table G and the journal to dominate. Left out:
  // the single-invocation workloads and SM, which simulate 10 ms to 18 s
  // of virtual time per request, and NB, whose 4,096-iteration
  // invocations re-profile on every call.
  for (const char *Abbrev : ServeWorkloads) {
    const Workload *W = findWorkload(Platforms[0].Suite, Abbrev);
    std::vector<KernelInvocation> Sorted = W->Trace;
    std::sort(Sorted.begin(), Sorted.end(),
              [](const KernelInvocation &A, const KernelInvocation &B) {
                return A.Iterations < B.Iterations;
              });
    ServeKernels.push_back(Sorted[Sorted.size() / 2]);
  }

  HotRound = makeHotRound();
  ChurnRound = makeChurnRound();
  ChurnTenantBase = 1000 + (Rng() % 1000) * 1000000;

  bool Journaled = Opts.Kind == WorkloadKind::ServeChurn;
  HistoryPath = Opts.TmpDir + "/table-g.snapshot";
  Serving = std::make_unique<EasScheduler>(
      Family, Metric::edp(),
      servingConfig(Journaled, Journaled ? HistoryPath : "", &Registry,
                    &Flight));
  if (Journaled && !Serving->journaling())
    Out.check("serve-churn scheduler has no live journal: " +
              Serving->journalStatus().message());
  SetupNs = nowNs() - ProcessStartNs;
}

void Bench::paperRound(unsigned Round) {
  const Metric Objectives[2] = {Metric::edp(), Metric::energy()};

  // EAS under both objectives on both platforms.
  std::vector<SessionReport> Eas[2][2]; // [platform][objective]
  unsigned RoundReps = 0, RoundSearches = 0;
  for (unsigned PI = 0; PI != Platforms.size(); ++PI) {
    const Platform &P = Platforms[PI];
    ExecutionSession Session(P.Spec);
    for (unsigned OI = 0; OI != 2; ++OI)
      for (const Workload &W : P.Suite) {
        RunOptions Run;
        Run.Trace = &W.Trace;
        Run.Curves = &P.Curves;
        Run.Objective = Objectives[OI];
        TimedSection S(*this, EasTimes, Round, OI,
                       std::string("session.eas_s.") + P.Tag + "." + W.Abbrev);
        Eas[PI][OI].push_back(session(Session, SchemeKind::Eas, Run));
        RoundReps += Eas[PI][OI].back().ProfileRepetitions;
        RoundSearches += Eas[PI][OI].back().AlphaSearches;
      }
  }

  // Joint (alpha, P-state) EAS under energy on the desktop suite.
  double RoundJoules = 0.0;
  {
    ExecutionSession Session(LadderSpec);
    for (const Workload &W : Platforms[0].Suite) {
      RunOptions Run;
      Run.Trace = &W.Trace;
      Run.CurveFamily = &Family;
      Run.Objective = Metric::energy();
      Run.Eas.PStates = true;
      TimedSection S(*this, JointTimes, Round, 0,
                     "session.joint_s." + W.Abbrev);
      RoundJoules += session(Session, SchemeKind::Eas, Run).Joules;
    }
  }

  // Half of the baselines: Oracle, PERF, CPU-alone and GPU-alone on both
  // platforms under one objective, the objectives taken in turn.
  unsigned OI = Round % 2;
  std::vector<SessionReport> Oracle[2], Perf[2]; // [platform]
  for (unsigned PI = 0; PI != Platforms.size(); ++PI) {
    const Platform &P = Platforms[PI];
    ExecutionSession Session(P.Spec);
    for (const Workload &W : P.Suite) {
      RunOptions Run;
      Run.Trace = &W.Trace;
      Run.Objective = Objectives[OI];
      TimedSection S(*this, BaselineTimes, Round / 2, OI,
                     std::string("session.baseline_s.") + P.Tag + "." +
                         W.Abbrev);
      Oracle[PI].push_back(session(Session, SchemeKind::Oracle, Run));
      Perf[PI].push_back(session(Session, SchemeKind::Perf, Run));
      session(Session, SchemeKind::CpuOnly, Run);
      session(Session, SchemeKind::GpuOnly, Run);
    }
  }
  std::fprintf(stderr, "round %u: eas %.4f s, joint %.4f s, baseline %s %.4f s\n",
               Round + 1, EasTimes.column(Round), JointTimes.column(Round),
               Objectives[OI].name().c_str(),
               BaselineTimes.column(Round / 2, OI));

  if (Round == 0) {
    ProfileReps = RoundReps;
    Searches = RoundSearches;
    JointJoules = RoundJoules;
    if (!(JointJoules > 0.0) || !std::isfinite(JointJoules))
      Out.check("joint pass simulated no energy");
  }
  if (Round >= 2)
    return;
  // Answer quality and its checks, once per objective; later rounds
  // repeat the same deterministic simulation.
  for (unsigned PI = 0; PI != Platforms.size(); ++PI) {
    const Platform &P = Platforms[PI];
    double Sum = 0.0;
    for (size_t WI = 0; WI != P.Suite.size(); ++WI) {
      double Eff = Oracle[PI][WI].MetricValue / Eas[PI][OI][WI].MetricValue;
      Out.check(checkEfficiency(std::string(P.Tag) + "/" +
                                    Objectives[OI].name() + "/" +
                                    P.Suite[WI].Abbrev,
                                Eff));
      Sum += Eff;
    }
    double Mean = Sum / static_cast<double>(P.Suite.size());
    Out.check(checkEfficiency(std::string(P.Tag) + " mean", Mean));
    (OI == 0 ? EffEdp : EffEnergy)[PI] = Mean;
    const std::vector<std::vector<FixedRun>> &Sweeps = fixedAlphaSweep(PI);
    for (size_t WI = 0; WI != P.Suite.size(); ++WI)
      Out.check(checkOracleAndPerf(
          OI == 0 ? Objective::Edp : Objective::Energy, Sweeps[WI],
          Oracle[PI][WI].MetricValue, Perf[PI][WI].Seconds));
  }
}

/// The benchmark's own FixedAlpha sweep of platform \p PI on the Oracle's
/// 0.1 grid, run once per platform: per workload, its eleven runs.
const std::vector<std::vector<FixedRun>> &Bench::fixedAlphaSweep(unsigned PI) {
  std::vector<std::vector<FixedRun>> &Sweeps = FixedSweeps[PI];
  if (!Sweeps.empty())
    return Sweeps;
  const Platform &P = Platforms[PI];
  ExecutionSession Session(P.Spec);
  uint32_t FixedSpan = Trace.intern("sim.fixed_alpha");
  for (const Workload &W : P.Suite) {
    Sweeps.emplace_back();
    for (unsigned Step = 0; Step <= 10; ++Step) {
      RunOptions Run;
      Run.Trace = &W.Trace;
      Run.Alpha = Step / 10.0;
      int64_t T0 = nowNs();
      SessionReport R = session(Session, SchemeKind::FixedAlpha, Run);
      int64_t T1 = nowNs();
      Trace.add(FixedSpan, T0, T1);
      FixedAlphaNs += T1 - T0;
      FixedAlphaInvocations += R.Invocations;
      Sweeps.back().push_back({Run.Alpha, R.Seconds, R.Joules});
    }
  }
  return Sweeps;
}

void Bench::searchProbe() {
  uint32_t Single = Trace.intern("search.single");
  uint32_t Joint = Trace.intern("search.joint");
  std::uniform_real_distribution<double> U(0.0, 1.0);
  struct Problem {
    TimeModel Model;
    double N;
    unsigned Class;
    OperatingPointSearchConfig Config;
    bool Energy;
  };
  std::vector<Problem> Problems;
  for (unsigned I = 0; I != SearchProblems; ++I) {
    OperatingPointSearchConfig Config;
    Config.Step = 0.1;
    Config.MemBoundFraction = 0.6 * U(Rng);
    double Rc = std::pow(10.0, 7.0 + 2.0 * U(Rng));
    double Rg = std::pow(10.0, 7.0 + 2.0 * U(Rng));
    double N = std::pow(10.0, 4.0 + 3.0 * U(Rng));
    Problems.push_back({TimeModel(Rc, Rg), N, I % WorkloadClass::NumClasses,
                        Config, (I / WorkloadClass::NumClasses) % 2 == 1});
  }
  PStateSpec Full = LadderSpec.pstateAt(0);
  auto ViewsFor = [&](unsigned Class, PStateView *Views) {
    WorkloadClass C = WorkloadClass::fromIndex(Class);
    for (unsigned S = 0; S != NumPStates; ++S) {
      PStateSpec State = LadderSpec.pstateAt(S);
      Views[S].Curve = &Family.stateCurves(S).curveFor(C);
      Views[S].CpuFreqScale = State.CpuFreqGHz / Full.CpuFreqGHz;
      Views[S].GpuFreqScale = State.GpuFreqGHz / Full.GpuFreqGHz;
    }
  };
  const Metric Edp = Metric::edp(), Energy = Metric::energy();

  // Answers against the benchmark's own Eqs. 1-4 grid minimum.
  for (const Problem &P : Problems) {
    PStateView Views[kMaxPStates];
    ViewsFor(P.Class, Views);
    RefProblem Ref;
    Ref.CpuRate = P.Model.cpuRate();
    Ref.GpuRate = P.Model.gpuRate();
    Ref.Iterations = P.N;
    Ref.MemBoundFraction = P.Config.MemBoundFraction;
    Ref.Step = P.Config.Step;
    Ref.Obj = P.Energy ? Objective::Energy : Objective::Edp;
    for (unsigned States : {1u, NumPStates}) {
      Ref.States.clear();
      for (unsigned S = 0; S != States; ++S)
        Ref.States.push_back({Views[S].Curve->Poly.coefficients(),
                              Views[S].CpuFreqScale, Views[S].GpuFreqScale});
      Decision D = chooseOperatingPoint(P.Model, Views, States,
                                        P.Energy ? Energy : Edp, P.N,
                                        P.Config);
      Out.check(checkSearchAnswer(Ref, D.Point.Alpha, D.Point.PState,
                                  D.PredictedMetric));
      (States == 1 ? EvalsSingle : EvalsJoint) = D.Evaluations;
    }
  }
  if (!Opts.Trace)
    return;
  // Timed rounds, single-state and joint interleaved per problem.
  volatile double Sink = 0.0;
  for (unsigned R = 0; R != SearchRounds; ++R)
    for (const Problem &P : Problems) {
      PStateView Views[kMaxPStates];
      ViewsFor(P.Class, Views);
      const Metric &M = P.Energy ? Energy : Edp;
      {
        Spans::Scope S(Trace, Single);
        Sink = Sink + chooseOperatingPoint(P.Model, Views, 1, M, P.N, P.Config)
                          .PredictedMetric;
      }
      {
        Spans::Scope S(Trace, Joint);
        Sink = Sink + chooseOperatingPoint(P.Model, Views, NumPStates, M, P.N,
                                           P.Config)
                          .PredictedMetric;
      }
    }
}

EasScheduler::InvocationOutcome
Bench::executeChecked(EasScheduler &Scheduler, SimProcessor &Proc,
                      const KernelInvocation &Inv, uint64_t Tenant) {
  const uint32_t Hit = Trace.intern("execute.hit");
  const uint32_t Profiled = Trace.intern("execute.profiled");
  const uint32_t Other = Trace.intern("execute.other");
  RequestContext Ctx;
  Ctx.TenantId = Tenant;
  double CpuBefore = Proc.cpu().counters().IterationsDone;
  double GpuBefore = Proc.gpu().counters().IterationsDone;
  ++Out.Attempted;
  int64_t T0 = nowNs();
  EasScheduler::InvocationOutcome Outcome =
      Scheduler.execute(Proc, Inv.Kernel, Inv.Iterations, Ctx);
  int64_t T1 = nowNs();
  Trace.add(Outcome.TableHit ? Hit : Outcome.Profiled ? Profiled : Other, T0,
            T1);
  if (Outcome.Rejected || Outcome.Cancelled) {
    ++Out.Failed;
    return Outcome;
  }
  ++DirectCompleted;
  Out.check(checkIterationsConserved(
      CpuBefore, GpuBefore, Proc.cpu().counters().IterationsDone,
      Proc.gpu().counters().IterationsDone, Inv.Iterations));
  return Outcome;
}

void Bench::executeProbe() {
  // Profile every (tenant, kernel) pair the hot traffic uses, then hit
  // each a few times: the warm table G serving starts from.
  SimProcessor Proc(LadderSpec);
  for (unsigned T = 1; T <= HotTenants; ++T)
    for (const KernelInvocation &Inv : ServeKernels)
      executeChecked(*Serving, Proc, Inv, T);
  HistoryJournal::Stats J0 = Serving->journalStats();
  unsigned Hits = 0;
  for (unsigned R = 0; R != ProbeHitRounds; ++R)
    for (unsigned T = 1; T <= HotTenants; ++T)
      for (const KernelInvocation &Inv : ServeKernels)
        Hits += executeChecked(*Serving, Proc, Inv, T).TableHit;
  // Journal records appended per table hit (serve-churn's scheduler is
  // journaled; the others append nothing).
  AppendsPerHit =
      static_cast<double>(Serving->journalStats().Appends - J0.Appends) /
      std::max(Hits, 1u);

  if (!Opts.Trace)
    return;
  uint32_t Lookup = Trace.intern("history.lookup32");
  std::vector<uint64_t> Keys;
  for (unsigned T = 1; T <= HotTenants; ++T)
    for (const KernelInvocation &Inv : ServeKernels)
      Keys.push_back(namespacedKernelKey(T, Inv.Kernel.Id));
  KernelRecord Rec;
  unsigned Found = 0;
  for (unsigned R = 0; R != 2000; ++R) {
    Spans::Scope S(Trace, Lookup);
    for (unsigned I = 0; I != 32; ++I)
      Found += Serving->history().lookup(Keys[(R * 32 + I) % Keys.size()], Rec);
  }
  if (Found != 2000u * 32u)
    Out.check("warmed table G is missing a (tenant, kernel) pair");
}

std::vector<Slot> Bench::makeHotRound() {
  std::vector<Slot> Round;
  unsigned K = static_cast<unsigned>(ServeKernels.size());
  for (unsigned T = 1; T <= HotTenants; ++T)
    for (unsigned I = 0; I != K; ++I)
      Round.push_back({I, T, SlaClass::Sla1});
  std::shuffle(Round.begin(), Round.end(), Rng);
  assignLanes(Round);
  return Round;
}

std::vector<Slot> Bench::makeChurnRound() {
  unsigned K = static_cast<unsigned>(ServeKernels.size());
  std::vector<unsigned> Order(K);
  for (unsigned I = 0; I != K; ++I)
    Order[I] = I;
  std::shuffle(Order.begin(), Order.end(), Rng);
  std::vector<Slot> Round;
  for (unsigned Pass = 0; Pass != 2; ++Pass)
    for (unsigned I : Order)
      for (unsigned T = 0; T != ChurnTenantsPerRound; ++T)
        Round.push_back({I, T, SlaClass::Sla1});
  assignLanes(Round);
  return Round;
}

void Bench::assignLanes(std::vector<Slot> &Round) {
  std::uniform_int_distribution<unsigned> Lane(0, NumSlaClasses - 1);
  for (Slot &S : Round)
    S.Sla = slaFromIndex(Lane(Rng));
}

Bench::ServeRun Bench::serveRounds(EasScheduler &Scheduler,
                                   obs::MetricsRegistry *Metrics,
                                   obs::FlightRecorder *Recorder,
                                   const std::vector<Slot> &Round,
                                   uint64_t ChurnBase, unsigned MaxRounds,
                                   double Budget, uint64_t DirectBefore) {
  const uint32_t SubmitSpan = Trace.intern("service.submit");
  ServiceConfig Config;
  Config.Workers = ServeWorkers;
  Config.Metrics = Metrics;
  Config.Flight = Recorder;
  ServiceFrontEnd Front(Scheduler, LadderSpec, Config);

  uint64_t SubmitCalls = 0, Overloaded = 0, OtherRejects = 0, Admitted = 0;
  int64_t Start = nowNs();
  int64_t BudgetNs = static_cast<int64_t>(Budget * 1e9);
  for (unsigned Rounds = 0; Rounds != MaxRounds; ++Rounds) {
    for (const Slot &S : Round) {
      RequestContext Ctx;
      Ctx.Sla = S.Sla;
      Ctx.TenantId =
          ChurnBase ? ChurnBase + Rounds * ChurnTenantsPerRound + S.Tenant
                    : S.Tenant;
      const KernelInvocation &Inv = ServeKernels[S.Kernel];
      ++Out.Attempted;
      while (true) {
        int64_t T0 = nowNs();
        SubmitResult R = Front.submit(Inv.Kernel, Inv.Iterations, Ctx);
        int64_t T1 = nowNs();
        ++SubmitCalls;
        SubmitNs.push_back(static_cast<double>(T1 - T0));
        Trace.add(SubmitSpan, T0, T1);
        if (R.admitted()) {
          ++Admitted;
          break;
        }
        if (R.Verdict.code() != ErrCode::Overloaded) {
          ++OtherRejects;
          ++Out.Failed;
          break;
        }
        ++Overloaded;
        std::this_thread::sleep_for(OverloadBackoff);
      }
    }
    if (Budget > 0.0 && nowNs() - Start >= BudgetNs)
      break;
  }
  int64_t DrainStart = nowNs();
  ServiceStats Stats = settleAndShutdown(Front, Admitted);
  int64_t End = nowNs();

  ServeAdmitted += Admitted;
  ServeOverloaded += Overloaded;
  ServeCompleted += Stats.Completed;
  Out.Failed += Stats.Shed + Stats.Cancelled;
  Out.check(checkServeAccounting(
      {SubmitCalls, Overloaded + OtherRejects, Admitted},
      {Stats.Submitted, Stats.Rejected, Stats.Completed, Stats.Shed,
       Stats.Cancelled}));
  uint64_t TableInvocations = 0;
  for (const auto &[Key, Rec] : Scheduler.history().entries())
    TableInvocations += Rec.Invocations;
  Out.check(
      checkInvocationSum(TableInvocations, Stats.Completed + DirectBefore));

  ServeRun Run;
  Run.Completed = Stats.Completed;
  Run.Seconds = seconds(End - Start);
  Run.DrainSec = seconds(End - DrainStart);
  return Run;
}

void Bench::noteServeRun(const ServeRun &Run) {
  RequestsPerSec.push_back(static_cast<double>(Run.Completed) / Run.Seconds);
  DrainSec.push_back(Run.DrainSec);
}

void Bench::hotWindow(double Budget) {
  noteServeRun(serveRounds(*Serving, &Registry, &Flight, HotRound, 0,
                           UINT32_MAX, Budget, DirectCompleted + ServeCompleted));
  std::vector<EntryImage> Before = imagesOf(*Serving);
  int64_t T0 = nowNs();
  Status S = Serving->snapshot(HistoryPath);
  SnapshotSec.push_back(seconds(nowNs() - T0));
  if (!S)
    Out.check("snapshot failed: " + S.message());
  // One recovery of this 20-entry table takes ~50 us; a few per window
  // give the minimum enough samples.
  for (unsigned I = 0; I != HotRecoveriesPerWindow; ++I)
    recoverAndCheck(servingConfig(false, HistoryPath, nullptr, nullptr),
                    Before);
}

void Bench::churnWindow(double Budget) {
  int64_t Start = nowNs();
  do {
    unsigned Episode = Episodes++;
    std::string Path =
        Opts.TmpDir + "/episode-" + std::to_string(Episode) + ".snapshot";
    obs::MetricsRegistry EpisodeRegistry;
    obs::FlightRecorder EpisodeFlight;
    EasConfig Config =
        servingConfig(true, Path, &EpisodeRegistry, &EpisodeFlight);
    auto Scheduler =
        std::make_unique<EasScheduler>(Family, Metric::edp(), Config);
    if (!Scheduler->journaling()) {
      Out.check("journal did not open: " +
                Scheduler->journalStatus().message());
      return;
    }
    HistoryJournal::Stats J0 = Scheduler->journalStats();
    noteServeRun(serveRounds(
        *Scheduler, &EpisodeRegistry, &EpisodeFlight, ChurnRound,
        ChurnTenantBase + uint64_t{Episode} * ChurnRoundsPerEpisode *
                              ChurnTenantsPerRound,
        ChurnRoundsPerEpisode, 0.0, 0));
    HistoryJournal::Stats J1 = Scheduler->journalStats();
    JournalAppends += J1.Appends - J0.Appends;
    JournalFlushes += J1.Flushes - J0.Flushes;
    JournalBytes += J1.AppendedBytes - J0.AppendedBytes;

    // Shutdown writes the snapshot beside the journal, the way
    // `serve --history-file` leaves them; a new scheduler recovers both.
    std::vector<EntryImage> Before = imagesOf(*Scheduler);
    int64_t T0 = nowNs();
    Status S = Scheduler->shutdown();
    SnapshotSec.push_back(seconds(nowNs() - T0));
    if (!S)
      Out.check("shutdown snapshot failed: " + S.message());
    std::string Journal = Scheduler->journalPath();
    Scheduler.reset();
    recoverAndCheck(servingConfig(true, Path, nullptr, nullptr), Before);
    std::remove(Path.c_str());
    std::remove(Journal.c_str());
  } while (seconds(nowNs() - Start) < Budget);
}

std::vector<EntryImage> Bench::imagesOf(const EasScheduler &Scheduler) {
  std::vector<EntryImage> Images;
  for (const auto &[Key, Rec] : Scheduler.history().entries())
    Images.push_back({Key, Rec.Alpha.hasValue(),
                      Rec.Alpha.hasValue() ? Rec.Alpha.value() : 0.0,
                      Rec.Class.index(), Rec.PState});
  return Images;
}

void Bench::recoverAndCheck(const EasConfig &Config,
                            const std::vector<EntryImage> &Before) {
  const uint32_t RecoverySpan = Trace.intern("restart.recovery");
  int64_t T0 = nowNs();
  EasScheduler Recovered(Family, Metric::edp(), Config);
  int64_t T1 = nowNs();
  Trace.add(RecoverySpan, T0, T1);
  RecoverySec.push_back(seconds(T1 - T0));
  if (!Recovered.restoreStatus())
    Out.check("recovery failed: " + Recovered.restoreStatus().message());
  Out.check(checkRecovered(Before, imagesOf(Recovered)));
  Recovered.shutdown();
}

/// Host nanoseconds to push one batch of hot requests through a fresh
/// front end over \p Scheduler and drain it.
double Bench::batchNs(EasScheduler &Scheduler, unsigned Workers,
                      obs::MetricsRegistry *Metrics,
                      obs::FlightRecorder *Recorder) {
  ServiceConfig Config;
  Config.Workers = Workers;
  Config.Metrics = Metrics;
  Config.Flight = Recorder;
  ServiceFrontEnd Front(Scheduler, LadderSpec, Config);
  int64_t T0 = nowNs();
  for (unsigned I = 0; I != AbBatchRequests; ++I) {
    const KernelInvocation &Inv = ServeKernels[I % ServeKernels.size()];
    RequestContext Ctx;
    Ctx.TenantId = 1 + (I / ServeKernels.size()) % HotTenants;
    while (!Front.submit(Inv.Kernel, Inv.Iterations, Ctx).admitted())
      std::this_thread::sleep_for(OverloadBackoff);
  }
  settleAndShutdown(Front, AbBatchRequests);
  return static_cast<double>(nowNs() - T0);
}

/// Interleaved batches through fresh front ends over two warmed
/// schedulers, one with the flight recorder and registry armed and one
/// without, then the armed one at 1, 2 and 3 workers.
void Bench::serviceBatchProbes() {
  obs::MetricsRegistry AbRegistry;
  obs::FlightRecorder AbFlight;
  EasScheduler Armed(Family, Metric::edp(),
                     servingConfig(false, "", &AbRegistry, &AbFlight));
  EasScheduler Null(Family, Metric::edp(),
                    servingConfig(false, "", nullptr, nullptr));
  SimProcessor Proc(LadderSpec);
  for (EasScheduler *S : {&Armed, &Null})
    for (unsigned T = 1; T <= HotTenants; ++T)
      for (const KernelInvocation &Inv : ServeKernels)
        S->execute(Proc, Inv.Kernel, Inv.Iterations, RequestContext{T});

  std::vector<double> ArmedNs, NullNs;
  for (unsigned Pair = 0; Pair != AbPairs; ++Pair)
    for (unsigned Side = 0; Side != 2; ++Side) {
      bool UseArmed = (Pair + Side) % 2 == 0;
      (UseArmed ? ArmedNs : NullNs)
          .push_back(UseArmed
                         ? batchNs(Armed, ServeWorkers, &AbRegistry, &AbFlight)
                         : batchNs(Null, ServeWorkers, nullptr, nullptr));
    }
  ArmedNsPerRequest = (median(ArmedNs) - median(NullNs)) / AbBatchRequests;

  std::vector<double> ByWorkers[ServeWorkers];
  for (unsigned Pass = 0; Pass != ScalingPasses; ++Pass)
    for (unsigned W = 1; W <= ServeWorkers; ++W)
      ByWorkers[W - 1].push_back(batchNs(Armed, W, &AbRegistry, &AbFlight));
  for (unsigned W = 1; W <= ServeWorkers; ++W)
    RpsByWorkers[W - 1] = AbBatchRequests / (median(ByWorkers[W - 1]) * 1e-9);
}

void Bench::reportEndToEnd() {
  Out.metric("setup_s", seconds(SetupNs), "s");
  Out.metric("eas_pass_s", EasTimes.bestPass(), "s");
  Out.metric("baseline_pass_s", BaselineTimes.bestPass(), "s");
  Out.metric("joint_pass_s", JointTimes.bestPass(), "s");
  Out.metric("edp_eff_desktop", EffEdp[0], "ratio");
  Out.metric("edp_eff_tablet", EffEdp[1], "ratio");
  Out.metric("energy_eff_desktop", EffEnergy[0], "ratio");
  Out.metric("energy_eff_tablet", EffEnergy[1], "ratio");
  Out.metric("joint_energy_j", JointJoules, "J");
  Out.metric("requests_per_s", maximum(RequestsPerSec), "1/s");
  Out.metric("submit_p50_ns", median(SubmitNs), "ns");
  Out.metric("recovery_s", minimum(RecoverySec), "s");
}

void Bench::reportPerLayer() {
  auto SumSec = [&](const char *Name) {
    double Sum = 0.0;
    for (double Ns : Trace.samples(Trace.intern(Name)))
      Sum += Ns;
    return Sum * 1e-9;
  };
  auto P = [&](const char *Name, double Q) {
    return quantile(Trace.samples(Trace.intern(Name)), Q);
  };
  Out.metric("workloads.graph_build_s", SumSec("workloads.graph_build"), "s");
  Out.metric("workloads.other_build_s", SumSec("workloads.other_build"), "s");
  Out.metric("power.characterize_s", SumSec("power.characterize"), "s");
  Out.metric("power.family_s", SumSec("power.family"), "s");

  // Per-workload session time: the fastest pass's host seconds for that
  // workload (both objectives for EAS and baselines).
  for (const Platform &Pl : Platforms)
    for (const Workload &W : Pl.Suite) {
      std::string Suffix = std::string(Pl.Tag) + "." + W.Abbrev;
      Out.metric("session.eas_s." + Suffix,
                 EasTimes.best("session.eas_s." + Suffix), "s");
      Out.metric("session.baseline_s." + Suffix,
                 BaselineTimes.best("session.baseline_s." + Suffix), "s");
    }
  for (const Workload &W : Platforms[0].Suite)
    Out.metric("session.joint_s." + W.Abbrev,
               JointTimes.best("session.joint_s." + W.Abbrev), "s");
  Out.metric("session.profile_reps", ProfileReps, "count");
  Out.metric("session.searches", Searches, "count");

  Out.metric("search.single_ns", P("search.single", 0.5), "ns");
  Out.metric("search.joint_ns", P("search.joint", 0.5), "ns");
  Out.metric("search.evals_single", EvalsSingle, "count");
  Out.metric("search.evals_joint", EvalsJoint, "count");

  Out.metric("execute.hit_ns.p50", P("execute.hit", 0.5), "ns");
  Out.metric("execute.hit_ns.p99", P("execute.hit", 0.99), "ns");
  Out.metric("execute.profiled_us.p50", P("execute.profiled", 0.5) * 1e-3,
             "us");
  Out.metric("history.lookup_ns", P("history.lookup32", 0.5) / 32.0, "ns");
  Out.metric("sim.dispatch_ns_per_invocation",
             static_cast<double>(FixedAlphaNs) /
                 static_cast<double>(std::max<uint64_t>(FixedAlphaInvocations, 1)),
             "ns");

  Out.metric("service.submit_ns.p50", P("service.submit", 0.5), "ns");
  Out.metric("service.submit_ns.p99", P("service.submit", 0.99), "ns");
  Out.metric("service.overloaded_per_1k",
             1000.0 * static_cast<double>(ServeOverloaded) /
                 static_cast<double>(std::max<uint64_t>(ServeAdmitted, 1)),
             "count");
  Out.metric("service.drain_s", median(DrainSec), "s");
  for (unsigned W = 1; W <= ServeWorkers; ++W)
    Out.metric("service.batch_rps_workers_" + std::to_string(W),
               RpsByWorkers[W - 1], "1/s");
  Out.metric("obs.armed_ns_per_request", ArmedNsPerRequest, "ns");

  double Completed = static_cast<double>(std::max<uint64_t>(ServeCompleted, 1));
  Out.metric("journal.appends_per_request",
             static_cast<double>(JournalAppends) / Completed, "count");
  Out.metric("journal.flushes_per_request",
             static_cast<double>(JournalFlushes) / Completed, "count");
  Out.metric("journal.bytes_per_request",
             static_cast<double>(JournalBytes) / Completed, "B");
  Out.metric("journal.appends_per_hit", AppendsPerHit, "count");
  Out.metric("journal.snapshot_s", median(SnapshotSec), "s");
  Out.metric("journal.recovery_s", minimum(RecoverySec), "s");
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts = parseOptions(Argc, Argv);
  Bench B(Opts);
  return B.run();
}
