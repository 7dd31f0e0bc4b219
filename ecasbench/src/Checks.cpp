//===-- ecasbench/src/Checks.cpp - Benchmark correctness checks -----------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

using namespace ecasbench;

namespace {

template <typename... Ts> std::string format(const char *Fmt, Ts... Args) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
  return Buf;
}

bool closeRel(double A, double B, double Tol) {
  return std::fabs(A - B) <= Tol * std::max(std::fabs(A), std::fabs(B));
}

/// R' = R * s / ((1 - beta) + beta * s): only the compute-bound share of
/// the work speeds up with the clock.
double scaledRate(double Rate, double Scale, double Beta) {
  return Rate * Scale / ((1.0 - Beta) + Beta * Scale);
}

} // namespace

double ecasbench::objectiveFromTotals(Objective Obj, double Joules,
                                      double Seconds) {
  return Obj == Objective::Energy ? Joules : Joules * Seconds;
}

std::string ecasbench::checkOracleAndPerf(Objective Obj,
                                          const std::vector<FixedRun> &Sweep,
                                          double OracleMetric,
                                          double PerfSeconds) {
  if (Sweep.empty())
    return "empty FixedAlpha sweep";
  constexpr double Tol = 1e-9;
  for (const FixedRun &Run : Sweep) {
    double Fixed = objectiveFromTotals(Obj, Run.Joules, Run.Seconds);
    if (!(OracleMetric <= Fixed * (1.0 + Tol)))
      return format("Oracle metric %.9g worse than FixedAlpha(%.2f) metric "
                    "%.9g",
                    OracleMetric, Run.Alpha, Fixed);
    if (!(PerfSeconds <= Run.Seconds * (1.0 + Tol)))
      return format("PERF time %.9g s worse than FixedAlpha(%.2f)",
                    PerfSeconds, Run.Alpha);
  }
  return {};
}

double ecasbench::referenceTime(double Rc, double Rg, double N, double Alpha) {
  // Eq. 1: time both devices run together.
  double Tcg = std::min((1.0 - Alpha) * N / Rc, Alpha * N / Rg);
  // Eq. 2: the ratio at which both finish together.
  double AlphaPerf = Rg / (Rc + Rg);
  // Eq. 3: iterations left for the device that is still busy.
  double Nrem = std::max(0.0, N - Tcg * (Rc + Rg));
  // Eq. 4: the tail runs on the GPU when it was given more than its
  // finishing-together share, on the CPU otherwise.
  double TailRate = Alpha > AlphaPerf ? Rg : Rc;
  return Tcg + Nrem / TailRate;
}

double ecasbench::referenceValue(const RefProblem &Problem, double Alpha,
                                 unsigned State) {
  const RefState &S = Problem.States[State];
  double Beta = std::clamp(Problem.MemBoundFraction, 0.0, 1.0);
  double Rc = scaledRate(Problem.CpuRate, S.CpuFreqScale, Beta);
  double Rg = scaledRate(Problem.GpuRate, S.GpuFreqScale, Beta);
  double Seconds = referenceTime(Rc, Rg, Problem.Iterations, Alpha);
  // Horner over the published coefficients; power is floored at a small
  // positive value, as PowerCurve documents.
  double Watts = 0.0;
  for (auto It = S.PowerCoeffs.rbegin(); It != S.PowerCoeffs.rend(); ++It)
    Watts = Watts * Alpha + *It;
  Watts = std::max(Watts, 1e-3);
  return Problem.Obj == Objective::Energy ? Watts * Seconds
                                          : Watts * Seconds * Seconds;
}

RefAnswer ecasbench::referenceGridMinimum(const RefProblem &Problem) {
  RefAnswer Best;
  bool Have = false;
  unsigned Cells = static_cast<unsigned>(std::lround(1.0 / Problem.Step));
  for (unsigned State = 0; State != Problem.States.size(); ++State)
    for (unsigned I = 0; I <= Cells; ++I) {
      double Alpha = std::min(1.0, I * Problem.Step);
      double Value = referenceValue(Problem, Alpha, State);
      if (!Have || Value < Best.Value) {
        Have = true;
        Best = {Alpha, State, Value};
      }
    }
  return Best;
}

std::string ecasbench::checkSearchAnswer(const RefProblem &Problem,
                                         double LibAlpha, unsigned LibPState,
                                         double LibValue) {
  if (Problem.States.empty())
    return "search problem has no P-state";
  if (!(LibAlpha >= 0.0 && LibAlpha <= 1.0) ||
      LibPState >= Problem.States.size())
    return format("search returned an invalid point (alpha %.6g, state %u)",
                  LibAlpha, LibPState);
  RefAnswer Ref = referenceGridMinimum(Problem);
  if (!closeRel(LibValue, Ref.Value, SearchTolerance))
    return format("search score %.12g differs from grid minimum %.12g",
                  LibValue, Ref.Value);
  double AtLib = referenceValue(Problem, LibAlpha, LibPState);
  if (!closeRel(AtLib, LibValue, SearchTolerance))
    return format("search reports %.12g but its point scores %.12g",
                  LibValue, AtLib);
  return {};
}

std::string ecasbench::checkIterationsConserved(double CpuBefore,
                                                double GpuBefore,
                                                double CpuAfter,
                                                double GpuAfter,
                                                double Iterations) {
  double Grown = (CpuAfter - CpuBefore) + (GpuAfter - GpuBefore);
  // The devices keep IterationsDone as running double totals, so the
  // difference carries their rounding: allow 1e-9 of the larger total.
  // A lost or repeated chunk is at least one whole iteration.
  double Slack = 1e-9 * std::max({CpuAfter + GpuAfter, Iterations, 1.0});
  if (!(std::fabs(Grown - Iterations) <= Slack))
    return format("IterationsDone grew by %.17g, invocation had %.17g",
                  Grown, Iterations);
  return {};
}

std::string ecasbench::checkEfficiency(const std::string &Name, double Value) {
  if (!std::isfinite(Value) || !(Value > 0.0))
    return format("%s efficiency %.6g is not finite and positive",
                  Name.c_str(), Value);
  return {};
}

std::string ecasbench::checkServeAccounting(const ServeTallies &Mine,
                                            const ServeCounts &Service) {
  auto Mismatch = [](const char *What, uint64_t A, uint64_t B) {
    return format("%s: benchmark %llu, service %llu", What,
                  static_cast<unsigned long long>(A),
                  static_cast<unsigned long long>(B));
  };
  if (Mine.SubmitCalls != Service.Submitted)
    return Mismatch("submit calls vs Submitted", Mine.SubmitCalls,
                    Service.Submitted);
  if (Mine.Overloaded != Service.Rejected)
    return Mismatch("Overloaded answers vs Rejected", Mine.Overloaded,
                    Service.Rejected);
  uint64_t Settled = Service.Completed + Service.Shed + Service.Cancelled;
  if (Mine.Admitted != Settled)
    return Mismatch("admissions vs Completed+Shed+Cancelled", Mine.Admitted,
                    Settled);
  if (Service.Shed != 0 || Service.Cancelled != 0)
    return Mismatch("Shed vs Cancelled (both must be 0)", Service.Shed,
                    Service.Cancelled);
  return {};
}

std::string ecasbench::checkInvocationSum(uint64_t TableInvocations,
                                          uint64_t Expected) {
  if (TableInvocations != Expected)
    return format("table G counts %llu invocations, %llu completed",
                  static_cast<unsigned long long>(TableInvocations),
                  static_cast<unsigned long long>(Expected));
  return {};
}

std::string ecasbench::checkRecovered(const std::vector<EntryImage> &Before,
                                      const std::vector<EntryImage> &After) {
  std::map<uint64_t, EntryImage> Recovered;
  for (const EntryImage &E : After)
    Recovered[E.Key] = E;
  if (Recovered.size() != Before.size())
    return format("recovered %zu entries, table had %zu", Recovered.size(),
                  Before.size());
  for (const EntryImage &E : Before) {
    auto It = Recovered.find(E.Key);
    if (It == Recovered.end())
      return format("entry %llx missing after recovery",
                    static_cast<unsigned long long>(E.Key));
    const EntryImage &R = It->second;
    if (R.HasAlpha != E.HasAlpha || (E.HasAlpha && R.Alpha != E.Alpha))
      return format("recovered alpha %.17g, table had %.17g", R.Alpha,
                    E.Alpha);
    if (R.ClassIndex != E.ClassIndex || R.PState != E.PState)
      return format("recovered class %u / P-state %u, table had %u / %u",
                    R.ClassIndex, R.PState, E.ClassIndex, E.PState);
  }
  return {};
}
