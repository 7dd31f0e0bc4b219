//===-- ecasbench/src/Checks.h - Benchmark correctness checks ---*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's correctness checks. Each compares the library's answer
/// with a computation of the benchmark's own or with a property the
/// method guarantees, never with a recorded copy of earlier output. Every
/// check returns an empty string on success and a one-line reason on
/// failure; SelfTest.cpp feeds each one a deliberately wrong input.
///
//===----------------------------------------------------------------------===//

#ifndef ECASBENCH_CHECKS_H
#define ECASBENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

namespace ecasbench {

/// The two objectives the benchmark runs, evaluated by the benchmark
/// itself: energy = P * T, EDP = P * T^2.
enum class Objective { Energy, Edp };

/// Objective value from measured totals (E = Joules, T = Seconds).
double objectiveFromTotals(Objective Obj, double Joules, double Seconds);

/// One FixedAlpha run of the benchmark's own 0.1-grid sweep.
struct FixedRun {
  double Alpha = 0.0;
  double Seconds = 0.0;
  double Joules = 0.0;
};

/// The Oracle's metric is no worse than any FixedAlpha run's metric on
/// its grid, and PERF's time is no worse than any FixedAlpha run's time.
std::string checkOracleAndPerf(Objective Obj, const std::vector<FixedRun> &Sweep,
                               double OracleMetric, double PerfSeconds);

/// Eqs. 1-4 of the paper plus the public P(alpha) polynomial, written
/// out independently of ecas/core. One P-state of the search space.
struct RefState {
  /// P(alpha) coefficients, lowest degree first (Polynomial's order).
  std::vector<double> PowerCoeffs;
  double CpuFreqScale = 1.0;
  double GpuFreqScale = 1.0;
};

struct RefProblem {
  double CpuRate = 0.0; ///< R_C, iterations/s
  double GpuRate = 0.0; ///< R_G, iterations/s
  double Iterations = 0.0;
  double MemBoundFraction = 0.0;
  double Step = 0.1;
  Objective Obj = Objective::Edp;
  std::vector<RefState> States;
};

struct RefAnswer {
  double Alpha = 0.0;
  unsigned PState = 0;
  double Value = 0.0;
};

/// Eq. 4's predicted time for \p N iterations at ratio \p Alpha.
double referenceTime(double CpuRate, double GpuRate, double N, double Alpha);

/// Objective value of one (alpha, state) point of \p Problem.
double referenceValue(const RefProblem &Problem, double Alpha, unsigned State);

/// Grid minimum over every state and every alpha = i * Step.
RefAnswer referenceGridMinimum(const RefProblem &Problem);

/// Relative tolerance of the search check. The library walks the grid by
/// repeated addition and the reference by multiplication, so the two
/// may land a few ulps apart on the same grid point.
inline constexpr double SearchTolerance = 1e-9;

/// The library's chosen point scores within SearchTolerance of the
/// reference grid minimum, and its reported score matches the
/// reference's evaluation of that point.
std::string checkSearchAnswer(const RefProblem &Problem, double LibAlpha,
                              unsigned LibPState, double LibValue);

/// CPU plus GPU IterationsDone grew by exactly the invocation's count, up
/// to the rounding of the devices' running double totals.
std::string checkIterationsConserved(double CpuBefore, double GpuBefore,
                                     double CpuAfter, double GpuAfter,
                                     double Iterations);

/// An efficiency (Oracle metric / EAS metric) is finite and positive.
std::string checkEfficiency(const std::string &Name, double Value);

/// The benchmark's own tallies of one serve phase next to ServiceStats.
struct ServeTallies {
  uint64_t SubmitCalls = 0;
  uint64_t Overloaded = 0;
  uint64_t Admitted = 0;
};

struct ServeCounts {
  uint64_t Submitted = 0;
  uint64_t Rejected = 0;
  uint64_t Completed = 0;
  uint64_t Shed = 0;
  uint64_t Cancelled = 0;
};

/// Submitted == submit calls, Rejected == Overloaded answers,
/// Completed + Shed + Cancelled == admissions, Shed == Cancelled == 0.
std::string checkServeAccounting(const ServeTallies &Mine,
                                 const ServeCounts &Service);

/// Sum of KernelRecord::Invocations over table G equals the completed
/// invocations the benchmark knows of.
std::string checkInvocationSum(uint64_t TableInvocations, uint64_t Expected);

/// One table-G entry reduced to what recovery must preserve.
struct EntryImage {
  uint64_t Key = 0;
  bool HasAlpha = false;
  double Alpha = 0.0;
  unsigned ClassIndex = 0;
  unsigned PState = 0;
};

/// Every entry of \p Before is present in \p After with equal alpha,
/// class and P-state, and \p After holds no other key.
std::string checkRecovered(const std::vector<EntryImage> &Before,
                           const std::vector<EntryImage> &After);

} // namespace ecasbench

#endif // ECASBENCH_CHECKS_H
