//===-- ecasbench/src/SelfTest.cpp - Tests of the benchmark's checks ------===//
//
// Part of the ecas project, under the MIT License.
//
// Each check must pass on a right input and fail on a deliberately wrong
// one; a check that cannot fail proves nothing. Run through
// `python3 ecasbench/run.py --self-test`; exits 1 on the first surprise.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include <cstdio>
#include <string>

using namespace ecasbench;

namespace {

int Failures = 0;

void expect(const char *Case, const std::string &Verdict, bool ShouldPass) {
  bool Passed = Verdict.empty();
  bool Ok = Passed == ShouldPass;
  std::printf("%s %-58s %s\n", Ok ? "ok  " : "FAIL", Case,
              Passed ? "(check passed)" : Verdict.c_str());
  Failures += !Ok;
}

/// A two-state problem whose grid minimum is worked out by hand below.
RefProblem handProblem() {
  RefProblem P;
  P.CpuRate = 1e6;
  P.GpuRate = 3e6;
  P.Iterations = 1e6;
  P.Step = 0.25;
  P.Obj = Objective::Energy;
  // P(alpha) = 10 + 20 * alpha watts at full speed; 8 W flat at half
  // speed with linear scaling (beta = 0).
  P.States.push_back({{10.0, 20.0}, 1.0, 1.0});
  P.States.push_back({{8.0}, 0.5, 0.5});
  return P;
}

} // namespace

int main() {
  // Eq. 4 at the finishing-together ratio 0.75: both devices end at
  // N / (R_C + R_G) = 0.25 s; at the endpoints one device does it all.
  expect("referenceTime: alpha_perf splits evenly",
         referenceTime(1e6, 3e6, 1e6, 0.75) == 0.25
             ? std::string()
             : "time at alpha_perf is not N/(Rc+Rg)",
         true);
  expect("referenceTime: alpha 0 and 1 are single-device",
         referenceTime(1e6, 3e6, 1e6, 0.0) == 1.0 &&
                 referenceTime(1e6, 3e6, 1e6, 1.0) == 1.0 / 3.0
             ? std::string()
             : "endpoint times wrong",
         true);

  // Grid of the hand problem, energy = P * T:
  //   state 0: alpha 0.75 -> 25 W * 0.25 s = 6.25 J (the minimum);
  //            alpha 1.0 -> 30 W * 0.333 s = 10 J.
  //   state 1: rates halve, alpha 0.75 -> 8 W * 0.5 s = 4 J.
  RefProblem P = handProblem();
  RefAnswer Min = referenceGridMinimum(P);
  expect("referenceGridMinimum: picks the half-speed state",
         Min.PState == 1 && Min.Alpha == 0.75 && Min.Value == 4.0
             ? std::string()
             : "grid minimum is not (0.75, state 1, 4 J)",
         true);
  expect("checkSearchAnswer: the true minimum",
         checkSearchAnswer(P, 0.75, 1, 4.0), true);
  expect("checkSearchAnswer: a worse grid point",
         checkSearchAnswer(P, 0.75, 0, 6.25), false);
  expect("checkSearchAnswer: right score, wrong point",
         checkSearchAnswer(P, 0.5, 1, 4.0), false);
  expect("checkSearchAnswer: score off by 1e-6",
         checkSearchAnswer(P, 0.75, 1, 4.0 * (1 + 1e-6)), false);
  expect("checkSearchAnswer: alpha outside [0, 1]",
         checkSearchAnswer(P, 1.5, 1, 4.0), false);

  std::vector<FixedRun> Sweep = {{0.0, 2.0, 10.0}, {0.5, 1.0, 12.0},
                                 {1.0, 1.5, 9.0}};
  // Energy minimum 9 J (alpha 1), EDP minimum 12 J*s (alpha 0.5),
  // fastest 1.0 s.
  expect("checkOracleAndPerf: Oracle at the energy minimum",
         checkOracleAndPerf(Objective::Energy, Sweep, 9.0, 1.0), true);
  expect("checkOracleAndPerf: Oracle at the EDP minimum",
         checkOracleAndPerf(Objective::Edp, Sweep, 12.0, 1.0), true);
  expect("checkOracleAndPerf: Oracle worse than a fixed ratio",
         checkOracleAndPerf(Objective::Energy, Sweep, 9.5, 1.0), false);
  expect("checkOracleAndPerf: PERF slower than a fixed ratio",
         checkOracleAndPerf(Objective::Edp, Sweep, 12.0, 1.2), false);
  expect("checkOracleAndPerf: no sweep",
         checkOracleAndPerf(Objective::Edp, {}, 12.0, 1.0), false);

  expect("checkIterationsConserved: split 300 + 700",
         checkIterationsConserved(100.0, 50.0, 400.0, 750.0, 1000.0), true);
  expect("checkIterationsConserved: one chunk of 64 lost",
         checkIterationsConserved(100.0, 50.0, 400.0, 686.0, 1000.0), false);
  expect("checkIterationsConserved: a chunk run twice",
         checkIterationsConserved(0.0, 0.0, 1064.0, 0.0, 1000.0), false);

  expect("checkEfficiency: 0.95", checkEfficiency("x", 0.95), true);
  expect("checkEfficiency: 0", checkEfficiency("x", 0.0), false);
  expect("checkEfficiency: NaN", checkEfficiency("x", 0.0 / 0.0), false);
  expect("checkEfficiency: infinity", checkEfficiency("x", 1.0 / 0.0), false);

  ServeTallies Mine{120, 20, 100};
  expect("checkServeAccounting: consistent",
         checkServeAccounting(Mine, {120, 20, 100, 0, 0}), true);
  expect("checkServeAccounting: a submit the service missed",
         checkServeAccounting(Mine, {119, 20, 100, 0, 0}), false);
  expect("checkServeAccounting: an unexplained rejection",
         checkServeAccounting(Mine, {120, 21, 99, 0, 0}), false);
  expect("checkServeAccounting: an admitted request lost",
         checkServeAccounting(Mine, {120, 20, 99, 0, 0}), false);
  expect("checkServeAccounting: a shed request",
         checkServeAccounting(Mine, {120, 20, 99, 1, 0}), false);
  expect("checkServeAccounting: a cancelled request",
         checkServeAccounting(Mine, {120, 20, 99, 0, 1}), false);

  expect("checkInvocationSum: equal", checkInvocationSum(500, 500), true);
  expect("checkInvocationSum: a lost update",
         checkInvocationSum(499, 500), false);

  std::vector<EntryImage> Table = {{1, true, 0.4, 3, 0},
                                   {2, false, 0.0, 0, 2}};
  std::vector<EntryImage> Reordered = {Table[1], Table[0]};
  expect("checkRecovered: same entries, other order",
         checkRecovered(Table, Reordered), true);
  std::vector<EntryImage> Wrong = Table;
  Wrong[0].Alpha = 0.4000000001;
  expect("checkRecovered: alpha drifted", checkRecovered(Table, Wrong),
         false);
  Wrong = Table;
  Wrong[1].PState = 1;
  expect("checkRecovered: P-state changed", checkRecovered(Table, Wrong),
         false);
  Wrong = Table;
  Wrong[0].ClassIndex = 2;
  expect("checkRecovered: class changed", checkRecovered(Table, Wrong),
         false);
  expect("checkRecovered: an entry lost", checkRecovered(Table, {Table[0]}),
         false);
  Wrong = Table;
  Wrong.push_back({3, true, 0.1, 0, 0});
  expect("checkRecovered: an entry invented", checkRecovered(Table, Wrong),
         false);

  std::printf("%s: %d unexpected verdicts\n", Failures ? "FAILED" : "passed",
              Failures);
  return Failures ? 1 : 0;
}
