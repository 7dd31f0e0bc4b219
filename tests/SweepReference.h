//===-- tests/SweepReference.h - Serial Oracle/PERF reference ---*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A serial reference for ExecutionSession's Oracle and PERF sweeps, and a
/// field-by-field SessionReport comparison. The session fans its grid
/// points out over host threads; the reference replays the same
/// `Alpha += Step` grid one runFixedAlpha() call at a time and takes the
/// argmin in grid order, so any difference is a fan-out bug.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_TESTS_SWEEPREFERENCE_H
#define ECAS_TESTS_SWEEPREFERENCE_H

#include "ecas/core/ExecutionSession.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace ecas {

/// The alphas a sweep with \p Step visits, accumulated like a serial loop.
inline std::vector<double> serialSweepGrid(double Step) {
  std::vector<double> Grid;
  for (double Alpha = 0.0; Alpha <= 1.0 + 1e-9; Alpha += Step)
    Grid.push_back(std::min(Alpha, 1.0));
  return Grid;
}

/// What \p Kind (Oracle or Perf) must report: the first grid point with
/// the strictly lowest metric (Oracle) or time (Perf).
inline SessionReport serialSweepReference(const ExecutionSession &Session,
                                          SchemeKind Kind,
                                          const InvocationTrace &Trace,
                                          const Metric &Objective,
                                          double Step) {
  SessionReport Best;
  bool HaveBest = false;
  for (double Alpha : serialSweepGrid(Step)) {
    SessionReport Point = Session.runFixedAlpha(Trace, Alpha, Objective);
    bool Better = Kind == SchemeKind::Perf
                      ? Point.Seconds < Best.Seconds
                      : Point.MetricValue < Best.MetricValue;
    if (!HaveBest || Better) {
      Best = Point;
      HaveBest = true;
    }
  }
  Best.Kind = Kind;
  Best.Scheme = schemeKindName(Kind);
  return Best;
}

/// EXPECT_EQs every field of \p Got against \p Want.
inline void expectSameReport(const SessionReport &Got,
                             const SessionReport &Want) {
  EXPECT_EQ(Got.Kind, Want.Kind);
  EXPECT_EQ(Got.Scheme, Want.Scheme);
  EXPECT_EQ(Got.Seconds, Want.Seconds);
  EXPECT_EQ(Got.Joules, Want.Joules);
  EXPECT_EQ(Got.MetricValue, Want.MetricValue);
  EXPECT_EQ(Got.MeanAlpha, Want.MeanAlpha);
  EXPECT_EQ(Got.Invocations, Want.Invocations);
  EXPECT_EQ(Got.ClassifiedAs, Want.ClassifiedAs);
  EXPECT_EQ(Got.WasClassified, Want.WasClassified);
  EXPECT_EQ(Got.Resilience.LaunchRetries, Want.Resilience.LaunchRetries);
  EXPECT_EQ(Got.Resilience.LaunchesAbandoned,
            Want.Resilience.LaunchesAbandoned);
  EXPECT_EQ(Got.Resilience.HangsDetected, Want.Resilience.HangsDetected);
  EXPECT_EQ(Got.Resilience.Quarantines, Want.Resilience.Quarantines);
  EXPECT_EQ(Got.Resilience.QuarantinedInvocations,
            Want.Resilience.QuarantinedInvocations);
  EXPECT_EQ(Got.Resilience.Recoveries, Want.Resilience.Recoveries);
  EXPECT_EQ(Got.Injected.LaunchFailures, Want.Injected.LaunchFailures);
  EXPECT_EQ(Got.Injected.HangQueries, Want.Injected.HangQueries);
  EXPECT_EQ(Got.Injected.ThrottleQueries, Want.Injected.ThrottleQueries);
  EXPECT_EQ(Got.Injected.RaplSamplesDropped,
            Want.Injected.RaplSamplesDropped);
  EXPECT_EQ(Got.Injected.RaplCounterJumps, Want.Injected.RaplCounterJumps);
  EXPECT_EQ(Got.Injected.NoisyCounterReads, Want.Injected.NoisyCounterReads);
  EXPECT_EQ(Got.FaultsEnabled, Want.FaultsEnabled);
  EXPECT_EQ(Got.Cancelled, Want.Cancelled);
  EXPECT_EQ(Got.ProfileRepetitions, Want.ProfileRepetitions);
  EXPECT_EQ(Got.AlphaSearches, Want.AlphaSearches);
  EXPECT_EQ(Got.CpuOnlyFastPaths, Want.CpuOnlyFastPaths);
  EXPECT_EQ(Got.TraceEventCount, Want.TraceEventCount);
  EXPECT_EQ(Got.ModelTimeRelError, Want.ModelTimeRelError);
  EXPECT_EQ(Got.ModelEnergyRelError, Want.ModelEnergyRelError);
  EXPECT_EQ(Got.ModelSamples, Want.ModelSamples);
}

} // namespace ecas

#endif // ECAS_TESTS_SWEEPREFERENCE_H
