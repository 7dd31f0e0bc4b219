//===-- ecas/workloads/Registry.cpp - Benchmark suites --------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

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
#include <cctype>

using namespace ecas;

namespace {

struct RegistryEntry {
  const char *Abbrev;
  Workload (*Make)(const WorkloadConfig &);
  /// Builds on the tablet's 32-bit toolchain (Table 1).
  bool OnTablet;
};

/// Table 1's rows in desktop-suite order.
const RegistryEntry Table1Rows[] = {
    {"BH", makeBarnesHutWorkload, false},
    {"BFS", makeBfsWorkload, false},
    {"CC", makeCcWorkload, false},
    {"FD", makeFaceDetectWorkload, false},
    {"MB", makeMandelbrotWorkload, true},
    {"SL", makeSkipListWorkload, true},
    {"SP", makeSsspWorkload, false},
    {"BS", makeBlackScholesWorkload, true},
    {"MM", makeMatrixMultiplyWorkload, true},
    {"NB", makeNBodyWorkload, true},
    {"RT", makeRayTracerWorkload, true},
    {"SM", makeSeismicWorkload, true},
};

bool sameAbbrev(const std::string &A, const std::string &B) {
  return std::equal(A.begin(), A.end(), B.begin(), B.end(),
                    [](unsigned char X, unsigned char Y) {
                      return std::tolower(X) == std::tolower(Y);
                    });
}

} // namespace

std::vector<Workload> ecas::desktopSuite(const WorkloadConfig &Config) {
  std::vector<Workload> Suite;
  for (const RegistryEntry &Entry : Table1Rows)
    Suite.push_back(Entry.Make(Config));
  return Suite;
}

std::vector<Workload> ecas::tabletSuite(WorkloadConfig Config) {
  Config.TabletInputs = true;
  std::vector<Workload> Suite;
  for (const RegistryEntry &Entry : Table1Rows)
    if (Entry.OnTablet)
      Suite.push_back(Entry.Make(Config));
  return Suite;
}

std::optional<Workload> ecas::makeWorkload(const std::string &Abbrev,
                                           const WorkloadConfig &Config) {
  for (const RegistryEntry &Entry : Table1Rows)
    if (sameAbbrev(Entry.Abbrev, Abbrev) &&
        (Entry.OnTablet || !Config.TabletInputs))
      return Entry.Make(Config);
  return std::nullopt;
}

const Workload *ecas::findWorkload(const std::vector<Workload> &Suite,
                                   const std::string &Abbrev) {
  for (const Workload &W : Suite)
    if (sameAbbrev(W.Abbrev, Abbrev))
      return &W;
  return nullptr;
}
