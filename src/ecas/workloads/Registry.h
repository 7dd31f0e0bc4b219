//===-- ecas/workloads/Registry.h - Benchmark suites ------------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assembles the Table 1 benchmark suites: the twelve desktop workloads
/// and the seven that run on the tablet (the rest fail to build on the
/// paper's 32-bit toolchain).
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_WORKLOADS_REGISTRY_H
#define ECAS_WORKLOADS_REGISTRY_H

#include "ecas/workloads/Workload.h"

#include <optional>
#include <string>
#include <vector>

namespace ecas {

/// All twelve workloads with the desktop inputs of Table 1.
std::vector<Workload> desktopSuite(const WorkloadConfig &Config = {});

/// The seven tablet workloads (MB, SL, BS, MM, NB, RT, SM) with the
/// tablet inputs of Table 1.
std::vector<Workload> tabletSuite(WorkloadConfig Config = {});

/// Builds only the workload with abbreviation \p Abbrev ("CC", "bs",
/// ...; case-insensitive), exactly as the suite holding it would. With
/// \p Config.TabletInputs set, only tabletSuite()'s seven are found.
/// Empty for an unknown abbreviation.
std::optional<Workload> makeWorkload(const std::string &Abbrev,
                                     const WorkloadConfig &Config = {});

/// Finds a workload by abbreviation ("CC", "bs", ...); returns nullptr
/// when absent.
const Workload *findWorkload(const std::vector<Workload> &Suite,
                             const std::string &Abbrev);

} // namespace ecas

#endif // ECAS_WORKLOADS_REGISTRY_H
