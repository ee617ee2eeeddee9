#ifndef HYTAP_IO_WORKLOAD_IO_H_
#define HYTAP_IO_WORKLOAD_IO_H_

#include <string>

#include "common/status.h"
#include "selection/selectors.h"
#include "workload/workload.h"

namespace hytap {

/// Plain-text serialization of a selection-model workload, so captured plan
/// caches can be exported, versioned, and fed to the CLI tools.
///
/// Format (line oriented, '#' comments):
///   hytap-workload v1
///   columns <N>
///   <name> <size_bytes> <selectivity>        # N lines
///   queries <Q>
///   <frequency> <col> [<col> ...]            # Q lines
std::string SerializeWorkload(const Workload& workload);

/// Parses the format above; returns a descriptive error on malformed input.
StatusOr<Workload> ParseWorkload(const std::string& text);

/// File convenience wrappers.
Status WriteWorkloadFile(const std::string& path, const Workload& workload);
StatusOr<Workload> ReadWorkloadFile(const std::string& path);

/// CSV rendering of an explicit Pareto frontier: one line per step with the
/// column name, critical alpha, cumulative DRAM bytes, and scan cost.
std::string FrontierToCsv(const ExplicitFrontier& frontier,
                          const Workload& workload);

/// CSV rendering of an allocation (one line per column: name, size,
/// location).
std::string AllocationToCsv(const SelectionResult& result,
                            const Workload& workload);

}  // namespace hytap

#endif  // HYTAP_IO_WORKLOAD_IO_H_
