#ifndef PDMBENCH_REPLAY_H_
#define PDMBENCH_REPLAY_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "workload.h"

namespace pdmbench {

/// One named per-layer figure.
using LayerMetrics = std::vector<std::pair<std::string, double>>;

/// Inputs of the per-layer measurement: the untraced and the traced
/// phase of one workload on one deployment.
struct TracedRun {
  const Tally* untraced = nullptr;
  double untraced_wall_s = 0;
  const Tally* traced = nullptr;
  double traced_wall_s = 0;
  /// Wall time of every "server:statement" span the tracer recorded in
  /// the traced phase: the live server time of the clients' statements.
  double live_server_us = 0;
  /// Plan-cache counters over the traced phase.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
};

/// Re-issues the statements the traced phase captured in the server's
/// statement log, in their original order, through each layer's public
/// entry points, times every call from here, and derives every
/// per-layer metric (spec.h) from those timings, the ExecStats of the
/// replayed Database::Execute calls and the counters the program
/// already exposes. Must run after the traced phase, with no client
/// active.
pdm::Result<LayerMetrics> MeasureLayers(Deployment* deployment,
                                        const TracedRun& run);

}  // namespace pdmbench

#endif  // PDMBENCH_REPLAY_H_
