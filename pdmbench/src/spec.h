#ifndef PDMBENCH_SPEC_H_
#define PDMBENCH_SPEC_H_

#include <string>
#include <vector>

namespace pdmbench {

/// One reported metric: name, unit and which direction is better.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Workloads the program runs by name but BENCHMARK.json leaves out:
/// multiclient-checkout's wall-clock figures move with CPU steal on a
/// shared host by more than any bound the benchmark may set.
const std::vector<std::string>& ManualWorkloadNames();

/// Metrics of an untraced run (every workload reports all of them).
const std::vector<MetricSpec>& EndToEndMetrics();

/// Metrics of a traced run.
const std::vector<MetricSpec>& PerLayerMetrics();

/// JSON object {"workloads": [...], "manual_workloads": [...],
/// "end_to_end": [...], "per_layer": [...]} listing the names above,
/// the metrics with their units and directions.
std::string SpecJson();

}  // namespace pdmbench

#endif  // PDMBENCH_SPEC_H_
