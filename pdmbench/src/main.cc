// pdm_bench: wall-clock benchmark of the paper's PDM actions.
//
//   pdm_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-file PATH]
//   pdm_bench --list
//
// Builds one deployment of the named workload from the seed, runs its
// closed-loop clients for S seconds of whole rounds, checks every
// action against an oracle computed apart from the program, and prints
// as its last stdout line one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 repeats the workload with the statement log and
// the tracer on, keeps the tracer's Chrome trace at PATH, replays the
// captured statements layer by layer and reports the per-layer metrics.
// --list prints the workload and metric names with their units.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replay.h"
#include "server/db_server.h"
#include "spec.h"
#include "stats.h"
#include "workload.h"

namespace pdmbench {
namespace {

using pdm::Result;
using pdm::Status;

/// Set-ups per untraced run: at least kMinSetups, then more until their
/// times add up to kSetupBudgetS, at most kMaxSetups. setup_s is their
/// median, so a fast set-up is repeated often enough to be steady.
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 25;
constexpr double kSetupBudgetS = 3.0;

/// Statements the traced phase may capture. The replay re-issues each
/// of them through every layer, so this bounds the traced run's length.
constexpr size_t kTracedStatementCap = 24000;

/// Tracer ring size: about three spans per statement, with room to spare,
/// so the traced phase never drops one.
constexpr size_t kTracerCapacity = 1 << 17;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_file = "pdm_bench_trace.json";
  bool list = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      args->list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] - '0';
    } else if (flag == "--trace-file") {
      args->trace_file = value;
    } else {
      return false;
    }
  }
  return args->list ||
         (!args->workload.empty() && args->seconds > 0 && args->trace >= 0);
}

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Machine-wide CPU ticks from /proc/stat: {steal, total}.
std::pair<double, double> CpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double steal = 0;
  double total = 0;
  double ticks = 0;
  for (int field = 0; field < 10 && stat >> ticks; ++field) {
    total += ticks;
    if (field == 7) steal = ticks;
  }
  return {steal, total};
}

/// `ms` reordered by completion time `done_s`.
std::vector<double> Chronological(const std::vector<double>& ms,
                                  const std::vector<double>& done_s) {
  std::vector<size_t> order(ms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return done_s[a] < done_s[b]; });
  std::vector<double> out;
  out.reserve(ms.size());
  for (size_t i : order) out.push_back(ms[i]);
  return out;
}

/// Per-kind failure accounting and per-flavour latencies, printed
/// before the result line.
void PrintTally(const char* phase, const Tally& tally, double wall_s) {
  std::printf("%s phase: %zu actions in %.3f s\n", phase, tally.actions,
              wall_s);
  std::printf("  %-10s %9s %7s\n", "kind", "attempted", "failed");
  for (size_t k = 0; k < kNumKinds; ++k) {
    std::printf("  %-10s %9zu %7zu\n", KindName(static_cast<Kind>(k)),
                tally.attempted[k], tally.failed[k]);
  }
  std::printf("  conflict retries: %zu\n", tally.conflict_retries);
  // Drift over the run: DML versions piling up (or pruned) show as
  // latency that differs between the first and the last quarter.
  for (size_t k = 0; k < kNumKinds; ++k) {
    const std::vector<double> ordered =
        Chronological(tally.wall_ms[k], tally.done_s[k]);
    if (ordered.size() < 8) continue;
    const size_t quarter = ordered.size() / 4;
    Result<double> first =
        P50(std::vector<double>(ordered.begin(), ordered.begin() + quarter));
    Result<double> last =
        P50(std::vector<double>(ordered.end() - quarter, ordered.end()));
    std::printf("  %s p50, first quarter of the run %.3f ms, last %.3f ms\n",
                KindName(static_cast<Kind>(k)), *first, *last);
  }
  for (const auto& [label, samples] : tally.by_label) {
    Result<double> p50 = P50(samples);
    Result<double> p90 = NearestRank(samples, 0.9);
    std::printf("  %-40s n=%-6zu p50=%9.3f ms p90=%9.3f ms\n", label.c_str(),
                samples.size(), p50.ok() ? *p50 : 0.0,
                p90.ok() ? *p90 : 0.0);
  }
  for (const std::string& error : tally.errors) {
    std::printf("  WRONG: %s\n", error.c_str());
  }
  for (const std::string& failure : tally.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

const char* UnitOf(const std::vector<MetricSpec>& specs,
                   const std::string& name) {
  for (const MetricSpec& spec : specs) {
    if (name == spec.name) return spec.unit;
  }
  return nullptr;
}

/// Windows the timed phase is cut into. Throughput and p50s are the
/// median over ten equal time windows, and p90s the median over up to
/// ten runs of consecutive samples with at least 100 samples each. A
/// burst of CPU steal on the shared host that hits a window or two then
/// moves the figures little.
constexpr size_t kWindows = 10;

/// Median over the run's time windows of `stat` applied to the samples
/// that completed in each window (windows without samples are skipped).
Result<double> WindowMedian(
    const std::vector<double>& ms, const std::vector<double>& done_s,
    double wall_s,
    const std::function<Result<double>(const std::vector<double>&)>& stat) {
  std::vector<std::vector<double>> windows(kWindows);
  for (size_t i = 0; i < ms.size(); ++i) {
    const size_t w = std::min(
        kWindows - 1, static_cast<size_t>(done_s[i] / wall_s * kWindows));
    windows[w].push_back(ms[i]);
  }
  std::vector<double> values;
  for (const std::vector<double>& window : windows) {
    if (window.empty()) continue;
    PDM_ASSIGN_OR_RETURN(double value, stat(window));
    values.push_back(value);
  }
  return P50(values);
}

/// Median of the p90s of consecutive runs of samples (in completion
/// order), each run holding at least kMinTailSamples samples. Refused
/// below kMinTailSamples samples in all.
Result<double> ChunkedP90(const std::vector<double>& ms,
                          const std::vector<double>& done_s) {
  const std::vector<double> ordered = Chronological(ms, done_s);
  const size_t n = ordered.size();
  const size_t chunks = std::clamp<size_t>(n / kMinTailSamples, 1, kWindows);
  std::vector<double> values;
  for (size_t c = 0; c < chunks; ++c) {
    PDM_ASSIGN_OR_RETURN(
        double value,
        P90(std::vector<double>(ordered.begin() + c * n / chunks,
                                ordered.begin() + (c + 1) * n / chunks)));
    values.push_back(value);
  }
  return P50(values);
}

Status EndToEnd(const Tally& tally, double wall_s, double setup_s,
                std::vector<Metric>* out) {
  auto median = [&](Kind k) {
    const size_t i = static_cast<size_t>(k);
    return WindowMedian(tally.wall_ms[i], tally.done_s[i], wall_s, P50);
  };
  auto p90 = [&](Kind k) {
    const size_t i = static_cast<size_t>(k);
    return ChunkedP90(tally.wall_ms[i], tally.done_s[i]);
  };
  // Completed actions of every kind, per second of each window.
  std::vector<double> done;
  for (size_t k = 0; k < kNumKinds; ++k) {
    done.insert(done.end(), tally.done_s[k].begin(), tally.done_s[k].end());
  }
  const double window_s = wall_s / kWindows;
  PDM_ASSIGN_OR_RETURN(
      double actions_per_s,
      WindowMedian(std::vector<double>(done.size(), 0.0), done, wall_s,
                   [&](const std::vector<double>& window) -> Result<double> {
                     return static_cast<double>(window.size()) / window_s;
                   }));
  PDM_ASSIGN_OR_RETURN(double mle_p50, median(Kind::kMle));
  PDM_ASSIGN_OR_RETURN(double mle_p90, p90(Kind::kMle));
  PDM_ASSIGN_OR_RETURN(double expand_p50, median(Kind::kExpand));
  PDM_ASSIGN_OR_RETURN(double query_p50, median(Kind::kQuery));
  PDM_ASSIGN_OR_RETURN(double checkout_p50, median(Kind::kCheckout));
  PDM_ASSIGN_OR_RETURN(double checkout_p90, p90(Kind::kCheckout));
  const std::vector<std::pair<std::string, double>> values = {
      {"setup_s", setup_s},
      {"peak_rss_mb", PeakRssMb()},
      {"actions_per_s", actions_per_s},
      {"mle_p50_ms", mle_p50},
      {"mle_p90_ms", mle_p90},
      {"expand_p50_ms", expand_p50},
      {"query_p50_ms", query_p50},
      {"checkout_p50_ms", checkout_p50},
      {"checkout_p90_ms", checkout_p90},
      {"sim_response_s", tally.sim_s / static_cast<double>(tally.actions)},
  };
  for (const auto& [name, value] : values) {
    out->push_back({name, value, UnitOf(EndToEndMetrics(), name)});
  }
  return Status::OK();
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::vector<std::string> errors;
  std::vector<double> setups;
  std::unique_ptr<Deployment> deployment;
  double setup_total_s = 0;
  while (setups.empty() ||
         (args.trace == 0 && setups.size() < kMaxSetups &&
          (setups.size() < kMinSetups || setup_total_s < kSetupBudgetS))) {
    deployment.reset();  // one deployment resident at a time
    double setup_s = 0;
    Result<std::unique_ptr<Deployment>> created =
        Deployment::Create(*spec, args.seed, &setup_s);
    if (!created.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    deployment = std::move(*created);
    setups.push_back(setup_s);
    setup_total_s += setup_s;
    if (setups.size() == 1) {  // every set-up is identical; report once
      for (const std::string& error : deployment->setup_errors()) {
        std::printf("  WRONG (set-up): %s\n", error.c_str());
        errors.push_back(error);
      }
    }
  }
  std::printf("workload %s, seed %llu: %zu set-ups, median %.4f s\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              setups.size(), *P50(setups));

  // CPU steal on a shared host slows every action; it is printed so a
  // slow run can be told from a slow program.
  const std::pair<double, double> ticks_before = CpuTicks();
  double wall_s = 0;
  Result<Tally> untraced =
      deployment->RunPhase(args.seconds, args.seed, /*traced=*/false,
                           /*statement_cap=*/0, &wall_s);
  const std::pair<double, double> ticks_after = CpuTicks();
  if (!untraced.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 untraced.status().ToString().c_str());
    return 1;
  }
  PrintTally("timed", *untraced, wall_s);
  const double ticks = ticks_after.second - ticks_before.second;
  if (ticks > 0) {
    std::printf("  host CPU steal during the phase: %.1f%%\n",
                100.0 * (ticks_after.first - ticks_before.first) / ticks);
  }
  bool correct = errors.empty() && untraced->errors.empty();

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    Status status =
        EndToEnd(*untraced, wall_s, *P50(setups), &metrics);
    if (!status.ok()) {
      std::fprintf(stderr, "metric refused: %s\n", status.ToString().c_str());
      return 1;
    }
    PrintResult(correct, untraced->total_attempted(), untraced->total_failed(),
                metrics);
    return 0;
  }

  // Traced run: the same workload again for half the run length, with
  // the statement log and the tracer on, then the layer-by-layer replay.
  pdm::DbServer& server = deployment->experiment().server();
  server.ResetObservability();
  server.mutable_config().statement_log_capacity = 0;
  server.EnableStatementLog(true);
  pdm::obs::Tracer& tracer = pdm::obs::Tracer::Global();
  tracer.set_capacity(kTracerCapacity);
  tracer.Clear();
  tracer.Enable(true);
  double traced_wall_s = 0;
  Result<Tally> traced =
      deployment->RunPhase(args.seconds / 2, args.seed, /*traced=*/true,
                           kTracedStatementCap, &traced_wall_s);
  tracer.Enable(false);
  server.EnableStatementLog(false);
  if (!traced.ok()) {
    std::fprintf(stderr, "traced run failed: %s\n",
                 traced.status().ToString().c_str());
    return 1;
  }
  PrintTally("traced", *traced, traced_wall_s);
  correct = correct && traced->errors.empty();
  if (tracer.dropped_spans() > 0) {
    std::fprintf(stderr, "tracer ring overflowed: %zu spans dropped\n",
                 tracer.dropped_spans());
    return 1;
  }
  const std::vector<pdm::obs::SpanRecord> spans = tracer.Snapshot();
  Status written = pdm::obs::WriteChromeTraceFile(args.trace_file, spans);
  if (!written.ok()) {
    std::fprintf(stderr, "chrome trace: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("chrome trace: %s (%zu spans)\n", args.trace_file.c_str(),
              spans.size());
  tracer.Clear();

  TracedRun run;
  run.untraced = &*untraced;
  run.untraced_wall_s = wall_s;
  run.traced = &*traced;
  run.traced_wall_s = traced_wall_s;
  for (const pdm::obs::SpanRecord& span : spans) {
    if (span.name == "server:statement") run.live_server_us += span.wall_dur_us;
  }
  const pdm::PlanCacheStats cache = server.plan_cache_stats();
  std::printf("plan cache over the traced phase: %llu hits, %llu misses "
              "(%llu bypasses), %llu evictions\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.bypasses),
              static_cast<unsigned long long>(cache.evictions));
  run.plan_cache_hits = cache.hits;
  run.plan_cache_misses = cache.misses;
  Result<LayerMetrics> layers = MeasureLayers(deployment.get(), run);
  if (!layers.ok()) {
    std::fprintf(stderr, "layer replay failed: %s\n",
                 layers.status().ToString().c_str());
    return 1;
  }
  for (const auto& [name, value] : *layers) {
    const char* unit = UnitOf(PerLayerMetrics(), name);
    if (unit == nullptr) {
      std::fprintf(stderr, "unlisted per-layer metric %s\n", name.c_str());
      return 1;
    }
    metrics.push_back({name, value, unit});
  }
  PrintResult(correct, untraced->total_attempted() + traced->total_attempted(),
              untraced->total_failed() + traced->total_failed(), metrics);
  return 0;
}

}  // namespace
}  // namespace pdmbench

int main(int argc, char** argv) {
  pdmbench::Args args;
  if (!pdmbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pdm_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-file PATH]\n       pdm_bench --list\n");
    return 2;
  }
  if (args.list) {
    std::printf("%s\n", pdmbench::SpecJson().c_str());
    return 0;
  }
  return pdmbench::Run(args);
}
