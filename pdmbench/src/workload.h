#ifndef PDMBENCH_WORKLOAD_H_
#define PDMBENCH_WORKLOAD_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/checkout.h"
#include "client/experiment.h"
#include "common/result.h"
#include "common/rng.h"
#include "model/cost_model.h"
#include "oracle.h"

namespace pdmbench {

/// The user actions the end-to-end metrics are about. kMle covers full
/// and partial multi-level expands; one kCheckout operation is two
/// actions, a check-out and the check-in that follows it.
enum class Kind { kMle = 0, kExpand, kQuery, kCheckout };
inline constexpr size_t kNumKinds = 4;
const char* KindName(Kind kind);

/// One planned user action.
struct Op {
  Kind kind = Kind::kMle;
  pdm::model::StrategyKind strategy = pdm::model::StrategyKind::kRecursive;
  pdm::client::CheckOutMethod method =
      pdm::client::CheckOutMethod::kRecursiveBatched;
  int64_t root = 0;
  int levels = 0;  // partial-expand depth; 0 = the whole subtree
};

/// Label of an operation's flavour (strategy or check-out method), used
/// for the per-flavour breakdown and the warm-up pass.
std::string OpLabel(const Op& op);

struct WorkloadSpec {
  std::string name;
  int depth = 0;
  int branching = 0;
  double sigma = 0.6;
  /// Client connections, one thread each.
  size_t clients = 1;
  /// Route every client through the shared admission queue.
  bool admission_queue = false;
  /// Server worker pool (DbServer::Config::batch_threads).
  size_t pool_threads = 4;
  /// One round of operations of client `client`: fixed shares, roots
  /// drawn from `rng`. Every run repeats whole rounds.
  std::vector<Op> (*round)(size_t client, const Oracle& oracle,
                           pdm::Rng* rng) = nullptr;
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// Wrong results and failures a tally keeps messages for.
inline constexpr size_t kMaxNotes = 8;

/// What a set of client threads did, merged over clients.
struct Tally {
  std::array<std::vector<double>, kNumKinds> wall_ms;  // per action
  /// Completion time of each action, seconds after the phase started
  /// (parallel to wall_ms).
  std::array<std::vector<double>, kNumKinds> done_s;
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  std::array<size_t, kNumKinds> attempted{};
  std::array<size_t, kNumKinds> failed{};
  size_t conflict_retries = 0;
  size_t actions = 0;          // completed actions
  double action_wall_s = 0;    // sum of action wall times
  double sim_s = 0;            // sum of simulated WAN seconds
  double round_trips = 0;
  double charged_bytes = 0;
  double hidden_s = 0;
  size_t transmitted_rows = 0;  // read actions
  size_t visible_nodes = 0;     // read actions
  /// Per-flavour wall samples, for the breakdown printed beside the result.
  std::vector<std::pair<std::string, std::vector<double>>> by_label;
  /// The samples of flavour `label`, created empty on first use.
  std::vector<double>& LabelSamples(const std::string& label);
  std::vector<std::string> errors;    // wrong results (first few)
  std::vector<std::string> failures;  // failed or denied operations
  std::vector<Op> ops;              // executed operations, in order

  void Merge(Tally&& other);
  size_t total_attempted() const;
  size_t total_failed() const;
};

/// A deployed PDM installation plus the oracle of its product.
class Deployment {
 public:
  /// Builds the deployment and runs the warm-up pass. `setup_seconds`
  /// receives the program's share of that (creation, connections and
  /// warm-up actions; the oracle's own work is excluded).
  static pdm::Result<std::unique_ptr<Deployment>> Create(
      const WorkloadSpec& spec, uint64_t seed, double* setup_seconds);

  pdm::client::Experiment& experiment() { return *experiment_; }
  const Oracle& oracle() const { return *oracle_; }
  const WorkloadSpec& spec() const { return spec_; }

  /// Runs whole rounds on every client, one thread each, until
  /// `seconds` have passed and (untraced) every latency metric has its
  /// minimum sample count, or (traced) the server's statement log holds
  /// `statement_cap` entries. A traced phase keeps the executed
  /// operations. `wall_s` receives the phase's wall time.
  pdm::Result<Tally> RunPhase(double seconds, uint64_t seed, bool traced,
                              size_t statement_cap, double* wall_s);

  /// Warm-up checks failed during Create (correctness, not a crash).
  const std::vector<std::string>& setup_errors() const { return errors_; }

 private:
  explicit Deployment(const WorkloadSpec& spec) : spec_(spec) {}

  WorkloadSpec spec_;
  std::unique_ptr<pdm::client::Experiment> experiment_;
  std::unique_ptr<Oracle> oracle_;
  std::vector<std::string> errors_;
};

}  // namespace pdmbench

#endif  // PDMBENCH_WORKLOAD_H_
