#include "workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <thread>

#include "client/connection.h"
#include "stats.h"

namespace pdmbench {

using pdm::Result;
using pdm::Status;
using pdm::client::CheckOutMethod;
using pdm::model::StrategyKind;
using Clock = std::chrono::steady_clock;

namespace {

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Relative tolerance of the per-action reconciliation against
/// model::PredictFromTraffic: both sides evaluate eqs. (1)-(3) on the
/// same counts, so only floating-point summation order separates them.
constexpr double kTrafficTolerance = 1e-9;

/// Closed-form tolerance the simulation-agreement tests use for
/// whole-product actions (integral σ pattern against the model's
/// fractional (σω)^i node counts).
bool WithinClosedForm(double simulated, double predicted) {
  return std::fabs(simulated - predicted) <= 0.25 * predicted + 0.2;
}

pdm::model::NetworkParams NetOf(const pdm::client::ExperimentConfig& config) {
  return pdm::model::NetworkParams{
      config.wan.latency_s, config.wan.dtr_kbit,
      static_cast<double>(config.wan.packet_bytes),
      static_cast<double>(config.client.node_bytes)};
}

/// The visible assemblies `level` levels below the root whose subtree
/// size is the most common among them (ties: the smaller size). Roots of
/// one kind of action are drawn from one such class, so that subtree
/// size never splits an action's latency into clusters.
std::vector<int64_t> BySubtreeSize(const Oracle& oracle, int level) {
  std::map<size_t, std::vector<int64_t>> classes;
  for (int64_t obid : oracle.AssembliesAtLevel(level)) {
    classes[oracle.SubtreeSize(obid)].push_back(obid);
  }
  const std::vector<int64_t>* best = nullptr;
  for (const auto& [size, members] : classes) {
    if (best == nullptr || members.size() > best->size()) best = &members;
  }
  return best == nullptr ? std::vector<int64_t>{} : *best;
}

int64_t Pick(const std::vector<int64_t>& nodes, pdm::Rng* rng) {
  return nodes[rng->NextBelow(nodes.size())];
}

Op Read(Kind kind, StrategyKind strategy, int64_t root, int levels = 0) {
  Op op;
  op.kind = kind;
  op.strategy = strategy;
  op.root = root;
  op.levels = levels;
  return op;
}

Op CheckOut(CheckOutMethod method, int64_t root) {
  Op op;
  op.kind = Kind::kCheckout;
  op.method = method;
  op.root = root;
  return op;
}

// --- Rounds -------------------------------------------------------------
//
// Shares are chosen so that the median and the p90 of every action kind
// fall inside one latency cluster, never on the boundary between two:
// the minority flavour of each kind is either clearly faster or clearly
// slower than the majority and holds well under 40% or 10% of it. The
// seed draws the roots; the order of operations within a round is
// fixed, so that the sequence of allocations, and with it the peak
// resident set, does not depend on the seed. Single-level expands draw
// from every assembly of their level, whose child counts differ: their
// wall time hardly notices, but the run's simulated seconds then depend
// on the seed rather than reading the same on every run.

/// Approach 2, one direct client, α=7 ω=5: recursive MLEs of level-2
/// assemblies (364 visible nodes each), a partial expand of a level-1
/// assembly 2-4 levels deep, the recursive Query, single-level expands
/// of level-4 assemblies and check-out/check-in of level-3 assemblies
/// (121 objects) by the recursive-batched and stored-procedure methods.
/// A fourth check-out per round, recursive-batched, is of a level-1
/// assembly (1,093 objects, ~70 ms against ~47 ms): a quarter of the
/// check-out actions, so the check-out p90 is their median rather than
/// the tail of the level-3 ones.
std::vector<Op> RecursiveSessionRound(size_t, const Oracle& oracle,
                                      pdm::Rng* rng) {
  const std::vector<int64_t> l1 = oracle.AssembliesAtLevel(1);
  const std::vector<int64_t> l2 = oracle.AssembliesAtLevel(2);
  const std::vector<int64_t> l3 = oracle.AssembliesAtLevel(3);
  const std::vector<int64_t> l4 = oracle.AssembliesAtLevel(4);
  std::vector<Op> ops;
  for (int i = 0; i < 5; ++i) {
    ops.push_back(Read(Kind::kMle, StrategyKind::kRecursive, Pick(l2, rng)));
  }
  // The partial expand's depth is drawn too: every level-k subtree of
  // this product is alike, so without it the run's simulated seconds
  // would not depend on the seed at all.
  ops.push_back(Read(Kind::kMle, StrategyKind::kRecursive, Pick(l1, rng),
                     2 + static_cast<int>(rng->NextBelow(3))));
  ops.push_back(Read(Kind::kQuery, StrategyKind::kRecursive, oracle.root()));
  for (int i = 0; i < 3; ++i) {
    ops.push_back(
        Read(Kind::kExpand, StrategyKind::kRecursive, Pick(l4, rng)));
  }
  for (CheckOutMethod method :
       {CheckOutMethod::kRecursiveBatched, CheckOutMethod::kRecursiveBatched,
        CheckOutMethod::kStoredProcedure}) {
    ops.push_back(CheckOut(method, Pick(l3, rng)));
  }
  ops.push_back(CheckOut(CheckOutMethod::kRecursiveBatched, Pick(l1, rng)));
  return ops;
}

/// Approach 1 and the batching extensions, one direct client, α=9 ω=3.
///
/// MLEs: level-5 assemblies (27 visible nodes each) under all six
/// navigational strategies, late and early evaluation once more, and two
/// early-evaluation MLEs of the whole product (the paper's Table 3
/// action, ~450 nodes). The whole-product MLEs are a fifth of the MLEs
/// and over ten times slower than the rest, so the MLE p90 is their
/// median.
/// The pipelined strategies start a thread per batch, so under CPU
/// contention they slow from ~3 ms to ~10 ms; they are a fifth of the
/// MLEs, which keeps the p50 among the serial strategies and the p90
/// among the whole-product MLEs whether or not they do.
///
/// Check-outs: three of level-8 assemblies with two visible components
/// (three point UPDATEs each) and one of a level-6 assembly (~14
/// objects), all navigational. The larger one is a quarter of the
/// check-out actions and several times slower, so the check-out p90 is
/// its median rather than the tail of the small ones.
///
/// Also single-level expands of level-3 assemblies and Query (early,
/// one in four late).
std::vector<Op> NavigationalExpandRound(size_t, const Oracle& oracle,
                                        pdm::Rng* rng) {
  const std::vector<int64_t> l3 = oracle.AssembliesAtLevel(3);
  const std::vector<int64_t> l5 = BySubtreeSize(oracle, 5);
  const std::vector<int64_t> l6 = BySubtreeSize(oracle, 6);
  const std::vector<int64_t> l8 = BySubtreeSize(oracle, 8);
  std::vector<Op> ops;
  for (StrategyKind kind :
       {StrategyKind::kNavigationalLate, StrategyKind::kNavigationalEarly,
        StrategyKind::kBatchedLate, StrategyKind::kBatchedEarly,
        StrategyKind::kPipelinedLate, StrategyKind::kPipelinedEarly,
        StrategyKind::kNavigationalLate, StrategyKind::kNavigationalEarly}) {
    ops.push_back(Read(Kind::kMle, kind, Pick(l5, rng)));
  }
  for (int i = 0; i < 2; ++i) {
    ops.push_back(
        Read(Kind::kMle, StrategyKind::kNavigationalEarly, oracle.root()));
  }
  for (StrategyKind kind :
       {StrategyKind::kNavigationalLate, StrategyKind::kNavigationalEarly,
        StrategyKind::kNavigationalEarly, StrategyKind::kNavigationalEarly}) {
    ops.push_back(Read(Kind::kExpand, kind, Pick(l3, rng)));
  }
  for (StrategyKind kind :
       {StrategyKind::kNavigationalEarly, StrategyKind::kNavigationalEarly,
        StrategyKind::kNavigationalEarly, StrategyKind::kNavigationalLate}) {
    ops.push_back(Read(Kind::kQuery, kind, oracle.root()));
  }
  for (int i = 0; i < 3; ++i) {
    ops.push_back(CheckOut(CheckOutMethod::kNavigational, Pick(l8, rng)));
  }
  ops.push_back(CheckOut(CheckOutMethod::kNavigational, Pick(l6, rng)));
  return ops;
}

/// Three readers and one writer through the admission queue, α=3 ω=9.
/// Readers expand level-1 assemblies (33 visible nodes each); the
/// writer checks level-2 assemblies (6 objects each) out and in again.
std::vector<Op> MulticlientCheckoutRound(size_t client, const Oracle& oracle,
                                         pdm::Rng* rng) {
  const std::vector<int64_t> l1 = BySubtreeSize(oracle, 1);
  const std::vector<int64_t> l2 = BySubtreeSize(oracle, 2);
  std::vector<Op> ops;
  if (client == 3) {
    for (CheckOutMethod method :
         {CheckOutMethod::kNavigational, CheckOutMethod::kRecursiveBatched,
          CheckOutMethod::kRecursiveBatched,
          CheckOutMethod::kStoredProcedure}) {
      ops.push_back(CheckOut(method, Pick(l2, rng)));
    }
  } else {
    for (StrategyKind kind :
         {StrategyKind::kBatchedEarly, StrategyKind::kBatchedEarly,
          StrategyKind::kPipelinedEarly, StrategyKind::kPipelinedEarly,
          StrategyKind::kRecursive}) {
      ops.push_back(Read(Kind::kMle, kind, Pick(l1, rng)));
    }
    ops.push_back(Read(Kind::kExpand, StrategyKind::kNavigationalEarly,
                       Pick(oracle.AssembliesAtLevel(1), rng)));
    ops.push_back(
        Read(Kind::kQuery, StrategyKind::kNavigationalEarly, oracle.root()));
  }
  return ops;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kSpecs = {
      {"recursive-session", 7, 5, 0.6, 1, false, 4, RecursiveSessionRound},
      {"navigational-expand", 9, 3, 0.6, 1, false, 2,
       NavigationalExpandRound},
      {"multiclient-checkout", 3, 9, 0.6, 4, true, 4,
       MulticlientCheckoutRound},
  };
  return kSpecs;
}

// --- One client's session ------------------------------------------------

class Session {
 public:
  Session(Deployment* deployment, pdm::client::Connection* conn, Tally* tally)
      : deployment_(deployment),
        conn_(conn),
        tally_(tally),
        net_(NetOf(deployment->experiment().config())) {}

  void Run(const Op& op) {
    if (op.kind == Kind::kCheckout) {
      RunCheckOut(op);
    } else {
      RunRead(op);
    }
  }

  /// Whole-product MLE under `kind`, checked against the oracle and the
  /// closed form (eqs. (1)-(6)).
  void RunWholeProductMle(StrategyKind kind) {
    const Oracle& oracle = deployment_->oracle();
    Op op = Read(Kind::kMle, kind, oracle.root());
    Result<pdm::client::ActionResult> result = Strategy(kind).MultiLevelExpand(
        oracle.root());
    if (!result.ok()) {
      Wrong("whole-product MLE failed: " + result.status().ToString());
      return;
    }
    VerifyRead(op, *result);
    CheckClosedForm(op, result->wan);
  }

 private:
  pdm::client::AccessStrategy& Strategy(StrategyKind kind) {
    std::unique_ptr<pdm::client::AccessStrategy>& slot = strategies_[kind];
    if (slot == nullptr) {
      slot = deployment_->experiment().MakeStrategyOn(conn_, kind);
    }
    return *slot;
  }

  /// A result that disagrees with the oracle or the model.
  void Wrong(std::string message) { Note(&tally_->errors, std::move(message)); }

  /// An operation that failed or was denied: counted in `failed`, kept
  /// apart from wrong results.
  void Failed(size_t kind, std::string message) {
    ++tally_->failed[kind];
    Note(&tally_->failures, std::move(message));
  }

  static void Note(std::vector<std::string>* notes, std::string message) {
    if (notes->size() < kMaxNotes) {
      notes->push_back(std::move(message));
    } else {
      notes->back() = "(more)";
    }
  }

  Result<pdm::client::ActionResult> Issue(const Op& op) {
    pdm::client::AccessStrategy& strategy = Strategy(op.strategy);
    switch (op.kind) {
      case Kind::kQuery:
        return strategy.QueryAll();
      case Kind::kExpand:
        return strategy.SingleLevelExpand(op.root);
      case Kind::kMle:
        if (op.levels > 0) {
          return static_cast<pdm::client::RecursiveStrategy&>(strategy)
              .PartialExpand(op.root, op.levels);
        }
        return strategy.MultiLevelExpand(op.root);
      case Kind::kCheckout:
        break;
    }
    return Status::Internal("not a read action");
  }

  void RunRead(const Op& op) {
    const size_t k = static_cast<size_t>(op.kind);
    ++tally_->attempted[k];
    const Clock::time_point start = Clock::now();
    Result<pdm::client::ActionResult> result = Issue(op);
    const double ms = MsSince(start);
    if (!result.ok()) {
      Failed(k, std::string(KindName(op.kind)) + " failed: " +
                    result.status().ToString());
      return;
    }
    Record(op, ms, result->wan);
    tally_->transmitted_rows += result->transmitted_rows;
    tally_->visible_nodes += result->visible_nodes;
    VerifyRead(op, *result);
    // Whole-product actions also against the closed form.
    if (op.kind == Kind::kQuery ||
        (op.kind == Kind::kMle && op.root == deployment_->oracle().root() &&
         op.levels == 0)) {
      CheckClosedForm(op, result->wan);
    }
  }

  void RunCheckOut(const Op& op) {
    if (checkout_ == nullptr) {
      pdm::client::Experiment& e = deployment_->experiment();
      checkout_ = std::make_unique<pdm::client::CheckOutClient>(
          conn_, &e.rule_table(), e.user(), e.config().client);
    }
    const size_t k = static_cast<size_t>(Kind::kCheckout);
    const Oracle& oracle = deployment_->oracle();
    for (bool checking_out : {true, false}) {
      ++tally_->attempted[k];
      const Clock::time_point start = Clock::now();
      Result<pdm::client::CheckOutResult> result =
          checking_out ? checkout_->CheckOut(op.root, op.method)
                       : checkout_->CheckIn(op.root, op.method);
      const double ms = MsSince(start);
      const std::string what =
          std::string(checking_out ? "check-out" : "check-in") + " (" +
          OpLabel(op) + ") of " + std::to_string(op.root);
      if (!result.ok()) {
        Failed(k, what + " failed: " + result.status().ToString());
        continue;
      }
      tally_->conflict_retries += result->conflict_retries;
      if (!result->success) {
        // The writer's targets never overlap, so no check-out should be
        // denied; one that is counts as failed.
        Failed(k, what + " was denied");
        continue;
      }
      Record(op, ms, result->wan, checking_out ? " out" : " in");
      if (result->objects != oracle.SubtreeSize(op.root)) {
        Wrong(what + " flipped " + std::to_string(result->objects) +
              " objects, oracle " +
              std::to_string(oracle.SubtreeSize(op.root)));
      }
      Status flags = CheckFlags(&deployment_->experiment().server().database(),
                                oracle, op.root, checking_out);
      if (!flags.ok()) Wrong(what + ": " + flags.ToString());
      CheckTraffic(what, result->wan);
    }
  }

  /// `direction` tells a check-out from a check-in in the per-flavour
  /// breakdown.
  void Record(const Op& op, double ms, const pdm::net::WanStats& wan,
              const char* direction = "") {
    const size_t k = static_cast<size_t>(op.kind);
    tally_->wall_ms[k].push_back(ms);
    tally_->done_s[k].push_back(
        std::chrono::duration<double>(Clock::now() - tally_->start).count());
    tally_->action_wall_s += ms / 1000.0;
    ++tally_->actions;
    tally_->sim_s += wan.total_seconds();
    tally_->round_trips += static_cast<double>(wan.round_trips);
    tally_->charged_bytes += wan.charged_bytes;
    tally_->hidden_s += wan.overlap_hidden_seconds;
    const bool whole = op.kind == Kind::kMle &&
                       op.root == deployment_->oracle().root();
    tally_->LabelSamples(std::string(KindName(op.kind)) + "/" + OpLabel(op) +
                         (whole ? " of the product" : "") + direction)
        .push_back(ms);
  }

  void VerifyRead(const Op& op, const pdm::client::ActionResult& result) {
    const Oracle& oracle = deployment_->oracle();
    const std::string what = std::string(KindName(op.kind)) + " (" +
                             OpLabel(op) + ") of " + std::to_string(op.root);
    switch (op.kind) {
      case Kind::kMle: {
        Status tree = CheckTree(oracle, result.tree, op.root, op.levels);
        if (!tree.ok()) Wrong(what + ": " + tree.ToString());
        break;
      }
      case Kind::kExpand:
        if (result.visible_nodes != oracle.Children(op.root).size()) {
          Wrong(what + " returned " + std::to_string(result.visible_nodes) +
                " children, oracle " +
                std::to_string(oracle.Children(op.root).size()));
        }
        break;
      case Kind::kQuery:
        if (result.visible_nodes != oracle.SubtreeSize(oracle.root())) {
          Wrong(what + " returned " + std::to_string(result.visible_nodes) +
                " nodes, oracle " +
                std::to_string(oracle.SubtreeSize(oracle.root())));
        }
        break;
      case Kind::kCheckout:
        break;
    }
    CheckTraffic(what, result.wan);
  }

  /// The action's simulated seconds against model::PredictFromTraffic
  /// (or its pipelined form) evaluated on the action's own traffic.
  void CheckTraffic(const std::string& what, const pdm::net::WanStats& wan) {
    const std::vector<pdm::net::ExchangeRecord> exchanges =
        conn_->link().exchanges();
    const bool overlapped =
        std::any_of(exchanges.begin(), exchanges.end(),
                    [](const auto& e) { return e.overlapped; });
    pdm::model::ResponseTime predicted;
    if (overlapped) {
      std::vector<pdm::model::ExchangeTraffic> traffic;
      for (const pdm::net::ExchangeRecord& e : exchanges) {
        traffic.push_back({static_cast<double>(e.request_packets),
                           e.response_payload_bytes, e.overlapped});
      }
      predicted = pdm::model::PredictPipelinedFromTraffic(net_, traffic);
    } else {
      predicted = pdm::model::PredictFromTraffic(
          net_, {static_cast<double>(wan.round_trips),
                 static_cast<double>(wan.request_packets),
                 wan.response_payload_bytes});
    }
    const double sim = wan.total_seconds();
    if (std::fabs(predicted.total() - sim) >
        kTrafficTolerance * std::max(1.0, sim)) {
      Wrong(what + ": simulated " + std::to_string(sim) +
            " s, eq. (1) on its traffic " + std::to_string(predicted.total()));
    }
  }

  /// Whole-product actions against eqs. (1)-(6), with the request size
  /// s_q taken from the statements the action actually shipped.
  void CheckClosedForm(const Op& op, const pdm::net::WanStats& wan) {
    const WorkloadSpec& spec = deployment_->spec();
    const double simulated = wan.total_seconds();
    const double statement_bytes =
        wan.statements == 0 ? 0.0
                            : wan.request_payload_bytes /
                                  static_cast<double>(wan.statements);
    const pdm::model::TreeParams tree{spec.depth, spec.branching, spec.sigma};
    const pdm::model::ActionKind action =
        op.kind == Kind::kQuery ? pdm::model::ActionKind::kQuery
                                : pdm::model::ActionKind::kMultiLevelExpand;
    const double predicted =
        pdm::model::Predict(op.strategy, action, tree, net_, statement_bytes)
            .total();
    if (!WithinClosedForm(simulated, predicted)) {
      Wrong(std::string("whole-product ") + KindName(op.kind) + " (" +
            OpLabel(op) + "): simulated " + std::to_string(simulated) +
            " s, closed form " + std::to_string(predicted));
    }
  }

  Deployment* deployment_;
  pdm::client::Connection* conn_;
  Tally* tally_;
  pdm::model::NetworkParams net_;
  std::map<StrategyKind, std::unique_ptr<pdm::client::AccessStrategy>>
      strategies_;
  std::unique_ptr<pdm::client::CheckOutClient> checkout_;
};

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kMle:
      return "mle";
    case Kind::kExpand:
      return "expand";
    case Kind::kQuery:
      return "query";
    case Kind::kCheckout:
      return "checkout";
  }
  return "?";
}

std::string OpLabel(const Op& op) {
  if (op.kind == Kind::kCheckout) {
    return std::string(pdm::client::CheckOutMethodName(op.method));
  }
  std::string label(pdm::model::StrategyKindName(op.strategy));
  if (op.levels > 0) label += "-partial";
  return label;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

void Tally::Merge(Tally&& other) {
  for (size_t k = 0; k < kNumKinds; ++k) {
    wall_ms[k].insert(wall_ms[k].end(), other.wall_ms[k].begin(),
                      other.wall_ms[k].end());
    done_s[k].insert(done_s[k].end(), other.done_s[k].begin(),
                     other.done_s[k].end());
    attempted[k] += other.attempted[k];
    failed[k] += other.failed[k];
  }
  conflict_retries += other.conflict_retries;
  actions += other.actions;
  action_wall_s += other.action_wall_s;
  sim_s += other.sim_s;
  round_trips += other.round_trips;
  charged_bytes += other.charged_bytes;
  hidden_s += other.hidden_s;
  transmitted_rows += other.transmitted_rows;
  visible_nodes += other.visible_nodes;
  for (auto& [label, samples] : other.by_label) {
    std::vector<double>& mine = LabelSamples(label);
    mine.insert(mine.end(), samples.begin(), samples.end());
  }
  for (std::string& error : other.errors) {
    if (errors.size() < kMaxNotes) errors.push_back(std::move(error));
  }
  for (std::string& failure : other.failures) {
    if (failures.size() < kMaxNotes) failures.push_back(std::move(failure));
  }
  ops.insert(ops.end(), other.ops.begin(), other.ops.end());
}

std::vector<double>& Tally::LabelSamples(const std::string& label) {
  for (auto& [name, samples] : by_label) {
    if (name == label) return samples;
  }
  return by_label.emplace_back(label, std::vector<double>{}).second;
}

size_t Tally::total_attempted() const {
  size_t n = 0;
  for (size_t a : attempted) n += a;
  return n;
}

size_t Tally::total_failed() const {
  size_t n = 0;
  for (size_t f : failed) n += f;
  return n;
}

Result<std::unique_ptr<Deployment>> Deployment::Create(
    const WorkloadSpec& spec, uint64_t seed, double* setup_seconds) {
  std::unique_ptr<Deployment> d(new Deployment(spec));
  pdm::client::ExperimentConfig config;
  config.generator.depth = spec.depth;
  config.generator.branching = spec.branching;
  config.generator.sigma = spec.sigma;
  config.generator.seed = seed;
  const Clock::time_point start = Clock::now();
  PDM_ASSIGN_OR_RETURN(d->experiment_,
                       pdm::client::Experiment::Create(config));
  pdm::DbServer::Config& server = d->experiment_->server().mutable_config();
  server.batch_threads = spec.pool_threads;
  // Wave-triggered version GC stays off. GC invalidates every column
  // index; a reader that rebuilds one while the writer lane is between
  // Table::MaintainIndexesForAppend and publishing the new version
  // marks the index fresh without that version, and from then on index
  // lookups miss the row: now and then a reader's tree loses a node.
  // An intermittent failure cannot be part of the benchmark, so the
  // run leaves GC out.
  server.gc_interval_waves = 0;
  double program_ms = MsSince(start);

  // The oracle's work is the benchmark's, not the program's: untimed.
  const pdm::pdmsys::GeneratedProduct& product = d->experiment_->product();
  PDM_ASSIGN_OR_RETURN(
      Oracle oracle,
      Oracle::Load(&d->experiment_->server().database(),
                   d->experiment_->user(), product.root_obid));
  d->oracle_ = std::make_unique<Oracle>(std::move(oracle));
  const std::vector<size_t> per_level = d->oracle_->PerLevel(product.root_obid);
  size_t visible = 0;
  for (size_t level = 1; level < product.visible_per_level.size(); ++level) {
    const size_t seen = level < per_level.size() ? per_level[level] : 0;
    visible += seen;
    if (seen != product.visible_per_level[level]) {
      d->errors_.push_back("oracle sees " + std::to_string(seen) +
                           " visible nodes on level " + std::to_string(level) +
                           ", generator " +
                           std::to_string(product.visible_per_level[level]));
    }
  }
  if (visible != product.visible_nodes ||
      per_level.size() > product.visible_per_level.size()) {
    d->errors_.push_back("oracle and generator disagree on visible nodes");
  }

  // Warm-up pass on the deployment's own direct connection: one action
  // of every flavour any client runs, plus a whole-product MLE under
  // every MLE strategy. It builds the lazy indexes and fills the plan
  // cache; only the actions' own time counts as set-up.
  Tally warm;
  Session session(d.get(), &d->experiment_->connection(), &warm);
  std::vector<std::string> seen;
  std::vector<StrategyKind> mle_kinds;
  pdm::Rng rng(seed);
  for (size_t client = 0; client < spec.clients; ++client) {
    for (const Op& op : spec.round(client, *d->oracle_, &rng)) {
      const std::string label = std::string(KindName(op.kind)) + "/" + OpLabel(op);
      if (std::find(seen.begin(), seen.end(), label) != seen.end()) continue;
      seen.push_back(label);
      if (op.kind == Kind::kMle && op.levels == 0) {
        mle_kinds.push_back(op.strategy);
      }
      session.Run(op);
    }
  }
  for (StrategyKind kind : mle_kinds) {
    const Clock::time_point t = Clock::now();
    session.RunWholeProductMle(kind);
    program_ms += MsSince(t);
  }
  program_ms += warm.action_wall_s * 1000.0;
  for (std::string& error : warm.errors) d->errors_.push_back(std::move(error));
  for (std::string& failure : warm.failures) {
    d->errors_.push_back("warm-up: " + failure);
  }
  *setup_seconds = program_ms / 1000.0;
  return d;
}

Result<Tally> Deployment::RunPhase(double seconds, uint64_t seed,
                                   bool traced, size_t statement_cap,
                                   double* wall_s) {
  const size_t n = spec_.clients;
  std::vector<std::unique_ptr<pdm::client::Connection>> connections;
  for (size_t i = 0; i < n; ++i) {
    connections.push_back(std::make_unique<pdm::client::Connection>(
        &experiment_->server(), experiment_->config().wan));
  }
  // Every client registers before any thread starts, so the wave
  // barrier sees the full client count from the first submission.
  if (spec_.admission_queue) {
    for (size_t i = 0; i < n; ++i) connections[i]->AttachToAdmissionQueue(i);
  }

  std::vector<Tally> tallies(n);
  std::atomic<size_t> mle_samples{0};
  std::atomic<size_t> checkout_samples{0};
  const Clock::time_point start = Clock::now();
  for (Tally& tally : tallies) tally.start = start;
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  // A run that cannot collect the p90 minimums in four run lengths is
  // refused rather than reported on too few samples.
  const Clock::time_point hard_deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(4 * seconds));
  auto done = [&] {
    const Clock::time_point now = Clock::now();
    if (now >= hard_deadline) return true;
    if (statement_cap > 0 &&
        experiment_->server().statement_log_size() >= statement_cap) {
      return true;
    }
    return now >= deadline &&
           (traced || (mle_samples.load() >= kMinTailSamples &&
                       checkout_samples.load() >= kMinTailSamples));
  };
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        pdm::Rng rng = pdm::Rng::ForStream(seed, i);
        Session session(this, connections[i].get(), &tallies[i]);
        do {
          for (const Op& op : spec_.round(i, *oracle_, &rng)) {
            const size_t before = tallies[i].actions;
            session.Run(op);
            const size_t added = tallies[i].actions - before;
            if (op.kind == Kind::kMle) mle_samples += added;
            if (op.kind == Kind::kCheckout) checkout_samples += added;
            if (traced) tallies[i].ops.push_back(op);
          }
        } while (!done());
        // A finished client leaves the barrier so the others' waves
        // stop waiting for it.
        connections[i]->DetachFromAdmissionQueue();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  *wall_s = std::chrono::duration<double>(Clock::now() - start).count();

  Tally merged;
  for (Tally& t : tallies) merged.Merge(std::move(t));
  return merged;
}

}  // namespace pdmbench
