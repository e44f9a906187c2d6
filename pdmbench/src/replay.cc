#include "replay.h"

#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <unordered_set>

#include "obs/log_histogram.h"
#include "obs/metrics.h"
#include "pdm/pdm_schema.h"
#include "pdm/product_tree.h"
#include "plan/binder.h"
#include "rules/query_builder.h"
#include "rules/query_modificator.h"
#include "server/admission_queue.h"
#include "sql/fingerprint.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace pdmbench {

using pdm::Result;
using pdm::Status;
using pdm::model::StrategyKind;
using Clock = std::chrono::steady_clock;

namespace {

double UsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Sums over the replayed statements.
struct Replay {
  size_t statements = 0;
  double lex_us = 0;
  double fingerprint_us = 0;
  double parse_self_us = 0;  // ParseSql minus TokenizeSql
  size_t bound = 0;
  double bind_us = 0;
  double execute_us = 0;  // Database::Execute
  double exec_self_us = 0;
  size_t server_statements = 0;
  double server_self_us = 0;  // DbServer::Execute minus Database::Execute
  size_t batch_statements = 0;
  double batch_self_us = 0;  // ExecuteBatch minus its Database::Execute calls
  double update_us = 0;
  size_t updated_rows = 0;
  size_t assembled_nodes = 0;
  double assemble_us = 0;
  size_t rows_scanned = 0;
  size_t cte_rows = 0;
  size_t vec_rows = 0;
  size_t join_rows = 0;
  size_t vec_join_rows = 0;
  size_t index_scans = 0;
};

/// Root of a homogenized tree result: the one object that no link row
/// points at. 0 if the result is not a tree result.
int64_t TreeRoot(const pdm::ResultSet& result) {
  std::optional<size_t> obid = result.schema.FindColumn("obid");
  std::optional<size_t> left = result.schema.FindColumn("LEFT");
  std::optional<size_t> right = result.schema.FindColumn("RIGHT");
  if (!obid || !left || !right || result.rows.empty()) return 0;
  std::unordered_set<int64_t> children;
  for (const pdm::Row& row : result.rows) {
    if (!row[*left].is_null()) children.insert(row[*right].int64_value());
  }
  for (const pdm::Row& row : result.rows) {
    if (row[*left].is_null() &&
        children.count(row[*obid].int64_value()) == 0) {
      return row[*obid].int64_value();
    }
  }
  return 0;
}

class Replayer {
 public:
  explicit Replayer(Deployment* deployment)
      : deployment_(deployment),
        server_(deployment->experiment().server()),
        db_(server_.database()) {}

  /// Lex, fingerprint, parse and bind `sql`, then run it on the engine.
  /// Returns Database::Execute's wall time in µs.
  Result<double> Engine(const std::string& sql, pdm::ResultSet* out) {
    Clock::time_point t = Clock::now();
    PDM_RETURN_NOT_OK(pdm::sql::TokenizeSql(sql).status());
    const double lex = UsSince(t);
    t = Clock::now();
    PDM_ASSIGN_OR_RETURN(pdm::sql::StatementFingerprint fp,
                         pdm::sql::FingerprintSql(sql));
    const double fingerprint = UsSince(t);
    if (fp.cacheable) fingerprints_.insert(fp.key);
    t = Clock::now();
    PDM_ASSIGN_OR_RETURN(pdm::sql::StatementPtr stmt, pdm::sql::ParseSql(sql));
    const double parse_self = std::max(0.0, UsSince(t) - lex);
    double bind = 0;
    bool has_bind = true;
    pdm::Binder binder(&db_.catalog(), &db_.functions(),
                       db_.options().binder, &db_.views());
    t = Clock::now();
    if (stmt->kind == pdm::sql::StatementKind::kSelect) {
      PDM_RETURN_NOT_OK(
          binder.BindSelect(static_cast<const pdm::sql::SelectStmt&>(*stmt))
              .status());
    } else if (stmt->kind == pdm::sql::StatementKind::kUpdate) {
      PDM_RETURN_NOT_OK(
          binder.BindUpdate(static_cast<const pdm::sql::UpdateStmt&>(*stmt))
              .status());
    } else {
      has_bind = false;
    }
    if (has_bind) {
      bind = UsSince(t);
      ++r_.bound;
      r_.bind_us += bind;
    }

    pdm::ExecStats stats;
    t = Clock::now();
    PDM_RETURN_NOT_OK(db_.Execute(sql, out, &stats));
    const double execute = UsSince(t);

    ++r_.statements;
    r_.lex_us += lex;
    r_.fingerprint_us += fingerprint;
    r_.parse_self_us += parse_self;
    r_.execute_us += execute;
    // A cache hit pays the fingerprint only; a miss (and every
    // non-SELECT) also pays parse and bind inside Execute.
    const bool parsed = stats.plan_cache_hits == 0;
    r_.exec_self_us +=
        execute - fingerprint - (parsed ? parse_self + bind : 0.0);
    if (stmt->kind == pdm::sql::StatementKind::kUpdate) {
      r_.update_us += execute;
      r_.updated_rows += out->affected_rows;
    }
    r_.rows_scanned += stats.rows_scanned;
    r_.cte_rows += stats.cte_rows_scanned;
    r_.vec_rows += stats.vec_rows_scanned;
    r_.join_rows += stats.join_probe_rows;
    r_.vec_join_rows += stats.vec_join_probe_rows;
    r_.index_scans += stats.index_scans;

    if (const int64_t root = TreeRoot(*out); root != 0) {
      t = Clock::now();
      PDM_ASSIGN_OR_RETURN(pdm::pdmsys::ProductTree tree,
                           pdm::pdmsys::AssembleFromHomogenized(*out, root));
      r_.assemble_us += UsSince(t);
      r_.assembled_nodes += tree.num_nodes();
    }
    return execute;
  }

  /// Replays the statement log in order: every statement through the
  /// engine layers, then each read-only submission unit (a standalone
  /// statement or a whole batch) through the server once more. DML and
  /// CALL run once only, so the replay walks the same state sequence as
  /// the traced phase. A workload without read-only batches has its
  /// read-only statements re-batched by four for the batch path.
  Status Statements(const std::vector<pdm::DbServer::StatementLogEntry>& log) {
    constexpr size_t kPerBatch = 4;
    bool read_only_batches = false;
    for (const auto& entry : log) {
      read_only_batches |= entry.batch_id != 0 && ReadOnly(entry.sql);
    }
    std::vector<std::string> regroup;
    double regroup_engine_us = 0;
    size_t i = 0;
    while (i < log.size()) {
      if (log[i].coalesced) {  // fan-out slot: never reached the engine
        ++i;
        continue;
      }
      size_t end = i + 1;
      if (log[i].batch_id != 0) {
        while (end < log.size() && log[end].batch_id == log[i].batch_id) ++end;
      }
      std::vector<std::string> unit;
      double engine_us = 0;
      bool read_only = true;
      for (size_t j = i; j < end; ++j) {
        pdm::ResultSet out;
        PDM_ASSIGN_OR_RETURN(double us, Engine(log[j].sql, &out));
        engine_us += us;
        unit.push_back(log[j].sql);
        read_only = read_only && ReadOnly(log[j].sql);
      }
      i = end;
      if (!read_only) continue;
      if (unit.size() > 1 || log[end - 1].batch_id != 0) {
        PDM_RETURN_NOT_OK(Batch(unit, engine_us));
        continue;
      }
      pdm::ResultSet out;
      size_t bytes = 0;
      const Clock::time_point t = Clock::now();
      PDM_RETURN_NOT_OK(server_.Execute(unit[0], &out, &bytes));
      ++r_.server_statements;
      r_.server_self_us += UsSince(t) - engine_us;
      if (!read_only_batches) {
        regroup.push_back(unit[0]);
        regroup_engine_us += engine_us;
        if (regroup.size() == kPerBatch) {
          PDM_RETURN_NOT_OK(Batch(regroup, regroup_engine_us));
          regroup.clear();
          regroup_engine_us = 0;
        }
      }
    }
    return Status::OK();
  }

  /// Regenerates the SQL of every traced action through the rules
  /// layer (builders, QueryModificator, ToSql) and times it. Also times
  /// the client-side assembly of navigational MLE trees.
  Status Rules(const std::vector<Op>& ops) {
    pdm::client::Experiment& e = deployment_->experiment();
    const Oracle& oracle = deployment_->oracle();
    pdm::rules::QueryModificator modificator(&e.rule_table(), e.user());
    const std::string& hierarchy = e.config().client.hierarchy;
    for (const Op& op : ops) {
      const bool late = op.strategy == StrategyKind::kNavigationalLate ||
                        op.strategy == StrategyKind::kBatchedLate ||
                        op.strategy == StrategyKind::kPipelinedLate;
      auto expand = [&](int64_t node, pdm::rules::RuleAction action,
                        bool early) -> Status {
        const Clock::time_point t = Clock::now();
        std::unique_ptr<pdm::sql::SelectStmt> stmt =
            pdm::rules::BuildExpandQuery(node, hierarchy);
        if (early) {
          PDM_RETURN_NOT_OK(
              modificator.ApplyToNavigationalQuery(&stmt->query, action)
                  .status());
        }
        Count(stmt->ToSql(), t);
        return Status::OK();
      };
      auto tree = [&](int64_t root, int levels,
                      pdm::rules::RuleAction action) -> Status {
        const Clock::time_point t = Clock::now();
        std::unique_ptr<pdm::sql::SelectStmt> stmt =
            pdm::rules::BuildRecursiveTreeQuery(root, levels, hierarchy);
        PDM_RETURN_NOT_OK(
            modificator.ApplyToRecursiveQuery(stmt.get(), action).status());
        Count(stmt->ToSql(), t);
        return Status::OK();
      };
      switch (op.kind) {
        case Kind::kQuery: {
          const Clock::time_point t = Clock::now();
          std::unique_ptr<pdm::sql::SelectStmt> stmt =
              pdm::rules::BuildFlatQuery();
          if (!late) {
            PDM_RETURN_NOT_OK(modificator
                                  .ApplyToNavigationalQuery(
                                      &stmt->query,
                                      pdm::rules::RuleAction::kQuery)
                                  .status());
          }
          Count(stmt->ToSql(), t);
          break;
        }
        case Kind::kExpand:
          PDM_RETURN_NOT_OK(
              expand(op.root, pdm::rules::RuleAction::kExpand, !late));
          break;
        case Kind::kMle:
          if (op.strategy == StrategyKind::kRecursive) {
            PDM_RETURN_NOT_OK(tree(op.root, op.levels,
                                   pdm::rules::RuleAction::kMultiLevelExpand));
          } else {
            // One expand per visible node, then the client's assembly.
            std::vector<std::pair<int64_t, int64_t>> order;  // (obid, parent)
            std::deque<std::pair<int64_t, int64_t>> frontier{{op.root, 0}};
            while (!frontier.empty()) {
              auto [obid, parent] = frontier.front();
              frontier.pop_front();
              order.emplace_back(obid, parent);
              PDM_RETURN_NOT_OK(
                  expand(obid, pdm::rules::RuleAction::kExpand, !late));
              for (int64_t child : oracle.Children(obid)) {
                frontier.emplace_back(child, obid);
              }
            }
            const Clock::time_point t = Clock::now();
            pdm::pdmsys::ProductTree assembled;
            std::map<int64_t, size_t> index;
            for (const auto& [obid, parent] : order) {
              std::optional<size_t> parent_index;
              if (parent != 0) parent_index = index.at(parent);
              index[obid] = assembled.AddNode(
                  obid, oracle.IsAssembly(obid) ? "assy" : "comp", "",
                  parent_index);
            }
            r_.assemble_us += UsSince(t);
            r_.assembled_nodes += assembled.num_nodes();
          }
          break;
        case Kind::kCheckout:
          for (pdm::rules::RuleAction action :
               {pdm::rules::RuleAction::kCheckOut,
                pdm::rules::RuleAction::kCheckIn}) {
            const bool out = action == pdm::rules::RuleAction::kCheckOut;
            std::map<std::string, std::vector<int64_t>> by_type;
            if (op.method == pdm::client::CheckOutMethod::kStoredProcedure) {
              continue;  // the server builds its statements itself
            }
            for (const auto& [obid, parent] : oracle.Subtree(op.root, 0)) {
              by_type[oracle.IsAssembly(obid) ? "assy" : "comp"].push_back(
                  obid);
              if (op.method == pdm::client::CheckOutMethod::kNavigational) {
                PDM_RETURN_NOT_OK(expand(obid, action, /*early=*/true));
              }
            }
            if (op.method == pdm::client::CheckOutMethod::kRecursiveBatched) {
              PDM_RETURN_NOT_OK(tree(op.root, 0, action));
            }
            for (const auto& [type, obids] : by_type) {
              if (op.method == pdm::client::CheckOutMethod::kNavigational) {
                for (int64_t obid : obids) {
                  const Clock::time_point t = Clock::now();
                  Count(pdm::rules::BuildCheckOutUpdate(type, {obid}, out)
                            ->ToSql(),
                        t);
                }
              } else {
                const Clock::time_point t = Clock::now();
                Count(pdm::rules::BuildCheckOutUpdate(type, obids, out)->ToSql(),
                      t);
              }
            }
          }
          break;
      }
    }
    return Status::OK();
  }

  const Replay& sums() const { return r_; }
  size_t distinct_fingerprints() const { return fingerprints_.size(); }

  static bool ReadOnly(const std::string& sql) {
    return sql.rfind("SELECT", 0) == 0 || sql.rfind("WITH", 0) == 0;
  }
  size_t rules_statements() const { return rules_statements_; }
  double rules_us() const { return rules_us_; }
  double rules_bytes() const { return rules_bytes_; }

 private:
  /// Times one read-only batch through DbServer::ExecuteBatch against
  /// the Database::Execute time its statements just took.
  Status Batch(const std::vector<std::string>& unit, double engine_us) {
    const Clock::time_point t = Clock::now();
    std::vector<pdm::DbServer::BatchStatementResult> results =
        server_.ExecuteBatch(unit);
    const double batch_us = UsSince(t);
    for (const auto& result : results) PDM_RETURN_NOT_OK(result.status);
    r_.batch_statements += unit.size();
    r_.batch_self_us += batch_us - engine_us;
    return Status::OK();
  }

  void Count(const std::string& sql, Clock::time_point start) {
    rules_us_ += UsSince(start);
    rules_bytes_ += static_cast<double>(sql.size());
    ++rules_statements_;
  }

  Deployment* deployment_;
  pdm::DbServer& server_;
  pdm::Database& db_;
  Replay r_;
  std::unordered_set<std::string> fingerprints_;
  size_t rules_statements_ = 0;
  double rules_us_ = 0;
  double rules_bytes_ = 0;
};

/// Admission-queue, wave and worker-pool figures.
struct ServerFigures {
  double wait_p50_ms = 0;
  double wait_p90_ms = 0;
  double waves = 0;
  double statements = 0;
  double unique_statements = 0;
  double pool_items = 0;
  double pool_busy_us = 0;
  double wall_s = 0;
};

ServerFigures ReadServerFigures(pdm::DbServer& server, double wall_s) {
  ServerFigures f;
  pdm::obs::MetricsRegistry& registry = pdm::obs::MetricsRegistry::Global();
  const pdm::obs::LogHistogram& wait = registry.log_histogram("queue.wait_seconds");
  f.wait_p50_ms = wait.Quantile(0.5) * 1000.0;
  f.wait_p90_ms = wait.Quantile(0.9) * 1000.0;
  for (const auto& wave : server.admission_queue().wave_log()) {
    f.waves += 1;
    f.statements += static_cast<double>(wave.statements);
    f.unique_statements += static_cast<double>(wave.unique_statements);
  }
  f.pool_items = static_cast<double>(registry.counter("pool.items").value());
  f.pool_busy_us =
      static_cast<double>(registry.counter("pool.busy_micros").value());
  f.wall_s = wall_s;
  return f;
}

/// Clients that bypass the admission queue leave it idle; for them the
/// captured read-only statements are re-submitted through
/// DbServer::Submit by one client, four consecutive statements per
/// submission, so every wave runs its distinct statements on the worker
/// pool. These are unloaded figures: the queue never waits for a peer.
Result<ServerFigures> SubmitReplay(
    pdm::DbServer& server,
    const std::vector<pdm::DbServer::StatementLogEntry>& log) {
  constexpr size_t kPerSubmission = 4;
  pdm::obs::MetricsRegistry::Global().ResetAll();
  server.admission_queue().ClearWaveLog();
  std::vector<std::string> unit;
  const Clock::time_point start = Clock::now();
  auto flush = [&]() -> Status {
    if (unit.empty()) return Status::OK();
    for (const auto& result : server.Submit(/*client_id=*/0, unit)) {
      PDM_RETURN_NOT_OK(result.status);
    }
    unit.clear();
    return Status::OK();
  };
  for (const auto& entry : log) {
    if (entry.coalesced) continue;
    if (!Replayer::ReadOnly(entry.sql)) continue;
    unit.push_back(entry.sql);
    if (unit.size() == kPerSubmission) PDM_RETURN_NOT_OK(flush());
  }
  PDM_RETURN_NOT_OK(flush());
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return ReadServerFigures(server, wall_s);
}

}  // namespace

Result<LayerMetrics> MeasureLayers(Deployment* deployment,
                                   const TracedRun& run) {
  pdm::DbServer& server = deployment->experiment().server();
  const Tally& traced = *run.traced;
  const double actions = static_cast<double>(traced.actions);

  // End-of-run state and live queue figures, before the replay adds to
  // either.
  double versions = 0;
  double live_rows = 0;
  for (const char* name : {pdm::pdmsys::kAssyTable, pdm::pdmsys::kCompTable,
                           pdm::pdmsys::kLinkTable}) {
    PDM_ASSIGN_OR_RETURN(pdm::Table * table,
                         server.database().catalog().GetTable(name));
    versions += static_cast<double>(table->num_versions());
    live_rows += static_cast<double>(table->num_rows());
  }
  ServerFigures queue = ReadServerFigures(server, run.traced_wall_s);
  const std::vector<pdm::DbServer::StatementLogEntry> log =
      server.statement_log();

  // Self time is a difference of nested calls on one thread, so the
  // batch path replays serially; the pool is measured by SubmitReplay.
  Replayer replayer(deployment);
  const size_t pool_threads = server.config().batch_threads;
  server.mutable_config().batch_threads = 1;
  Status replayed = replayer.Statements(log);
  server.mutable_config().batch_threads = pool_threads;
  PDM_RETURN_NOT_OK(replayed);
  PDM_RETURN_NOT_OK(replayer.Rules(traced.ops));
  if (!deployment->spec().admission_queue) {
    PDM_ASSIGN_OR_RETURN(queue, SubmitReplay(server, log));
  }
  std::printf("replayed %zu statements: %zu distinct SELECT fingerprints "
              "(plan cache capacity %zu)\n",
              replayer.sums().statements, replayer.distinct_fingerprints(),
              pdm::PlanCache::kDefaultCapacity);
  const Replay& r = replayer.sums();
  const double n = static_cast<double>(r.statements);

  const double untraced_rate =
      static_cast<double>(run.untraced->actions) / run.untraced_wall_s;
  const double traced_rate = actions / run.traced_wall_s;

  return LayerMetrics{
      {"client.self_ms_per_action",
       Ratio(traced.action_wall_s * 1e3 - run.live_server_us / 1e3, actions)},
      {"client.kept_row_share",
       Ratio(static_cast<double>(traced.visible_nodes),
             static_cast<double>(traced.transmitted_rows))},
      {"rules.rewrite_us_per_stmt",
       Ratio(replayer.rules_us(),
             static_cast<double>(replayer.rules_statements()))},
      {"rules.sql_bytes_per_stmt",
       Ratio(replayer.rules_bytes(),
             static_cast<double>(replayer.rules_statements()))},
      {"pdm.assemble_us_per_node",
       Ratio(r.assemble_us, static_cast<double>(r.assembled_nodes))},
      {"net.round_trips_per_action", Ratio(traced.round_trips, actions)},
      {"net.bytes_per_action", Ratio(traced.charged_bytes, actions)},
      {"net.hidden_s_per_action", Ratio(traced.hidden_s, actions)},
      {"server.self_us_per_stmt",
       Ratio(r.server_self_us, static_cast<double>(r.server_statements))},
      {"server.batch_self_us_per_stmt",
       Ratio(r.batch_self_us, static_cast<double>(r.batch_statements))},
      {"server.queue_wait_p50_ms", queue.wait_p50_ms},
      {"server.queue_wait_p90_ms", queue.wait_p90_ms},
      {"server.waves_per_s", Ratio(queue.waves, queue.wall_s)},
      {"server.statements_per_wave", Ratio(queue.statements, queue.waves)},
      {"server.dedup_factor",
       Ratio(queue.statements, queue.unique_statements)},
      {"server.pool_items_per_s", Ratio(queue.pool_items, queue.wall_s)},
      {"server.pool_busy_us_per_item",
       Ratio(queue.pool_busy_us, queue.pool_items)},
      {"engine.execute_us_per_stmt", Ratio(r.execute_us, n)},
      {"engine.stmts_per_action",
       Ratio(static_cast<double>(log.size()), actions)},
      {"engine.plan_cache_hit_ratio",
       Ratio(static_cast<double>(run.plan_cache_hits),
             static_cast<double>(run.plan_cache_hits + run.plan_cache_misses))},
      {"engine.update_us_per_row",
       Ratio(r.update_us, static_cast<double>(r.updated_rows))},
      {"engine.versions_per_live_row", Ratio(versions, live_rows)},
      {"sql.lex_us_per_stmt", Ratio(r.lex_us, n)},
      {"sql.fingerprint_us_per_stmt", Ratio(r.fingerprint_us, n)},
      {"sql.parse_us_per_stmt", Ratio(r.parse_self_us, n)},
      {"plan.bind_us_per_stmt",
       Ratio(r.bind_us, static_cast<double>(r.bound))},
      {"exec.self_us_per_stmt", Ratio(r.exec_self_us, n)},
      {"exec.rows_scanned_per_action",
       Ratio(static_cast<double>(r.rows_scanned), actions)},
      {"exec.cte_rows_per_action",
       Ratio(static_cast<double>(r.cte_rows), actions)},
      {"exec.vec_scan_share",
       Ratio(static_cast<double>(r.vec_rows),
             static_cast<double>(r.rows_scanned))},
      {"exec.vec_join_share",
       Ratio(static_cast<double>(r.vec_join_rows),
             static_cast<double>(r.join_rows + r.vec_join_rows))},
      {"exec.index_scans_per_stmt",
       Ratio(static_cast<double>(r.index_scans), n)},
      {"obs.trace_overhead_share", 1.0 - Ratio(traced_rate, untraced_rate)},
  };
}

}  // namespace pdmbench
