#include "client/strategies.h"

#include <chrono>
#include <deque>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rules/query_builder.h"
#include "rules/query_modificator.h"

namespace pdm::client {

using rules::QueryModificator;
using rules::RuleAction;

namespace {

/// RAII wall timer for one user action: on destruction observes
/// "client.action_seconds"{site, strategy, action} — the end-to-end
/// response time the paper's tables report, as a dimensioned quantile
/// histogram (DESIGN.md 5k).
class ActionTimer {
 public:
  ActionTimer(const ClientConfig& config, std::string_view strategy,
              std::string_view action)
      : hist_(obs::MetricsRegistry::Global().log_histogram(
            "client.action_seconds",
            {{"site", config.site.empty() ? "local" : config.site},
             {"strategy", std::string(strategy)},
             {"action", std::string(action)}})),
        start_(std::chrono::steady_clock::now()) {}

  ActionTimer(const ActionTimer&) = delete;
  ActionTimer& operator=(const ActionTimer&) = delete;

  ~ActionTimer() {
    hist_.Observe(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
  }

 private:
  obs::LogHistogram& hist_;
  std::chrono::steady_clock::time_point start_;
};

/// The expand statement for one node. The navigational and
/// level-batched clients both render through here, so their wire
/// traffic can never drift apart.
Result<std::string> RenderExpandSql(const rules::RuleTable* rules,
                                    const pdmsys::UserContext& user,
                                    const ClientConfig& config, bool early,
                                    int64_t node) {
  std::unique_ptr<sql::SelectStmt> stmt =
      rules::BuildExpandQuery(node, config.hierarchy);
  if (early) {
    QueryModificator modificator(rules, user);
    PDM_RETURN_NOT_OK(modificator
                          .ApplyToNavigationalQuery(&stmt->query,
                                                    RuleAction::kExpand)
                          .status());
  }
  return stmt->ToSql();
}

}  // namespace

AccessStrategy::AccessStrategy(Connection* conn,
                               const rules::RuleTable* rules,
                               pdmsys::UserContext user, ClientConfig config)
    : conn_(conn),
      rules_(rules),
      user_(std::move(user)),
      config_(config),
      evaluator_(rules, user_) {}

size_t HomogenizedResponseBytes(const ResultSet& result,
                                const ClientConfig& config) {
  // Pure link rows (type = 'link', as in the recursive result's second
  // UNION branch) carry structure info only; object rows — including
  // expand-result rows that have their link attributes inlined — are
  // charged the per-node size.
  std::optional<size_t> type_col = result.schema.FindColumn("type");
  size_t object_rows = 0;
  size_t link_rows = 0;
  for (const Row& row : result.rows) {
    if (type_col.has_value() && row[*type_col].is_string() &&
        row[*type_col].string_value() == "link") {
      ++link_rows;
    } else {
      ++object_rows;
    }
  }
  size_t bytes = object_rows * config.node_bytes;
  if (config.charge_link_rows) bytes += link_rows * config.node_bytes;
  return bytes == 0 ? 64 : bytes;
}

size_t AccessStrategy::SizeHomogenizedResponse(const ResultSet& result) const {
  return HomogenizedResponseBytes(result, config_);
}

// --- NavigationalStrategy ------------------------------------------------------

Result<ResultSet> NavigationalStrategy::ExpandOnce(
    int64_t node, PreparedRowFilter* late_filter, size_t* transmitted_rows) {
  PDM_ASSIGN_OR_RETURN(std::string sql,
                       RenderExpandSql(rules_, user_, config_, early_, node));
  ResultSet rows;
  PDM_RETURN_NOT_OK(conn_->Execute(
      sql, &rows,
      [this](const ResultSet& r) { return SizeHomogenizedResponse(r); }));
  if (transmitted_rows != nullptr) *transmitted_rows += rows.num_rows();

  if (!early_ && late_filter != nullptr) {
    // Late evaluation: the rows crossed the WAN; filter at the client.
    ResultSet kept;
    kept.schema = rows.schema;
    kept.rows.reserve(rows.rows.size());
    for (Row& row : rows.rows) {
      PDM_ASSIGN_OR_RETURN(bool pass, late_filter->Passes(row));
      if (pass) kept.rows.push_back(std::move(row));
    }
    return kept;
  }
  return rows;
}

Result<ActionResult> NavigationalStrategy::QueryAll() {
  obs::ScopedSpan action_span("action:navigational/query", obs::ModelTerm::kNone);
  ActionTimer action_timer(config_, name(), "query");
  conn_->ResetStats();
  ActionResult out;

  std::unique_ptr<sql::SelectStmt> stmt = rules::BuildFlatQuery();
  if (early_) {
    QueryModificator modificator(rules_, user_);
    PDM_RETURN_NOT_OK(modificator
                          .ApplyToNavigationalQuery(&stmt->query,
                                                    RuleAction::kQuery)
                          .status());
  }
  ResultSet rows;
  PDM_RETURN_NOT_OK(conn_->Execute(
      stmt->ToSql(), &rows,
      [this](const ResultSet& r) { return SizeHomogenizedResponse(r); }));
  out.transmitted_rows = rows.num_rows();

  if (early_) {
    out.visible_nodes = rows.num_rows();
  } else {
    PDM_ASSIGN_OR_RETURN(std::unique_ptr<PreparedRowFilter> filter,
                         evaluator_.Prepare(rows.schema, RuleAction::kQuery));
    for (const Row& row : rows.rows) {
      PDM_ASSIGN_OR_RETURN(bool pass, filter->Passes(row));
      if (pass) out.visible_nodes++;
    }
  }
  out.wan = conn_->stats();
  return out;
}

Result<ActionResult> NavigationalStrategy::SingleLevelExpand(int64_t node) {
  obs::ScopedSpan action_span("action:navigational/sle", obs::ModelTerm::kNone);
  ActionTimer action_timer(config_, name(), "sle");
  conn_->ResetStats();
  ActionResult out;

  std::unique_ptr<PreparedRowFilter> filter;
  if (!early_) {
    // The expand result schema is fixed; prepare against a probe result.
    std::unique_ptr<sql::SelectStmt> probe =
        rules::BuildExpandQuery(node, config_.hierarchy);
    ResultSet rows;
    ExecStats probe_stats;  // private stats: probes may run concurrently
    PDM_RETURN_NOT_OK(conn_->server().database().Execute(probe->ToSql(),
                                                         &rows,
                                                         &probe_stats));
    conn_->ResetStats();  // the probe ran locally, not over the WAN
    PDM_ASSIGN_OR_RETURN(filter,
                         evaluator_.Prepare(rows.schema, RuleAction::kExpand));
  }
  size_t transmitted = 0;
  PDM_ASSIGN_OR_RETURN(ResultSet kept,
                       ExpandOnce(node, filter.get(), &transmitted));
  out.transmitted_rows = transmitted;
  out.visible_nodes = kept.num_rows();
  out.wan = conn_->stats();
  return out;
}

Result<ActionResult> NavigationalStrategy::MultiLevelExpand(int64_t root) {
  obs::ScopedSpan action_span("action:navigational/mle", obs::ModelTerm::kNone);
  ActionTimer action_timer(config_, name(), "mle");
  conn_->ResetStats();
  ActionResult out;

  // The root object is already at the client (paper footnote 4).
  size_t root_index = out.tree.AddNode(root, "assy", "", std::nullopt);

  std::unique_ptr<PreparedRowFilter> filter;
  ResultSet kept_nodes;  // homogenized rows kept, for tree conditions
  bool filter_ready = false;

  std::deque<std::pair<int64_t, size_t>> frontier;  // (obid, tree index)
  frontier.emplace_back(root, root_index);
  while (!frontier.empty()) {
    auto [obid, index] = frontier.front();
    frontier.pop_front();

    if (!early_ && !filter_ready) {
      // Prepare the late filter from the first response's schema.
      std::unique_ptr<sql::SelectStmt> probe =
          rules::BuildExpandQuery(obid, config_.hierarchy);
      ResultSet rows;
      ExecStats probe_stats;  // private stats: probes may run concurrently
      PDM_RETURN_NOT_OK(conn_->server().database().Execute(
          probe->ToSql(), &rows, &probe_stats));
      PDM_ASSIGN_OR_RETURN(filter,
                           evaluator_.Prepare(rows.schema,
                                              RuleAction::kMultiLevelExpand));
      filter_ready = true;
    }

    PDM_ASSIGN_OR_RETURN(
        ResultSet children,
        ExpandOnce(obid, filter.get(), &out.transmitted_rows));
    if (kept_nodes.schema.num_columns() == 0) {
      kept_nodes.schema = children.schema;
    }
    std::optional<size_t> obid_col = children.schema.FindColumn("obid");
    std::optional<size_t> type_col = children.schema.FindColumn("type");
    std::optional<size_t> name_col = children.schema.FindColumn("name");
    kept_nodes.rows.reserve(kept_nodes.rows.size() + children.rows.size());
    for (Row& row : children.rows) {
      int64_t child_obid = row[*obid_col].int64_value();
      size_t child_index =
          out.tree.AddNode(child_obid, row[*type_col].ToString(),
                           row[*name_col].ToString(), index);
      frontier.emplace_back(child_obid, child_index);
      kept_nodes.rows.push_back(std::move(row));
    }
  }

  // Tree conditions are evaluated at the client in both navigational
  // modes (they cannot be compiled into per-node queries, Section 4.1).
  PDM_ASSIGN_OR_RETURN(
      bool tree_ok,
      evaluator_.TreeConditionsPass(kept_nodes,
                                    RuleAction::kMultiLevelExpand));
  if (!tree_ok) out.tree = pdmsys::ProductTree();  // all-or-nothing

  out.visible_nodes =
      out.tree.num_nodes() > 0 ? out.tree.num_nodes() - 1 : 0;
  out.wan = conn_->stats();
  return out;
}

// --- LevelBatchedStrategy -------------------------------------------------------

Result<ActionResult> LevelBatchedStrategy::QueryAll() {
  NavigationalStrategy nav(conn_, rules_, user_, config_, early_);
  return nav.QueryAll();
}

Result<ActionResult> LevelBatchedStrategy::SingleLevelExpand(int64_t node) {
  NavigationalStrategy nav(conn_, rules_, user_, config_, early_);
  return nav.SingleLevelExpand(node);
}

Result<ActionResult> LevelBatchedStrategy::MultiLevelExpand(int64_t root) {
  obs::ScopedSpan action_span(
      overlap_ ? "action:pipelined/mle" : "action:batched/mle",
      obs::ModelTerm::kNone);
  ActionTimer action_timer(config_, name(), "mle");
  conn_->ResetStats();
  ActionResult out;

  // The root object is already at the client (paper footnote 4).
  size_t root_index = out.tree.AddNode(root, "assy", "", std::nullopt);

  std::unique_ptr<PreparedRowFilter> filter;
  if (!early_) {
    // Prepare the late filter from a local probe of the fixed expand
    // schema, exactly as the navigational client does (no WAN traffic).
    std::unique_ptr<sql::SelectStmt> probe =
        rules::BuildExpandQuery(root, config_.hierarchy);
    ResultSet rows;
    ExecStats probe_stats;  // private stats: probes may run concurrently
    PDM_RETURN_NOT_OK(conn_->server().database().Execute(
        probe->ToSql(), &rows, &probe_stats));
    PDM_ASSIGN_OR_RETURN(
        filter,
        evaluator_.Prepare(rows.schema, RuleAction::kMultiLevelExpand));
  }

  const Connection::ResponseSizer sizer = [this](const ResultSet& r) {
    return SizeHomogenizedResponse(r);
  };

  ResultSet kept_nodes;  // homogenized rows kept, for tree conditions

  // Breadth-first by construction: one batch ships all expand queries
  // of one tree level. With `overlap_` each level's batch is issued
  // *speculatively* against the previous response stream: filtering
  // needs only row values, which are decodable from the prefix, so the
  // next request can leave before the previous transfer finishes. Tree
  // assembly (phase C) then runs on the fully received level in
  // statement order, keeping the AddNode sequence — and hence the
  // tree — byte-identical to the navigational FIFO traversal.
  std::vector<size_t> parent_index{root_index};  // tree index per statement
  Connection::PendingBatch pending;
  {
    PDM_ASSIGN_OR_RETURN(
        std::string sql, RenderExpandSql(rules_, user_, config_, early_, root));
    std::vector<std::string> statements;
    statements.push_back(std::move(sql));
    pending = conn_->ExecuteBatchPipelined(std::move(statements),
                                           /*overlap_previous=*/false);
  }

  while (pending.valid()) {
    std::vector<Result<ResultSet>> responses;
    pending.Collect(&responses, sizer);

    // Phase A: decode and (when late) filter every OK slot. Error slots
    // keep an empty row set here; the error itself is raised in phase
    // C, after the next level is issued — exactly where a real
    // pipelined client would discover it.
    std::vector<ResultSet> kept(responses.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      if (!responses[i].ok()) continue;
      ResultSet rows = std::move(*responses[i]);
      out.transmitted_rows += rows.num_rows();
      if (!early_ && filter != nullptr) {
        ResultSet filtered;
        filtered.schema = rows.schema;
        filtered.rows.reserve(rows.rows.size());
        for (Row& row : rows.rows) {
          PDM_ASSIGN_OR_RETURN(bool pass, filter->Passes(row));
          if (pass) filtered.rows.push_back(std::move(row));
        }
        rows = std::move(filtered);
      }
      kept[i] = std::move(rows);
    }

    // Phase B: render and issue the next level before touching the
    // tree. Statement order is kept-row order across slots, which is
    // the frontier order of a breadth-first traversal.
    std::vector<std::string> next_statements;
    for (const ResultSet& rows : kept) {
      std::optional<size_t> obid_col = rows.schema.FindColumn("obid");
      if (!obid_col.has_value()) continue;
      for (const Row& row : rows.rows) {
        PDM_ASSIGN_OR_RETURN(
            std::string sql,
            RenderExpandSql(rules_, user_, config_, early_,
                            row[*obid_col].int64_value()));
        next_statements.push_back(std::move(sql));
      }
    }
    Connection::PendingBatch next =
        conn_->ExecuteBatchPipelined(std::move(next_statements), overlap_);

    // Phase C: fail-fast and assembly. An error here abandons `next` to
    // its destructor, which aborts the exchange unaccounted: overlapped
    // server work is drained, a sequential level never reaches the
    // server at all.
    std::vector<size_t> next_parent_index;
    for (size_t i = 0; i < responses.size(); ++i) {
      PDM_RETURN_NOT_OK(responses[i].status());
      ResultSet& rows = kept[i];
      if (kept_nodes.schema.num_columns() == 0) {
        kept_nodes.schema = rows.schema;
      }
      std::optional<size_t> obid_col = rows.schema.FindColumn("obid");
      std::optional<size_t> type_col = rows.schema.FindColumn("type");
      std::optional<size_t> name_col = rows.schema.FindColumn("name");
      kept_nodes.rows.reserve(kept_nodes.rows.size() + rows.rows.size());
      for (Row& row : rows.rows) {
        int64_t child_obid = row[*obid_col].int64_value();
        size_t child_index =
            out.tree.AddNode(child_obid, row[*type_col].ToString(),
                             row[*name_col].ToString(), parent_index[i]);
        next_parent_index.push_back(child_index);
        kept_nodes.rows.push_back(std::move(row));
      }
    }
    parent_index = std::move(next_parent_index);
    pending = std::move(next);
  }

  // Tree conditions are evaluated at the client, as in both
  // navigational modes (Section 4.1).
  PDM_ASSIGN_OR_RETURN(
      bool tree_ok,
      evaluator_.TreeConditionsPass(kept_nodes,
                                    RuleAction::kMultiLevelExpand));
  if (!tree_ok) out.tree = pdmsys::ProductTree();  // all-or-nothing

  out.visible_nodes =
      out.tree.num_nodes() > 0 ? out.tree.num_nodes() - 1 : 0;
  out.wan = conn_->stats();
  return out;
}

// --- RecursiveStrategy ----------------------------------------------------------

Result<ActionResult> RecursiveStrategy::QueryAll() {
  // A flat query is a single statement already; Approach 2 simply keeps
  // the early rule evaluation of Approach 1 for it.
  NavigationalStrategy early(conn_, rules_, user_, config_,
                             /*early_evaluation=*/true);
  return early.QueryAll();
}

Result<ActionResult> RecursiveStrategy::SingleLevelExpand(int64_t node) {
  NavigationalStrategy early(conn_, rules_, user_, config_,
                             /*early_evaluation=*/true);
  return early.SingleLevelExpand(node);
}

Result<ActionResult> RecursiveStrategy::MultiLevelExpand(int64_t root) {
  return RunTreeQuery(root, /*max_depth=*/0);
}

Result<ActionResult> RecursiveStrategy::PartialExpand(int64_t root,
                                                      int levels) {
  if (levels < 1) {
    return Status::InvalidArgument("partial expand needs >= 1 level");
  }
  return RunTreeQuery(root, levels);
}

Result<ActionResult> RecursiveStrategy::RunTreeQuery(int64_t root,
                                                     int max_depth) {
  obs::ScopedSpan action_span("action:recursive/tree", obs::ModelTerm::kNone);
  ActionTimer action_timer(config_, name(), "tree");
  conn_->ResetStats();
  ActionResult out;

  std::unique_ptr<sql::SelectStmt> stmt =
      rules::BuildRecursiveTreeQuery(root, max_depth, config_.hierarchy);
  QueryModificator modificator(rules_, user_);
  PDM_RETURN_NOT_OK(
      modificator
          .ApplyToRecursiveQuery(stmt.get(), RuleAction::kMultiLevelExpand)
          .status());

  ResultSet result;
  PDM_RETURN_NOT_OK(conn_->Execute(
      stmt->ToSql(), &result,
      [this](const ResultSet& r) { return SizeHomogenizedResponse(r); }));

  PDM_ASSIGN_OR_RETURN(out.tree,
                       pdmsys::AssembleFromHomogenized(result, root));
  out.transmitted_rows = result.num_rows();
  out.visible_nodes =
      out.tree.num_nodes() > 0 ? out.tree.num_nodes() - 1 : 0;
  out.wan = conn_->stats();
  return out;
}

}  // namespace pdm::client
