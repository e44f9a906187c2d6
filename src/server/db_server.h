#ifndef PDM_SERVER_DB_SERVER_H_
#define PDM_SERVER_DB_SERVER_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <array>

#include "common/status.h"
#include "engine/database.h"
#include "exec/result_set.h"
#include "model/cost_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/slow_query_log.h"
#include "server/worker_pool.h"

namespace pdm {

class AdmissionQueue;

/// The database server endpoint of the simulated client/server system.
/// Owns the Database, executes SQL text arriving "over the wire" and
/// sizes the serialized response.
///
/// Response sizing: with `fixed_row_bytes` > 0, every result row is
/// charged that many bytes — this mirrors the paper's "average size of a
/// node" accounting (512 B). With 0, realistic per-value wire sizes are
/// used instead (ablation).
class DbServer {
 public:
  struct Config {
    size_t fixed_row_bytes = 0;  // 0 = realistic serialization
    /// Worker threads for ExecuteBatch and read-only admission waves.
    /// 1 (default) = serial execution, identical to today's behaviour;
    /// > 1 executes the read-only statements of a batch/wave
    /// concurrently (DESIGN.md 5d).
    size_t batch_threads = 1;
    /// Maximum statements the admission queue coalesces into one
    /// execution wave (DESIGN.md 5e); 0 = unbounded. Submissions are
    /// never split across waves, so a wave always holds at least one
    /// whole submission even when it exceeds the window.
    size_t coalesce_window = 0;
    /// Ring capacity of the statement log: once full, the oldest entry
    /// is dropped per append (statement_log_dropped() counts them).
    /// 0 = unbounded (callers owning the lifecycle, e.g. short tests).
    size_t statement_log_capacity = 4096;
    /// MVCC wave lanes (DESIGN.md 5h): a wave mixing read-only and
    /// DML-carrying submissions runs the readers against the wave
    /// snapshot (dedup + worker pool, as in all-read-only waves) while
    /// a serial writer lane applies the DML submissions concurrently.
    /// false = pre-MVCC behaviour — any wave containing DML runs fully
    /// serial in admission order (the A/B baseline the concurrent-DML
    /// bench measures against). Waves containing DDL/CALL or
    /// unparseable statements always run serial regardless.
    bool mvcc_waves = true;
    /// Run MVCC version garbage collection after every N DML-carrying
    /// executions (0 = never). Every exchange that reaches the engine
    /// counts once if it carries DML: an admission wave, a direct
    /// batch or a standalone Execute() statement. GC prunes only
    /// versions no live snapshot can reach, so it never changes results.
    size_t gc_interval_waves = 64;
    /// Simulated server-cost calibration for the t_server spans
    /// (DESIGN.md 5f): every executed statement is charged simulated
    /// seconds from its ExecStats, so per-component reconciliation
    /// covers eq. (1)'s server term too.
    model::ServerCostParams server_cost;
    /// Site label this server reports under in the dimensioned metrics
    /// (DESIGN.md 5k): the paper's worldwide deployment is modeled as
    /// one server per site, so the label is per-server, not per-call.
    std::string site = "local";
    /// Slow-query log (DESIGN.md 5k): statements whose simulated OR
    /// wall cost exceeds the threshold land in a bounded ring; the K
    /// most expensive by simulated cost are kept regardless.
    /// threshold <= 0 disables the ring (top-K stays on).
    double slow_query_threshold = 0.05;
    size_t slow_query_log_capacity = 256;
    size_t slow_query_top_k = 16;
  };

  /// One executed statement, as observed at the server boundary.
  struct StatementLogEntry {
    std::string sql;
    size_t result_rows = 0;
    size_t affected_rows = 0;
    size_t response_bytes = 0;
    /// True if the statement reused a cached plan (engine/plan_cache.h).
    bool plan_cache_hit = false;
    /// Batch this statement arrived in; 0 = standalone Execute().
    uint64_t batch_id = 0;
    /// Pool worker that executed it (0 = serial / the calling thread).
    size_t worker = 0;
    /// Execution wave of the admission queue that ran this statement;
    /// 0 = the statement did not pass through the queue (DESIGN.md 5e).
    uint64_t wave_id = 0;
    /// Submitting client of a wave statement (meaningful when
    /// wave_id != 0; standalone traffic reports 0).
    uint64_t client_id = 0;
    /// True if this statement never reached the engine: its wave
    /// contained an identical statement (same fingerprint key and
    /// parameters) whose result was fanned out to this slot.
    bool coalesced = false;
    /// Engine work of this statement (0 for coalesced fan-out slots):
    /// base-table and recursive-CTE rows touched (exec/exec_context.h).
    /// `vec_rows_scanned` is the subset of `rows_scanned` swept by the
    /// vectorized engine, charged at the cheaper per-row rate.
    size_t rows_scanned = 0;
    size_t cte_rows_scanned = 0;
    size_t vec_rows_scanned = 0;
    /// Join-probe and aggregate-input rows, split by engine (disjoint
    /// pairs, see exec/exec_context.h). Trailing so the coalesced
    /// fan-out entry's aggregate-init keeps zero-defaulting them.
    size_t join_probe_rows = 0;
    size_t vec_join_probe_rows = 0;
    size_t agg_input_rows = 0;
    size_t vec_agg_input_rows = 0;

    /// The entry's engine work, shaped for model::ServerSeconds.
    model::ServerWork Work() const {
      model::ServerWork work;
      work.parsed = !plan_cache_hit;
      work.rows_scanned = rows_scanned;
      work.vec_rows_scanned = vec_rows_scanned;
      work.cte_rows_scanned = cte_rows_scanned;
      work.result_rows = result_rows;
      work.join_probe_rows = join_probe_rows;
      work.vec_join_probe_rows = vec_join_probe_rows;
      work.agg_input_rows = agg_input_rows;
      work.vec_agg_input_rows = vec_agg_input_rows;
      return work;
    }
  };

  /// Outcome of one statement of a batch. Fail-fast-per-statement: an
  /// error is recorded in its slot, sibling statements still complete.
  struct BatchStatementResult {
    Status status;
    ResultSet result;         // empty on error
    size_t response_bytes = 0;  // errors occupy a minimal frame
  };

  /// One statement of an execution wave: who submitted it, the SQL
  /// text, and the result slot to fill. Built by the AdmissionQueue
  /// when it drains submissions into a wave.
  struct WaveItem {
    uint64_t client_id = 0;
    const std::string* sql = nullptr;
    BatchStatementResult* slot = nullptr;
    /// Submitter's trace context: spans recorded while the wave leader
    /// executes this statement attach to the submitting client's action.
    obs::TraceContext trace;
    /// Index of the submission this statement belongs to within its
    /// wave. Lane assignment is per submission: one DML statement sends
    /// the whole submission to the writer lane, so its later statements
    /// read their own writes.
    size_t submission = 0;
    /// Wall seconds this statement's submission spent in the admission
    /// queue before its wave drained (reported by the slow-query log).
    double queue_wait_s = 0;
  };

  /// What ExecuteWave did with a wave, reported back to the queue's
  /// wave log.
  struct WaveExecution {
    size_t unique_statements = 0;  // engine executions after dedup
    bool read_only = false;        // dedup + worker pool eligible
    size_t dml_statements = 0;     // INSERT/UPDATE/DELETE in the wave
    /// Writer-lane statements that lost a first-writer-wins race and
    /// returned StatusCode::kWriteConflict (clients retry those).
    size_t conflicts = 0;
  };

  DbServer();
  explicit DbServer(Config config);
  ~DbServer();

  DbServer(const DbServer&) = delete;
  DbServer& operator=(const DbServer&) = delete;

  /// Executes one standalone statement arriving as SQL text (batch 0;
  /// not counted in server.batches); fills `out` and `response_bytes`
  /// (serialized size under the configured policy). The response is
  /// sized only when `response_bytes` is non-null or the statement log
  /// is on. A failing statement is not logged.
  Status Execute(std::string_view sql, ResultSet* out,
                 size_t* response_bytes);

  /// Executes the statements of one batch (a single wire round trip)
  /// and returns one result per statement, in statement order. When
  /// `Config::batch_threads > 1` and every statement is read-only
  /// (SELECT / WITH), statements run concurrently on the worker pool;
  /// batches containing DML/DDL/CALL always run serially in statement
  /// order. Results are identical across thread counts; the statement
  /// log keeps statement order and records the batch id + worker.
  std::vector<BatchStatementResult> ExecuteBatch(
      std::span<const std::string> statements);

  /// Submits one client's statements to the shared admission queue
  /// (DESIGN.md 5e) and blocks until an execution wave has produced
  /// every result. Concurrent clients' submissions coalesce into one
  /// wave; identical statements within a wave execute once and fan
  /// their result out. Thread-safe — this is the endpoint concurrent
  /// clients are expected to use; while admission traffic is in flight,
  /// do not call Execute()/ExecuteBatch() directly on this server.
  std::vector<BatchStatementResult> Submit(
      uint64_t client_id, std::span<const std::string> statements);

  /// The shared admission queue (client registration and the per-wave
  /// log live there).
  AdmissionQueue& admission_queue() { return *admission_; }

  /// Serialized size of a result set under this server's policy.
  size_t ResponseBytes(const ResultSet& result) const;

  Database& database() { return db_; }
  const Config& config() const { return config_; }
  Config& mutable_config() { return config_; }

  /// Statement logging (off by default): records every statement that
  /// arrives over the wire — the tool a DBA would use to diagnose the
  /// paper's "series of isolated SQL queries" problem. The log is a
  /// bounded ring (Config::statement_log_capacity) and every append is
  /// mutex-guarded, so serial Execute() traffic may interleave with
  /// batch/wave execution without racing or growing without bound.
  void EnableStatementLog(bool enable) { log_enabled_ = enable; }
  /// Snapshot of the log, oldest first (thread-safe copy).
  std::vector<StatementLogEntry> statement_log() const;
  size_t statement_log_size() const;
  /// Entries evicted from the ring since the last clear.
  size_t statement_log_dropped() const;
  void ClearStatementLog();

  /// Aggregate plan-cache counters of the owned Database, reported next
  /// to the statement log: hit rate here is what tells a DBA whether the
  /// client's navigational queries are reusing server-side plans.
  PlanCacheStats plan_cache_stats() const { return db_.plan_cache().stats(); }

  /// Slow-query log (DESIGN.md 5k): the over-threshold ring and the
  /// always-on top-K of the most expensive statements, with per-term
  /// breakdowns. Always on; tuned via Config::slow_query_*.
  const SlowQueryLog& slow_query_log() const { return slow_query_log_; }
  /// JSON array of the current top-K, most expensive first.
  std::string SlowQueryTopKJson() const {
    return SlowQueryRecordsToJson(slow_query_log_.TopK());
  }

  /// Resets everything observability-only — the statement log, the
  /// plan-cache hit/miss counters, the admission queue's wave log, the
  /// process-wide metrics registry and the tracer's finished spans —
  /// without touching cached plans or data. Benches and tests use this
  /// instead of rebuilding the server. Note the last two are
  /// process-wide surfaces (obs/): resetting one server resets them for
  /// every server in the process.
  void ResetObservability();

 private:
  friend class AdmissionQueue;

  /// Executes one drained wave (called by the AdmissionQueue's leader,
  /// never concurrently with itself): fingerprints every statement
  /// once, deduplicates identical fingerprints among the read-only
  /// statements (one engine execution, result fan-out) and runs the
  /// unique ones on the worker pool against the wave's MVCC snapshot.
  /// DML-carrying submissions run on a concurrent serial writer lane
  /// (Config::mvcc_waves); waves containing DDL/CALL or unparseable
  /// statements fall back to serial admission order.
  WaveExecution ExecuteWave(std::span<const WaveItem> items,
                            uint64_t wave_id);

  /// The pool is created lazily and rebuilt when batch_threads changes.
  /// WorkerPool::ParallelFor is not reentrant, so every pool use (and
  /// rebuild) happens under `pool_mutex_` — concurrent batches' parallel
  /// sections serialize against each other while their serial paths and
  /// engine work still overlap freely.
  WorkerPool& EnsurePool(size_t threads);

  /// Appends one entry under the log mutex, evicting the oldest past
  /// the ring capacity.
  void AppendLogEntry(StatementLogEntry entry);

  /// Where one statement came from: attribution for its span, its
  /// telemetry and its statement-log entry.
  struct StatementOrigin {
    /// Trace the statement's span attaches to (the submitter's action,
    /// whichever thread runs it).
    obs::TraceContext trace;
    uint64_t batch_id = 0;
    uint64_t wave_id = 0;
    uint64_t client_id = 0;
    size_t worker = 0;
    double queue_wait_s = 0;
  };

  /// The one per-statement body of Execute, ExecuteBatch and
  /// ExecuteWave: runs `sql` at `snapshot_ts` under a server:statement
  /// span, charges its simulated cost, counts it in server.statements
  /// and records its telemetry. `fingerprint` (nullable) is consumed
  /// for the plan-cache lookup when it lexed cleanly. On error `out` is
  /// cleared. The response is sized only when `response_bytes` is
  /// non-null; `log_entry` (nullable) receives the statement-log entry
  /// for the caller to append in its own order.
  Status RunStatement(std::string_view sql,
                      Result<sql::StatementFingerprint>* fingerprint,
                      uint64_t snapshot_ts, const StatementOrigin& origin,
                      ResultSet* out, size_t* response_bytes,
                      StatementLogEntry* log_entry);

  /// Post-execution GC trigger shared by every path: counts one
  /// DML-carrying execution and runs version GC every
  /// Config::gc_interval_waves of them.
  void NoteDmlExecution();

  /// Post-execution telemetry of RunStatement: observes the dimensioned
  /// statement histogram
  /// "server.statement_sim_seconds"{site, stmt_class, engine} and feeds
  /// the slow-query log.
  void RecordStatementTelemetry(std::string_view sql, const ExecStats& stats,
                                size_t result_rows, size_t response_bytes,
                                double sim_seconds, double wall_seconds,
                                const StatementOrigin& origin);

  Config config_;
  Database db_;
  bool log_enabled_ = false;
  mutable std::mutex log_mutex_;
  std::deque<StatementLogEntry> statement_log_;
  size_t statement_log_dropped_ = 0;
  std::atomic<uint64_t> last_batch_id_{0};
  std::atomic<uint64_t> dml_executions_since_gc_{0};
  std::mutex pool_mutex_;
  std::unique_ptr<WorkerPool> pool_;
  std::unique_ptr<AdmissionQueue> admission_;
  SlowQueryLog slow_query_log_;
  /// Per-(stmt_class × engine) cache of the labeled statement-histogram
  /// pointers (site is fixed per server). Registry instruments are
  /// never evicted, so a benign racing fill stores the same pointer.
  std::array<std::atomic<obs::LogHistogram*>, 12> stmt_histograms_{};
};

}  // namespace pdm

#endif  // PDM_SERVER_DB_SERVER_H_
