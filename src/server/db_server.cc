#include "server/db_server.h"

#include <cctype>
#include <chrono>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "server/admission_queue.h"
#include "sql/fingerprint.h"

namespace pdm {

namespace {

/// Lane classification of one wave statement (DESIGN.md 5h).
enum class StatementClass {
  kReadOnly,  // SELECT / WITH: wave snapshot, dedup, worker pool
  kDml,       // INSERT / UPDATE / DELETE: serial writer lane
  kBarrier,   // DDL / CALL / EXPLAIN / unparseable: whole wave serial
};

/// True if the statement's first keyword is INSERT, UPDATE or DELETE.
bool IsDmlText(std::string_view sql) {
  size_t begin = 0;
  while (begin < sql.size() &&
         std::isspace(static_cast<unsigned char>(sql[begin]))) {
    ++begin;
  }
  size_t end = begin;
  while (end < sql.size() &&
         std::isalpha(static_cast<unsigned char>(sql[end]))) {
    ++end;
  }
  std::string word = ToLowerAscii(sql.substr(begin, end - begin));
  return word == "insert" || word == "update" || word == "delete";
}

StatementClass ClassifyStatement(const Result<sql::StatementFingerprint>& fp,
                                 const std::string& sql) {
  if (fp.ok() && fp->cacheable) return StatementClass::kReadOnly;
  // The first keyword separates DML from barriers; anything
  // unrecognized (DDL, CALL, EXPLAIN, lexical errors) is a barrier.
  return IsDmlText(sql) ? StatementClass::kDml : StatementClass::kBarrier;
}

/// Dedup identity of a statement within a wave: the normalized
/// fingerprint key plus the type-tagged parameter values. Two
/// statements with equal group keys are the same query with the same
/// literals — one execution serves both (DESIGN.md 5e).
std::string WaveGroupKey(const sql::StatementFingerprint& fp) {
  std::string key = fp.key;
  for (const Value& param : fp.params) {
    key += '\x1f';
    key += ValueKindName(param.kind());
    key += ':';
    key += param.ToString();
  }
  return key;
}

/// Process-wide statement counter — every execution path (serial,
/// batch, wave) funnels through it, so it is the one number to watch
/// for "how much SQL hit the engine".
obs::Counter& ServerStatementCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("server.statements");
  return c;
}

/// Slot of the per-server labeled-histogram cache for a (stmt_class,
/// engine) pair. Class order: dml, expand, agg, join, point, scan.
size_t StmtHistogramSlot(std::string_view stmt_class, std::string_view engine) {
  size_t c = 5;  // scan
  if (stmt_class == "dml") c = 0;
  else if (stmt_class == "expand") c = 1;
  else if (stmt_class == "agg") c = 2;
  else if (stmt_class == "join") c = 3;
  else if (stmt_class == "point") c = 4;
  return c * 2 + (engine == "vec" ? 1 : 0);
}

/// Wall seconds since `start` on the steady clock.
double WallSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One statement's engine work, shaped for model::ServerSeconds.
model::ServerWork WorkOf(const ExecStats& stats, size_t result_rows) {
  model::ServerWork work;
  work.parsed = stats.plan_cache_hits == 0;
  work.rows_scanned = stats.rows_scanned;
  work.vec_rows_scanned = stats.vec_rows_scanned;
  work.cte_rows_scanned = stats.cte_rows_scanned;
  work.result_rows = result_rows;
  work.join_probe_rows = stats.join_probe_rows;
  work.vec_join_probe_rows = stats.vec_join_probe_rows;
  work.agg_input_rows = stats.agg_input_rows;
  work.vec_agg_input_rows = stats.vec_agg_input_rows;
  return work;
}

}  // namespace

DbServer::DbServer() : DbServer(Config{}) {}

DbServer::DbServer(Config config)
    : config_(std::move(config)),
      admission_(std::make_unique<AdmissionQueue>(this)) {
  // Eager-register the ring drop counters so the exporter surfaces
  // them at zero before anything is dropped — a dashboard that only
  // shows a drop counter once data is already lost is late.
  obs::MetricsRegistry::Global().counter("server.statement_log_dropped");
  obs::MetricsRegistry::Global().counter("server.slow_query_log_dropped");
}

DbServer::~DbServer() = default;

Status DbServer::RunStatement(std::string_view sql,
                              Result<sql::StatementFingerprint>* fingerprint,
                              uint64_t snapshot_ts,
                              const StatementOrigin& origin, ResultSet* out,
                              size_t* response_bytes,
                              StatementLogEntry* log_entry) {
  // Per-call stats: last_stats() is a serial-only concept and must not
  // be used for attribution when serial, batch and wave traffic
  // interleave.
  ExecStats stats;
  Status status;
  double sim = 0;
  double wall = 0;
  {
    // Whoever runs the statement (caller, pool worker, wave leader),
    // its span belongs to the submitter's action.
    obs::ContextScope ctx_scope(origin.trace);
    obs::ScopedSpan span("server:statement", obs::ModelTerm::kServer);
    const auto wall_start = std::chrono::steady_clock::now();
    if (fingerprint != nullptr && fingerprint->ok()) {
      status = db_.ExecuteFingerprinted(std::move(**fingerprint), out, &stats,
                                        snapshot_ts);
    } else {
      // No fingerprint, or a lexical error: the text path (which
      // reports the diagnostics).
      status = db_.Execute(sql, out, &stats, snapshot_ts);
    }
    wall = WallSince(wall_start);
    sim = model::ServerSeconds(config_.server_cost,
                               WorkOf(stats, out->num_rows()));
    span.set_sim_seconds(sim);
  }
  ServerStatementCounter().Increment();
  if (!status.ok()) *out = ResultSet();
  // Sizing walks every result row; skip it when nobody consumes it.
  size_t bytes = 0;
  if (response_bytes != nullptr) {
    bytes = ResponseBytes(*out);
    *response_bytes = bytes;
  }
  RecordStatementTelemetry(sql, stats, out->num_rows(), bytes, sim, wall,
                           origin);
  if (log_entry != nullptr) {
    *log_entry = StatementLogEntry{
        std::string(sql), out->num_rows(), out->affected_rows, bytes,
        stats.plan_cache_hits > 0, origin.batch_id, origin.worker,
        origin.wave_id, origin.client_id, /*coalesced=*/false,
        stats.rows_scanned, stats.cte_rows_scanned, stats.vec_rows_scanned,
        stats.join_probe_rows, stats.vec_join_probe_rows,
        stats.agg_input_rows, stats.vec_agg_input_rows};
  }
  return status;
}

void DbServer::NoteDmlExecution() {
  // Runs after the execution's snapshot is released: prunes versions
  // no live snapshot can reach (concurrent snapshots make the pass
  // defer harmlessly).
  if (config_.gc_interval_waves > 0 &&
      dml_executions_since_gc_.fetch_add(1, std::memory_order_relaxed) + 1 >=
          config_.gc_interval_waves) {
    dml_executions_since_gc_.store(0, std::memory_order_relaxed);
    db_.GarbageCollectVersions();
  }
}

Status DbServer::Execute(std::string_view sql, ResultSet* out,
                         size_t* response_bytes) {
  ResultSet scratch;
  if (out == nullptr) out = &scratch;
  StatementOrigin origin;
  origin.trace = obs::CurrentContext();
  size_t bytes = 0;
  StatementLogEntry entry;
  Status status = RunStatement(
      sql, /*fingerprint=*/nullptr, Database::kLatestSnapshot, origin, out,
      response_bytes != nullptr || log_enabled_ ? &bytes : nullptr,
      log_enabled_ ? &entry : nullptr);
  if (IsDmlText(sql)) NoteDmlExecution();
  PDM_RETURN_NOT_OK(status);
  if (response_bytes != nullptr) *response_bytes = bytes;
  if (log_enabled_) AppendLogEntry(std::move(entry));
  return Status::OK();
}

std::vector<DbServer::BatchStatementResult> DbServer::ExecuteBatch(
    std::span<const std::string> statements) {
  StatementOrigin origin;
  origin.batch_id = last_batch_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  // A batch is one client action: every statement span — whichever pool
  // worker runs it — attaches to the submitting thread's trace.
  origin.trace = obs::CurrentContext();
  std::vector<BatchStatementResult> results(statements.size());
  std::vector<StatementLogEntry> entries;
  if (log_enabled_) entries.resize(statements.size());

  // Fingerprint every statement exactly once: the fingerprint answers
  // the read-only classification here and is then consumed by
  // ExecuteFingerprinted for the plan-cache lookup — no second lex.
  std::vector<Result<sql::StatementFingerprint>> fingerprints;
  fingerprints.reserve(statements.size());
  bool read_only = true;
  bool has_dml = false;
  for (const std::string& sql : statements) {
    fingerprints.push_back(sql::FingerprintSql(sql));
    const StatementClass cls = ClassifyStatement(fingerprints.back(), sql);
    read_only = read_only && cls == StatementClass::kReadOnly;
    has_dml = has_dml || cls == StatementClass::kDml;
  }

  // Parallel execution is only safe for all-read-only batches; a batch
  // containing DML/DDL/CALL runs serially in statement order.
  size_t threads = config_.batch_threads == 0 ? 1 : config_.batch_threads;
  if (!read_only) threads = 1;

  auto run_one = [&](size_t i, size_t worker) {
    StatementOrigin o = origin;
    o.worker = worker;
    BatchStatementResult& r = results[i];
    r.status = RunStatement(statements[i], &fingerprints[i],
                            Database::kLatestSnapshot, o, &r.result,
                            &r.response_bytes,
                            log_enabled_ ? &entries[i] : nullptr);
  };

  if (threads <= 1) {
    for (size_t i = 0; i < statements.size(); ++i) run_one(i, 0);
  } else {
    // ParallelFor is not reentrant and the pool may be rebuilt when
    // batch_threads changes: concurrent batches serialize their
    // parallel sections here (engine-level read concurrency is what the
    // pool provides; batch-level overlap comes from the serial paths).
    std::lock_guard<std::mutex> pool_lock(pool_mutex_);
    EnsurePool(threads).ParallelFor(statements.size(), run_one);
  }

  obs::MetricsRegistry::Global().counter("server.batches").Increment();
  // Append log entries in statement order regardless of which worker ran
  // what, keeping the log deterministic across thread counts.
  for (StatementLogEntry& e : entries) {
    AppendLogEntry(std::move(e));
  }
  if (has_dml) NoteDmlExecution();
  return results;
}

std::vector<DbServer::BatchStatementResult> DbServer::Submit(
    uint64_t client_id, std::span<const std::string> statements) {
  return admission_->Submit(client_id, statements);
}

DbServer::WaveExecution DbServer::ExecuteWave(
    std::span<const WaveItem> items, uint64_t wave_id) {
  WaveExecution execution;
  const size_t n = items.size();

  // One fingerprint per statement, reused for the lane classification,
  // the dedup grouping, and (inside ExecuteFingerprinted) the
  // plan-cache lookup.
  std::vector<Result<sql::StatementFingerprint>> fingerprints;
  fingerprints.reserve(n);
  std::vector<StatementClass> classes;
  classes.reserve(n);
  bool read_only = true;
  bool has_barrier = false;
  size_t dml_count = 0;
  for (const WaveItem& item : items) {
    fingerprints.push_back(sql::FingerprintSql(*item.sql));
    classes.push_back(ClassifyStatement(fingerprints.back(), *item.sql));
    switch (classes.back()) {
      case StatementClass::kReadOnly:
        break;
      case StatementClass::kDml:
        read_only = false;
        ++dml_count;
        break;
      case StatementClass::kBarrier:
        read_only = false;
        has_barrier = true;
        break;
    }
  }
  execution.read_only = read_only;
  execution.dml_statements = dml_count;

  std::vector<StatementLogEntry> entries;
  if (log_enabled_) entries.resize(n);

  std::atomic<size_t> conflicts{0};

  auto run_one = [&](size_t i, size_t worker, uint64_t snapshot_ts) {
    // The leader (or a pool worker) may be executing another client's
    // statement: charge the span to the submitter's trace, not ours.
    StatementOrigin origin;
    origin.trace = items[i].trace;
    origin.wave_id = wave_id;
    origin.client_id = items[i].client_id;
    origin.worker = worker;
    origin.queue_wait_s = items[i].queue_wait_s;
    BatchStatementResult& r = *items[i].slot;
    r.status = RunStatement(*items[i].sql, &fingerprints[i], snapshot_ts,
                            origin, &r.result, &r.response_bytes,
                            log_enabled_ ? &entries[i] : nullptr);
    if (IsRetryableConflict(r.status.code())) {
      conflicts.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // Dedups and executes a set of read-only statements against one
  // snapshot: identical fingerprints execute once (the first occurrence
  // is the representative), unique ones go to the worker pool.
  auto run_read_only = [&](const std::vector<size_t>& ro,
                           uint64_t snapshot_ts) {
    if (ro.empty()) return;
    std::unordered_map<std::string, size_t> groups;
    std::vector<size_t> rep_of(n);
    std::vector<size_t> reps;
    groups.reserve(ro.size());
    for (size_t i : ro) {
      auto [it, inserted] =
          groups.try_emplace(WaveGroupKey(*fingerprints[i]), i);
      if (inserted) reps.push_back(i);
      rep_of[i] = it->second;
    }
    execution.unique_statements += reps.size();

    size_t threads = config_.batch_threads == 0 ? 1 : config_.batch_threads;
    auto run_rep = [&](size_t r, size_t worker) {
      run_one(reps[r], worker, snapshot_ts);
    };
    if (threads <= 1 || reps.size() <= 1) {
      for (size_t r = 0; r < reps.size(); ++r) run_rep(r, 0);
    } else {
      // Same non-reentrancy rule as the batch path: only one parallel
      // section may drive the pool at a time (waves never race each
      // other, but async direct batches may be in flight too).
      std::lock_guard<std::mutex> pool_lock(pool_mutex_);
      EnsurePool(threads).ParallelFor(reps.size(), run_rep);
    }

    // Fan-out: duplicates copy the representative's outcome. Identical
    // fingerprints are the same query with the same literals evaluated
    // at the same snapshot, so this is byte-identical to executing each
    // copy.
    static obs::Counter& coalesced_counter =
        obs::MetricsRegistry::Global().counter("server.coalesced_statements");
    for (size_t i : ro) {
      if (rep_of[i] == i) continue;
      coalesced_counter.Increment();
      const BatchStatementResult& rep = *items[rep_of[i]].slot;
      BatchStatementResult& r = *items[i].slot;
      r.status = rep.status;
      r.result = rep.result;
      r.response_bytes = rep.response_bytes;
      if (log_enabled_) {
        entries[i] = StatementLogEntry{
            *items[i].sql, r.result.num_rows(), r.result.affected_rows,
            r.response_bytes, /*plan_cache_hit=*/false, /*batch_id=*/0,
            /*worker=*/0, wave_id, items[i].client_id, /*coalesced=*/true};
      }
    }
  };

  if (read_only) {
    // All-read-only wave: one snapshot for the whole wave, so every
    // statement — whichever client submitted it — sees the same data
    // even if standalone writers commit mid-wave.
    Database::Snapshot snapshot = db_.AcquireSnapshot();
    std::vector<size_t> all(n);
    std::iota(all.begin(), all.end(), size_t{0});
    run_read_only(all, snapshot.ts());
  } else if (has_barrier || !config_.mvcc_waves) {
    // Barrier wave (DDL/CALL/unparseable) or MVCC lanes disabled:
    // serial admission order, no deduplication (two identical INSERTs
    // are two inserts), every statement at the latest snapshot.
    for (size_t i = 0; i < n; ++i) run_one(i, 0, Database::kLatestSnapshot);
    execution.unique_statements = n;
  } else {
    // Mixed read/DML wave (the tuning-paper bottleneck this layer
    // removes): submissions carrying DML run whole — reads included, so
    // they see their own writes — on one serial writer lane, while
    // read-only submissions run concurrently against the wave snapshot.
    // Readers never see this wave's writes; writers conflict under
    // first-writer-wins and surface kWriteConflict for client retry.
    size_t num_subs = 0;
    for (const WaveItem& item : items) {
      num_subs = std::max(num_subs, item.submission + 1);
    }
    std::vector<char> sub_has_dml(num_subs, 0);
    for (size_t i = 0; i < n; ++i) {
      if (classes[i] == StatementClass::kDml) {
        sub_has_dml[items[i].submission] = 1;
      }
    }
    std::vector<size_t> readers;
    std::vector<size_t> writers;
    for (size_t i = 0; i < n; ++i) {
      (sub_has_dml[items[i].submission] ? writers : readers).push_back(i);
    }

    Database::Snapshot snapshot = db_.AcquireSnapshot();
    const uint64_t wave_ts = snapshot.ts();
    std::thread writer_lane([&] {
      // Each submission starts at the wave snapshot; its own commits
      // advance its view (read-your-writes) without exposing sibling
      // submissions' writes admitted later in the same wave.
      uint64_t sub_ts = wave_ts;
      size_t current_sub = ~size_t{0};
      for (size_t i : writers) {
        if (items[i].submission != current_sub) {
          current_sub = items[i].submission;
          sub_ts = wave_ts;
        }
        run_one(i, 0, sub_ts);
        if (classes[i] == StatementClass::kDml && items[i].slot->status.ok()) {
          sub_ts = db_.commit_clock();
        }
      }
    });
    execution.unique_statements += writers.size();
    run_read_only(readers, wave_ts);
    writer_lane.join();
  }
  execution.conflicts = conflicts.load(std::memory_order_relaxed);

  obs::MetricsRegistry::Global().counter("server.waves").Increment();
  // Admission order, whatever worker ran what — same determinism rule
  // as the batch path. Only one wave executes at a time (the queue's
  // leader), but serial Execute() traffic from other servers' clients
  // may interleave, so each append still takes the log mutex.
  for (StatementLogEntry& e : entries) {
    AppendLogEntry(std::move(e));
  }

  if (dml_count > 0) NoteDmlExecution();
  return execution;
}

WorkerPool& DbServer::EnsurePool(size_t threads) {
  if (pool_ == nullptr || pool_->threads() != threads) {
    pool_ = std::make_unique<WorkerPool>(threads);
  }
  return *pool_;
}

size_t DbServer::ResponseBytes(const ResultSet& result) const {
  if (config_.fixed_row_bytes > 0) {
    // DML acks and empty results still occupy a minimal frame.
    if (result.rows.empty()) return 64;
    return result.rows.size() * config_.fixed_row_bytes;
  }
  return result.WireSize() + 64;
}

void DbServer::RecordStatementTelemetry(std::string_view sql,
                                        const ExecStats& stats,
                                        size_t result_rows,
                                        size_t response_bytes,
                                        double sim_seconds,
                                        double wall_seconds,
                                        const StatementOrigin& origin) {
  const std::string_view stmt_class = ClassifyStatementClass(sql, stats);
  const std::string_view engine = EngineLabel(stats);

  // Dimensioned latency: one LogHistogram per (site, stmt_class,
  // engine). Site is fixed per server, so the slot cache keys on the
  // other two; a racing first fill stores the same stable pointer.
  const size_t slot = StmtHistogramSlot(stmt_class, engine);
  obs::LogHistogram* hist = stmt_histograms_[slot].load(std::memory_order_acquire);
  if (hist == nullptr) {
    hist = &obs::MetricsRegistry::Global().log_histogram(
        "server.statement_sim_seconds",
        {{"site", config_.site},
         {"stmt_class", std::string(stmt_class)},
         {"engine", std::string(engine)}});
    stmt_histograms_[slot].store(hist, std::memory_order_release);
  }
  hist->Observe(sim_seconds);

  const SlowQueryLog::Limits limits{config_.slow_query_threshold,
                                    config_.slow_query_log_capacity,
                                    config_.slow_query_top_k};
  if (!slow_query_log_.MightRecord(limits, sim_seconds, wall_seconds)) return;

  const bool plan_cache_hit = stats.plan_cache_hits > 0;
  SlowQueryRecord rec;
  rec.sql = std::string(sql);
  rec.fingerprint = stats.fingerprint_key;
  rec.stmt_class = std::string(stmt_class);
  rec.engine = std::string(engine);
  rec.site = config_.site;
  rec.plan_summary = StrFormat(
      "scan=%zu(vec=%zu) cte=%zu probe=%zu(vec=%zu) agg=%zu(vec=%zu) "
      "plan=%s",
      stats.rows_scanned, stats.vec_rows_scanned, stats.cte_rows_scanned,
      stats.join_probe_rows + stats.vec_join_probe_rows,
      stats.vec_join_probe_rows,
      stats.agg_input_rows + stats.vec_agg_input_rows,
      stats.vec_agg_input_rows, plan_cache_hit ? "cached" : "parsed");
  rec.wave_id = origin.wave_id;
  rec.batch_id = origin.batch_id;
  rec.client_id = origin.client_id;
  rec.plan_cache_hit = plan_cache_hit;
  rec.result_rows = result_rows;
  rec.response_bytes = response_bytes;
  rec.rows_scanned = stats.rows_scanned;
  rec.cte_rows_scanned = stats.cte_rows_scanned;
  rec.vec_rows_scanned = stats.vec_rows_scanned;
  rec.join_probe_rows = stats.join_probe_rows;
  rec.vec_join_probe_rows = stats.vec_join_probe_rows;
  rec.agg_input_rows = stats.agg_input_rows;
  rec.vec_agg_input_rows = stats.vec_agg_input_rows;
  rec.sim_server_seconds = sim_seconds;
  rec.wall_seconds = wall_seconds;
  rec.queue_wait_seconds = origin.queue_wait_s;
  size_t evicted = slow_query_log_.Note(limits, std::move(rec));
  if (evicted > 0) {
    obs::MetricsRegistry::Global()
        .counter("server.slow_query_log_dropped")
        .Add(evicted);
  }
}

void DbServer::AppendLogEntry(StatementLogEntry entry) {
  std::lock_guard<std::mutex> lock(log_mutex_);
  statement_log_.push_back(std::move(entry));
  if (config_.statement_log_capacity > 0 &&
      statement_log_.size() > config_.statement_log_capacity) {
    statement_log_.pop_front();
    ++statement_log_dropped_;
    obs::MetricsRegistry::Global()
        .counter("server.statement_log_dropped")
        .Increment();
  }
}

std::vector<DbServer::StatementLogEntry> DbServer::statement_log() const {
  std::lock_guard<std::mutex> lock(log_mutex_);
  return {statement_log_.begin(), statement_log_.end()};
}

size_t DbServer::statement_log_size() const {
  std::lock_guard<std::mutex> lock(log_mutex_);
  return statement_log_.size();
}

size_t DbServer::statement_log_dropped() const {
  std::lock_guard<std::mutex> lock(log_mutex_);
  return statement_log_dropped_;
}

void DbServer::ClearStatementLog() {
  std::lock_guard<std::mutex> lock(log_mutex_);
  statement_log_.clear();
  statement_log_dropped_ = 0;
}

void DbServer::ResetObservability() {
  ClearStatementLog();
  slow_query_log_.Clear();
  db_.plan_cache().ResetStats();
  admission_->ClearWaveLog();
  // Process-wide surfaces: finished spans and every registered metric.
  // A reset means "start a fresh measurement window", and a window that
  // kept stale spans or counter values would double-count.
  obs::Tracer::Global().Clear();
  obs::MetricsRegistry::Global().ResetAll();
}

}  // namespace pdm
