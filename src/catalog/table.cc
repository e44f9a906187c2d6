#include "catalog/table.h"

namespace pdm {

void TableUndo::Rollback() {
  // Reverse order: a statement that killed and then appended restores
  // the pre-statement picture exactly.
  for (auto it = appended.rbegin(); it != appended.rend(); ++it) {
    VersionMeta& m = it->table->versions_.meta(it->pos);
    // end == begin: invisible to every snapshot (begin <= ts < end is
    // unsatisfiable) and prunable by the next GC regardless of horizon.
    m.end_ts.store(m.begin_ts, std::memory_order_release);
    it->table->live_rows_.fetch_sub(1, std::memory_order_relaxed);
  }
  for (auto it = killed.rbegin(); it != killed.rend(); ++it) {
    it->table->versions_.meta(it->pos).end_ts.store(
        kMaxCommitTs, std::memory_order_release);
    it->table->live_rows_.fetch_add(1, std::memory_order_relaxed);
  }
  appended.clear();
  killed.clear();
}

Status Table::Insert(Row row, uint64_t begin_ts) {
  PDM_RETURN_NOT_OK(schema_.ValidateRow(row).WithContext(
      "insert into table '" + name_ + "'"));
  AppendVersion(std::move(row), begin_ts, nullptr);
  return Status::OK();
}

size_t Table::AppendVersion(Row row, uint64_t begin_ts, TableUndo* undo) {
  const size_t pos = versions_.Append(std::move(row), begin_ts);
  PublishAppend(pos);
  live_rows_.fetch_add(1, std::memory_order_relaxed);
  if (undo != nullptr) undo->appended.push_back({this, pos});
  return pos;
}

bool Table::KillVersion(size_t pos, uint64_t end_ts, TableUndo* undo) {
  VersionMeta& m = versions_.meta(pos);
  // First writer wins: a version killed by a writer that committed
  // after the caller's snapshot stays killed; the caller loses.
  uint64_t open = kMaxCommitTs;
  if (!m.end_ts.compare_exchange_strong(open, end_ts,
                                        std::memory_order_acq_rel)) {
    return false;
  }
  live_rows_.fetch_sub(1, std::memory_order_relaxed);
  if (undo != nullptr) undo->killed.push_back({this, pos});
  return true;
}

std::vector<Row> Table::SnapshotRows(uint64_t ts) const {
  std::vector<Row> rows;
  rows.reserve(num_rows());
  ForEachVisible(ts, [&rows](const Row& row) { rows.push_back(row); });
  return rows;
}

size_t Table::PruneVersions(uint64_t horizon) {
  // Exclusive by contract: no readers, no writers. Everything dead at
  // or before the horizon — plus rolled-back versions, whose end ==
  // begin makes them invisible to any snapshot — goes away. Counting
  // pass first: a no-op pass must not rebuild the fragment store.
  const size_t bound = versions_.size();
  size_t pruned = 0;
  for (size_t pos = 0; pos < bound; ++pos) {
    const VersionMeta& m = versions_.meta(pos);
    const uint64_t end = m.end_ts.load(std::memory_order_relaxed);
    if (end <= horizon || end <= m.begin_ts) ++pruned;
  }
  if (pruned == 0) return 0;
  FragmentStore kept(versions_.num_columns());
  Row scratch;
  for (size_t pos = 0; pos < bound; ++pos) {
    const VersionMeta& m = versions_.meta(pos);
    const uint64_t end = m.end_ts.load(std::memory_order_relaxed);
    if (end <= horizon || end <= m.begin_ts) continue;
    versions_.MaterializeRow(pos, &scratch);
    const size_t new_pos = kept.Append(std::move(scratch), m.begin_ts);
    kept.meta(new_pos).end_ts.store(end, std::memory_order_relaxed);
  }
  versions_ = std::move(kept);
  published_.store(versions_.size(), std::memory_order_release);
  InvalidateIndexes();  // survivor positions shifted
  return pruned;
}

void Table::PublishAppend(size_t pos) {
  // The epoch bump and the publication happen under one lock: an index
  // (re)build, which reads `published_` under the same lock, either
  // precedes both — and is then in sync, so the loop below adds `pos`
  // — or follows both and covers `pos` itself. A build between the two
  // would be marked fresh without `pos` and miss it until the next GC.
  std::lock_guard<std::mutex> lock(index_mutex_);
  const uint64_t old_version = version_++;
  for (auto& [column, cached] : indexes_) {
    if (cached.built_version != old_version) continue;  // already stale
    if (column < versions_.num_columns()) {
      Value key = versions_.Cell(pos, column);
      if (!key.is_null()) cached.map[std::move(key)].push_back(pos);
    }
    cached.built_version = version_;
  }
  published_.store(pos + 1, std::memory_order_release);
}

Table::CachedIndex& Table::EnsureIndexLocked(size_t column) const {
  CachedIndex& cached = indexes_[column];
  if (cached.built_version != version_) {
    const size_t bound = published_.load(std::memory_order_acquire);
    cached.map.clear();
    cached.map.reserve(bound);
    for (size_t pos = 0; pos < bound; ++pos) {
      Value key = versions_.Cell(pos, column);
      if (key.is_null()) continue;
      cached.map[std::move(key)].push_back(pos);
    }
    cached.built_version = version_;
  }
  return cached;
}

const Table::ColumnIndex& Table::GetOrBuildIndex(size_t column) const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  return EnsureIndexLocked(column).map;
}

void Table::IndexLookup(size_t column, const Value& key,
                        std::vector<size_t>* out) const {
  out->clear();
  if (key.is_null()) return;  // NULLs are not indexed
  std::lock_guard<std::mutex> lock(index_mutex_);
  const ColumnIndex& map = EnsureIndexLocked(column).map;
  auto it = map.find(key);
  if (it != map.end()) *out = it->second;  // copy under the lock
}

bool Table::HasFreshIndex(size_t column) const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  auto it = indexes_.find(column);
  return it != indexes_.end() && it->second.built_version == version_;
}

}  // namespace pdm
