#include "client/connection.h"

#include <chrono>

#include "obs/trace.h"
#include "server/admission_queue.h"

namespace pdm::client {

void Connection::AttachToAdmissionQueue(uint64_t client_id) {
  if (admission_attached_) DetachFromAdmissionQueue();
  admission_client_id_ = client_id;
  admission_attached_ = true;
  server_->admission_queue().RegisterClient();
}

void Connection::DetachFromAdmissionQueue() {
  if (!admission_attached_) return;
  admission_attached_ = false;
  server_->admission_queue().UnregisterClient();
}

std::vector<DbServer::BatchStatementResult> Connection::RunAtServer(
    const std::vector<std::string>& statements) {
  if (admission_attached_) {
    return server_->Submit(admission_client_id_, statements);
  }
  return server_->ExecuteBatch(statements);
}

Status Connection::Execute(std::string_view sql, ResultSet* out,
                           const ResponseSizer& sizer) {
  ResultSet scratch;
  if (out == nullptr) out = &scratch;
  size_t response_bytes = 0;
  if (admission_attached_) {
    std::vector<std::string> statements{std::string(sql)};
    DbServer::BatchStatementResult result =
        std::move(server_->Submit(admission_client_id_, statements)[0]);
    PDM_RETURN_NOT_OK(result.status);
    *out = std::move(result.result);
    response_bytes = result.response_bytes;
  } else {
    // A standalone statement (batch 0); the server sizes the response
    // only when this call charges the server's sizing.
    PDM_RETURN_NOT_OK(
        server_->Execute(sql, out, sizer ? nullptr : &response_bytes));
  }
  if (sizer) response_bytes = sizer(*out);
  link_.RecordRoundTrip(sql.size(), response_bytes);
  return Status::OK();
}

namespace {

/// Request payload of a batch: the statements concatenated with one
/// separator byte (';') between them.
size_t BatchRequestBytes(const std::vector<std::string>& statements) {
  size_t bytes = statements.empty() ? 0 : statements.size() - 1;
  for (const std::string& sql : statements) bytes += sql.size();
  return bytes;
}

}  // namespace

Status Connection::ExecuteBatch(const std::vector<std::string>& statements,
                                std::vector<Result<ResultSet>>* out,
                                const ResponseSizer& sizer) {
  // A sequential exchange: issued, then collected on this thread.
  ExecuteBatchPipelined(statements, /*overlap_previous=*/false)
      .Collect(out, sizer);
  return Status::OK();
}

void Connection::PendingBatch::Abandon() {
  if (conn_ == nullptr) return;
  // Never collected: the action failed before this level's results were
  // needed. Drain server work in flight and drop the exchange from the
  // timeline unaccounted; a deferred batch is simply never run.
  if (future_.valid() && future_.wait_for(std::chrono::seconds(0)) !=
                             std::future_status::deferred) {
    future_.wait();
  }
  conn_->link_.AbortExchange();
  conn_ = nullptr;
}

Connection::PendingBatch& Connection::PendingBatch::operator=(
    PendingBatch&& other) noexcept {
  if (this != &other) {
    Abandon();
    conn_ = std::exchange(other.conn_, nullptr);
    future_ = std::move(other.future_);
  }
  return *this;
}

net::ExchangeTiming Connection::PendingBatch::Collect(
    std::vector<Result<ResultSet>>* out, const ResponseSizer& sizer) {
  if (out != nullptr) out->clear();
  net::ExchangeTiming timing;
  if (conn_ == nullptr) return timing;
  Connection* conn = std::exchange(conn_, nullptr);
  std::vector<DbServer::BatchStatementResult> results = future_.get();
  size_t response_bytes = 0;
  for (const DbServer::BatchStatementResult& r : results) {
    if (sizer) {
      response_bytes += r.status.ok() ? sizer(r.result) : size_t{64};
    } else {
      response_bytes += r.response_bytes;
    }
  }
  timing = conn->link_.CompleteExchange(response_bytes);
  if (out != nullptr) {
    out->reserve(results.size());
    for (DbServer::BatchStatementResult& r : results) {
      if (r.status.ok()) {
        out->emplace_back(std::move(r.result));
      } else {
        out->emplace_back(std::move(r.status));
      }
    }
  }
  return timing;
}

Connection::PendingBatch Connection::ExecuteBatchPipelined(
    std::vector<std::string> statements, bool overlap_previous) {
  PendingBatch pending;
  // Empty batch: nothing to ship, no exchange opened.
  if (statements.empty()) return pending;
  pending.conn_ = this;
  link_.BeginExchange(BatchRequestBytes(statements), statements.size(),
                      overlap_previous);
  // Capture the submitter's trace context NOW: an overlapped batch runs
  // on a fresh thread whose thread-local context is empty, and the
  // server spans of this batch belong to the action that issued it.
  const obs::TraceContext ctx = obs::CurrentContext();
  pending.future_ = std::async(
      overlap_previous ? std::launch::async : std::launch::deferred,
      [this, ctx, statements = std::move(statements)]() {
        obs::ContextScope scope(ctx);
        return RunAtServer(statements);
      });
  return pending;
}

}  // namespace pdm::client
