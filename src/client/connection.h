#ifndef PDM_CLIENT_CONNECTION_H_
#define PDM_CLIENT_CONNECTION_H_

#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "exec/result_set.h"
#include "net/wan_model.h"
#include "server/db_server.h"

namespace pdm::client {

/// A PDM client's connection to the database server through the
/// simulated WAN. Every Execute() is one round trip: the SQL text goes
/// out (padded to packets), the serialized result comes back; the link
/// accumulates latency/transfer statistics.
class Connection {
 public:
  /// Sizes a result set on the wire; overrides the server's policy.
  using ResponseSizer = std::function<size_t(const ResultSet&)>;

  Connection(DbServer* server, net::WanConfig wan)
      : server_(server), link_(wan) {}

  ~Connection() { DetachFromAdmissionQueue(); }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Routes this connection's server traffic through the shared
  /// admission queue (DESIGN.md 5e) as client `client_id`, registering
  /// it as an active queue client. Wire accounting is unchanged — each
  /// Execute/ExecuteBatch is still one round trip on this link; only
  /// server-side execution coalesces across clients. Detach (or destroy
  /// the connection) when the session ends so other clients' waves stop
  /// waiting for this one.
  void AttachToAdmissionQueue(uint64_t client_id);
  void DetachFromAdmissionQueue();
  bool attached_to_admission_queue() const { return admission_attached_; }

  /// One query/response round trip. The response is charged `sizer`'s
  /// size when given (e.g. the paper's per-node size, see DESIGN.md),
  /// the server's sizing otherwise — which the server then computes
  /// only in that case. A failing statement charges nothing.
  Status Execute(std::string_view sql, ResultSet* out,
                 const ResponseSizer& sizer = nullptr);

  /// One *batched* round trip: all statements ship as one request, all
  /// results return as one response (DESIGN.md 5d). `out` receives one
  /// Result per statement, in statement order — a failing statement
  /// reports its error in its slot without poisoning siblings. OK slots
  /// are sized by `sizer` when given, by the server's policy otherwise;
  /// error slots are charged the server's minimal 64-byte frame. An
  /// empty batch is a no-op: nothing is sent and no round trip is
  /// charged.
  Status ExecuteBatch(const std::vector<std::string>& statements,
                      std::vector<Result<ResultSet>>* out,
                      const ResponseSizer& sizer = nullptr);

  /// One issued batch exchange (DESIGN.md 5g): the request is on the
  /// wire (WanLink::BeginExchange). Collect() obtains the results and
  /// completes the exchange on the link. Destroying a never-collected
  /// PendingBatch aborts the exchange unaccounted (draining server work
  /// already in flight) — the fail-fast path can simply drop it without
  /// deadlocking or corrupting the link timeline.
  class PendingBatch {
   public:
    PendingBatch() = default;
    ~PendingBatch() { Abandon(); }

    PendingBatch(PendingBatch&& other) noexcept
        : conn_(std::exchange(other.conn_, nullptr)),
          future_(std::move(other.future_)) {}
    PendingBatch& operator=(PendingBatch&& other) noexcept;

    /// False for an empty batch (nothing was issued) or after Collect.
    bool valid() const { return conn_ != nullptr; }

    /// Waits for (or, for a non-overlapped batch, runs) the server
    /// work, completes the exchange on the link and fills `out` as
    /// ExecuteBatch does, with the same sizing rules. Returns the
    /// exchange's timeline entry; zeroed if the batch was invalid.
    net::ExchangeTiming Collect(std::vector<Result<ResultSet>>* out,
                                const ResponseSizer& sizer = nullptr);

   private:
    friend class Connection;

    /// Aborts a never-collected exchange: in-flight server work is
    /// drained (its thread touches shared state), deferred work is
    /// never run.
    void Abandon();

    Connection* conn_ = nullptr;
    std::future<std::vector<DbServer::BatchStatementResult>> future_;
  };

  /// Issues a batch without waiting for it (DESIGN.md 5g). With
  /// `overlap_previous` the exchange is charged as issued at the
  /// previous exchange's transfer start — the speculative issue of a
  /// pipelined client that decoded the streaming prefix — and the
  /// server work starts at once on a background thread. Without it the
  /// exchange is sequential and the server work runs on the calling
  /// thread at Collect, so an abandoned batch never reaches the server.
  /// Either way the work goes through the admission queue when
  /// attached. An empty batch issues nothing and returns an invalid
  /// handle. At most one batch may be in flight per connection (the
  /// link serializes exchanges).
  PendingBatch ExecuteBatchPipelined(std::vector<std::string> statements,
                                     bool overlap_previous);

  DbServer& server() { return *server_; }
  net::WanLink& link() { return link_; }
  const net::WanStats& stats() const { return link_.stats(); }
  void ResetStats() { link_.ResetStats(); }

 private:
  /// Executes `statements` at the server: through the admission queue
  /// when attached, directly otherwise.
  std::vector<DbServer::BatchStatementResult> RunAtServer(
      const std::vector<std::string>& statements);

  DbServer* server_;
  net::WanLink link_;
  bool admission_attached_ = false;
  uint64_t admission_client_id_ = 0;
};

}  // namespace pdm::client

#endif  // PDM_CLIENT_CONNECTION_H_
