// QueryService: the front-end's production-shaped query surface over MindNet.
//
// Clients register with a home node and submit on-demand range queries or
// standing queries (re-executed on a period against the freshest installed
// index version). Every submission passes an admission controller before it
// reaches MindNode::Query:
//
//   1. per-client quota  — a client may hold at most `per_client_quota`
//                          admitted (in-flight + queued) queries;
//   2. cost estimate     — expected result size from a per-index selectivity
//                          histogram fed by the ingest pipeline's observed
//                          tuples (Histogram::MassInRect); estimates above
//                          `max_cost_tuples` are rejected outright;
//   3. concurrency gate  — up to `max_inflight` queries run concurrently;
//                          the next `max_queue` wait FIFO; beyond that the
//                          submission is rejected as overloaded.
//
// Admitted queries get a deadline: if the index core has not completed the
// query in time, the service cancels it through MindNode::CancelQuery, which
// reclaims the trackers immediately and fires the callback (complete=false).
// Results stream back to the client in fixed-size chunks of sim time — the
// final chunk carries completion, latency and the index's version epoch.
//
// Determinism: all service state lives in ordered containers, events run on
// the simulator queue, and telemetry (`frontend.query.*`) is passive.
#ifndef MIND_FRONTEND_QUERY_SERVICE_H_
#define MIND_FRONTEND_QUERY_SERVICE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mind/mind_net.h"
#include "space/histogram.h"

namespace mind {
namespace frontend {

struct QueryServiceOptions {
  /// Queries resolving against the index core at once.
  size_t max_inflight = 32;
  /// Admitted queries waiting behind the in-flight gate (FIFO).
  size_t max_queue = 128;
  /// Admitted (in-flight + queued) queries per client.
  size_t per_client_quota = 8;
  /// Reject when the selectivity histogram expects more matching tuples
  /// than this; 0 disables the cost gate.
  double max_cost_tuples = 0;
  /// Bins per dimension of the per-index selectivity histograms.
  int cost_bins_per_dim = 8;
  /// Service-side completion deadline (Submit may override per query).
  SimTime default_deadline = FromSeconds(30);
  /// Result tuples per delivery chunk.
  size_t delivery_chunk_tuples = 256;
  /// Spacing between consecutive chunks of one result stream.
  SimTime delivery_stride = FromMillis(1);
};

using ClientId = uint32_t;

/// One chunk of a streamed query result.
struct Delivery {
  uint64_t ticket = 0;       ///< service-wide submission id
  uint64_t standing_id = 0;  ///< 0 for on-demand submissions
  bool done = false;         ///< true on the final chunk
  bool complete = false;     ///< final chunk: full coverage (vs deadline/churn)
  std::vector<Tuple> tuples; ///< this chunk's tuples
  SimTime latency = 0;       ///< final chunk: submit-to-completion sim time
  uint64_t epoch = 0;        ///< final chunk: index version epoch served
  /// Final chunk: the core query id (MindNode::Query's), the key of
  /// MindNet::QueryVisitCount; 0 when the core refused the query.
  uint64_t query_id = 0;
};

class QueryService {
 public:
  /// Does not own the net; it must outlive the service. Installs a version-
  /// opened observer on every node to track per-index epochs.
  QueryService(MindNet* net, QueryServiceOptions options);

  /// Registers a client that submits from (and receives at) node `home`.
  ClientId RegisterClient(NodeId home);

  enum class Admission {
    kDispatched,        ///< running against the index core
    kQueued,            ///< admitted, waiting for an in-flight slot
    kRejectedQuota,     ///< client exceeded per_client_quota
    kRejectedCost,      ///< cost estimate above max_cost_tuples
    kRejectedOverload,  ///< in-flight and queue both full
  };
  static bool Admitted(Admission a) {
    return a == Admission::kDispatched || a == Admission::kQueued;
  }

  struct SubmitOutcome {
    Admission admission;
    uint64_t ticket = 0;  ///< 0 when rejected
  };

  using DeliverFn = std::function<void(const Delivery&)>;

  /// Submits an on-demand query. `deadline` of 0 uses the default. Errors
  /// only on an unknown client; admission rejections come back in the
  /// outcome (and are counted under `frontend.query.rejected_*`).
  Result<SubmitOutcome> Submit(ClientId client, const std::string& index,
                               const Rect& rect, DeliverFn deliver,
                               SimTime deadline = 0);

  /// Registers a standing query re-executed every `period` (first execution
  /// is immediate). Each execution passes admission like an on-demand
  /// submission; rejected executions are skipped, not fatal. Returns the
  /// standing id.
  Result<uint64_t> AddStanding(ClientId client, const std::string& index,
                               Rect rect, SimTime period, DeliverFn deliver);

  Status RemoveStanding(uint64_t standing_id);

  // -- introspection (bench / tests) ---------------------------------------
  size_t inflight() const { return inflight_; }
  size_t queued() const { return wait_queue_.size(); }
  uint64_t admitted_total() const { return admitted_total_; }
  uint64_t rejected_total() const { return rejected_total_; }
  uint64_t completed_total() const { return completed_total_; }
  uint64_t deadline_cancels() const { return deadline_cancels_; }
  /// Current version epoch of an index (0 until a version opens).
  uint64_t IndexEpoch(const std::string& index) const;

  /// Feeds the per-index selectivity histogram (ingest wires this up).
  void ObserveInsert(const std::string& index, const Point& point);

 private:
  struct Client {
    NodeId home = 0;
    size_t active = 0;  // admitted (in-flight + queued) submissions
  };

  struct Pending {
    ClientId client = 0;
    std::string index;
    Rect rect;
    DeliverFn deliver;
    uint64_t standing_id = 0;
    SimTime deadline = 0;     // duration
    SimTime submitted = 0;
    // set while in flight:
    uint64_t core_query_id = 0;
    EventId deadline_event = 0;
    bool dispatched = false;
  };

  Result<SubmitOutcome> SubmitInternal(ClientId client,
                                       const std::string& index,
                                       const Rect& rect, DeliverFn deliver,
                                       SimTime deadline, uint64_t standing_id);
  void Dispatch(uint64_t ticket);
  void OnCoreResult(uint64_t ticket, const QueryResult& result);
  void StreamResult(uint64_t ticket, Pending pending, QueryResult result);
  void DispatchFromQueue();
  void FireStanding(uint64_t standing_id);
  double EstimateCost(const std::string& index, const Rect& rect) const;

  MindNet* net_;
  QueryServiceOptions options_;

  std::vector<Client> clients_;
  std::map<uint64_t, Pending> pending_;  // admitted, not yet completed
  std::deque<uint64_t> wait_queue_;      // tickets waiting for a slot
  size_t inflight_ = 0;
  uint64_t ticket_seq_ = 0;

  struct Standing {
    ClientId client = 0;
    std::string index;
    Rect rect;
    SimTime period = 0;
    DeliverFn deliver;
    EventId next_fire = 0;
  };
  std::map<uint64_t, Standing> standing_;
  uint64_t standing_seq_ = 0;

  std::map<std::string, uint64_t> epochs_;
  std::map<std::string, std::unique_ptr<Histogram>> selectivity_;

  uint64_t admitted_total_ = 0;
  uint64_t rejected_total_ = 0;
  uint64_t completed_total_ = 0;
  uint64_t deadline_cancels_ = 0;

  struct Instruments {
    telemetry::Counter* submitted;
    telemetry::Counter* admitted;
    telemetry::Counter* queued;
    telemetry::Counter* rejected_quota;
    telemetry::Counter* rejected_cost;
    telemetry::Counter* rejected_overload;
    telemetry::Counter* completed;
    telemetry::Counter* deadline_cancels;
    telemetry::Counter* standing_fires;
    telemetry::SimHistogram* latency_ms;
    telemetry::SimHistogram* wait_ms;
    telemetry::SimHistogram* result_tuples;
    telemetry::SimHistogram* cost_estimate;
  };
  Instruments tm_;
};

}  // namespace frontend
}  // namespace mind

#endif  // MIND_FRONTEND_QUERY_SERVICE_H_
