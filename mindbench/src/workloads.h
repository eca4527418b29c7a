// The benchmark's workloads. Each round builds a fresh deployment (set-up),
// drives one workload through the library's public API (the timed run), and
// collects everything the checks and metrics need (outside the timed run).
#ifndef MINDBENCH_WORKLOADS_H_
#define MINDBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mind/mind_net.h"

namespace mindbench {

/// One query the workload issued, with what came back.
struct QueryRecord {
  int index = 0;  ///< slot in RoundResult::index_names
  mind::Rect rect;
  bool answered = false;  ///< completed with full coverage
  double latency_ms = 0;  ///< sim time the caller waited
  size_t cost_nodes = 0;  ///< distinct overlay nodes the query touched
  std::vector<mind::Tuple> rows;
};

/// A primary copy found in a node's store after the drain.
struct PrimaryCopy {
  int index = 0;
  size_t node = 0;
  mind::CutTreeRef cuts;  ///< cuts of the version the copy is stored under
  mind::Tuple tuple;
};

/// Wall-clock seconds of the benchmark's calls into each layer, for the
/// traced run's per-layer metrics. Counts come from the engine and the
/// benchmark's own samples.
struct LayerNumbers {
  double traffic_generate_s = 0;
  uint64_t traffic_flows = 0;
  double space_cuts_s = 0;
  double overlay_build_s = 0;
  double sim_run_s = 0;
  uint64_t sim_events = 0;
  uint64_t net_messages = 0;
  uint64_t net_bytes = 0;
  double engine_barrier_wait_s = 0;
  uint64_t engine_windows = 0;
  uint64_t engine_solo_windows = 0;
  uint64_t engine_events = 0;
  double engine_shard_imbalance = 0;
  uint64_t replica_tuples = 0;
  uint64_t store_rows_examined = 0;
  uint64_t store_rows_matched = 0;
  uint64_t store_bytes = 0;
  uint64_t store_tuples = 0;
  uint64_t ingest_batches = 0;
  uint64_t ingest_tuples = 0;
  // Registry-derived (absent when telemetry is compiled out).
  std::optional<double> route_cache_hit_rate;
  std::optional<double> dac_insert_wait_ms_p99;
  std::optional<double> dac_query_wait_ms_p99;
  std::optional<double> subqueries_per_query;
  std::optional<double> admission_wait_ms_p99;
};

struct RoundResult {
  std::vector<std::string> index_names;
  /// Tuples the benchmark (or the ingest pipeline on its behalf) issued,
  /// per index.
  std::vector<std::vector<mind::Tuple>> issued;
  std::vector<QueryRecord> queries;        ///< issued during the timed run
  std::vector<QueryRecord> final_queries;  ///< issued after the drain
  std::vector<mind::MindNode::StoredInfo> stored;
  std::vector<PrimaryCopy> primaries;
  std::vector<mind::BitCode> node_codes;
  bool complete_cover = false;
  uint64_t digest = 0;

  double setup_s = 0;
  double timed_s = 0;
  LayerNumbers layers;
  /// Mean CutTree::Cover and TupleStore::Query call times when the timed
  /// run's query rectangles are replayed after it (traced runs only).
  double cover_us = 0;
  double store_query_us = 0;
};

struct WorkloadConfig {
  std::string name;  ///< backbone_day | fleet1k
  uint64_t seed = 1;
  /// fleet1k only: run on the parallel engine with two worker threads
  /// instead of the sequential engine (check (f)'s replay).
  bool parallel_engine = false;
  /// Reduced size for the self-test (fleet shapes only).
  size_t nodes = 1024;
  double drive_sec = 120;
  bool replay_layers = false;  ///< time Cover / TupleStore::Query replays
};

/// Runs one complete round (set-up, timed run, drain, collection).
RoundResult RunRound(const WorkloadConfig& config);

bool IsWorkload(const std::string& name);

}  // namespace mindbench

#endif  // MINDBENCH_WORKLOADS_H_
