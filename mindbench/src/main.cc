// mindbench: the repository's end-to-end benchmark program.
//
//   mindbench --workload <backbone_day|fleet1k>
//             [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//   mindbench --selftest [--seed N]
//
// A run repeats whole rounds (fresh deployment, set-up, timed run, drain,
// checks) until `--seconds` of wall time have passed. The first kInputSets
// rounds each get their own inputs, generated from seed * kInputSets + r;
// later rounds replay them in turn and must end in the same state. Sim-time
// metrics pool the samples of the distinct input sets, which narrows their
// seed-to-seed spread; wall-clock metrics are medians over all rounds.
// It prints the per-kind operation counts, then one JSON line: the
// end-to-end metrics (untraced runs) or the per-layer metrics (--trace 1).
// Exits 1 when a check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "trace.h"
#include "workloads.h"

using namespace mindbench;

namespace {

constexpr int kInputSets = 6;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string spans;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "mindbench: %s\nusage: mindbench --workload "
               "<backbone_day|fleet1k> [--seed N] [--seconds S] "
               "[--trace 0|1] [--spans FILE]\n"
               "       mindbench --selftest [--seed N]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.selftest && !IsWorkload(a.workload)) Usage("unknown or missing --workload");
  return a;
}

// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  std::optional<double> value;  // nullopt: absent in this build
  std::string unit;
};

// Everything a run reports, accumulated over its rounds.
struct RunTotals {
  int rounds = 0;
  std::vector<double> setup_s, ops_per_s;
  CheckReport checks;  // counts summed over rounds
  std::vector<std::string> failures;
  std::vector<uint64_t> digests;  // per input set
  // Per-layer sums over rounds.
  LayerNumbers layers;
  double ops = 0;
  double cover_us = 0, store_query_us = 0;
};

void Accumulate(const RoundResult& r, double ops, RunTotals* t) {
  LayerNumbers& s = t->layers;
  const LayerNumbers& x = r.layers;
  s.traffic_generate_s += x.traffic_generate_s;
  s.traffic_flows += x.traffic_flows;
  s.space_cuts_s += x.space_cuts_s;
  s.overlay_build_s += x.overlay_build_s;
  s.sim_run_s += x.sim_run_s;
  s.sim_events += x.sim_events;
  s.net_messages += x.net_messages;
  s.net_bytes += x.net_bytes;
  s.replica_tuples += x.replica_tuples;
  s.store_rows_examined += x.store_rows_examined;
  s.store_rows_matched += x.store_rows_matched;
  s.store_bytes += x.store_bytes;
  s.store_tuples += x.store_tuples;
  s.ingest_batches += x.ingest_batches;
  s.ingest_tuples += x.ingest_tuples;
  // Registry readings are reported for the first input set.
  if (t->rounds == 0) {
    s.route_cache_hit_rate = x.route_cache_hit_rate;
    s.dac_insert_wait_ms_p99 = x.dac_insert_wait_ms_p99;
    s.dac_query_wait_ms_p99 = x.dac_query_wait_ms_p99;
    s.subqueries_per_query = x.subqueries_per_query;
    s.admission_wait_ms_p99 = x.admission_wait_ms_p99;
  }
  t->ops += ops;
  t->cover_us += r.cover_us;
  t->store_query_us += r.store_query_us;
}

// Sim-time samples, pooled over the distinct input sets.
struct SimSamples {
  std::vector<double> insert_ms, query_ms, cost, rows, hops;
};

void AddSamples(const RoundResult& r, SimSamples* s) {
  for (const auto& info : r.stored) {
    s->insert_ms.push_back(static_cast<double>(info.latency) / 1e3);
    s->hops.push_back(info.hops);
  }
  for (const QueryRecord& q : r.queries) {
    if (!q.answered) continue;
    s->query_ms.push_back(q.latency_ms);
    s->cost.push_back(static_cast<double>(q.cost_nodes));
    s->rows.push_back(static_cast<double>(q.rows.size()));
  }
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

void PrintJson(const CheckReport& c, bool correct, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(c.inserts_attempted + c.queries_attempted);
  out += ", \"failed\": " + std::to_string(c.inserts_failed + c.queries_failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.value) continue;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", *m.value);
    out += (first ? "" : ", ") + std::string("\"") + m.name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.selftest) return SelfTest(args.seed);
  if (args.trace) Tracer::Get().Enable();

  WorkloadConfig cfg;
  cfg.name = args.workload;
  cfg.seed = args.seed;
  cfg.replay_layers = args.trace;

  RunTotals totals;
  SimSamples samples;
  std::map<std::string, size_t> tuples_per_index;  // over the input sets
  uint64_t flows = 0;
  std::optional<RoundResult> first_round;
  // Read after the distinct input sets, so that it covers the same work in
  // every run however many replay rounds fit in the run's seconds.
  double peak_rss_mb = 0;
  const double start = WallNow();
  {
    Span root("bench");
    while (totals.rounds < kInputSets || WallNow() - start < args.seconds) {
      const int input = totals.rounds % kInputSets;
      WorkloadConfig round_cfg = cfg;
      round_cfg.seed = cfg.seed * kInputSets + static_cast<uint64_t>(input);
      RoundResult r = RunRound(round_cfg);
      CheckReport rep;
      {
        Span span("checks");
        rep = CheckRound(r);
      }
      double ops = 0;
      for (const QueryRecord& q : r.queries) ops += q.answered ? 1 : 0;
      ops += static_cast<double>(r.stored.size());
      std::printf("round %d: setup %.3f s, timed %.3f s, %.0f ops/s\n",
                  totals.rounds + 1, r.setup_s, r.timed_s, ops / r.timed_s);
      totals.setup_s.push_back(r.setup_s);
      totals.ops_per_s.push_back(ops / r.timed_s);
      totals.checks.inserts_attempted += rep.inserts_attempted;
      totals.checks.inserts_failed += rep.inserts_failed;
      totals.checks.queries_attempted += rep.queries_attempted;
      totals.checks.queries_failed += rep.queries_failed;
      for (const auto& f : rep.failures) totals.failures.push_back(f);
      Accumulate(r, ops, &totals);
      if (totals.rounds < kInputSets) {
        AddSamples(r, &samples);
        for (size_t ix = 0; ix < r.index_names.size(); ++ix) {
          tuples_per_index[r.index_names[ix]] += r.issued[ix].size();
        }
        flows += r.layers.traffic_flows;
        totals.digests.push_back(r.digest);
        if (totals.rounds == 0 && cfg.name == "fleet1k") {
          first_round = std::move(r);
        }
      } else if (r.digest != totals.digests[static_cast<size_t>(input)]) {
        totals.failures.push_back("round " + std::to_string(totals.rounds + 1) +
                                  " ended in another state than round " +
                                  std::to_string(input + 1));
      }
      ++totals.rounds;
      if (totals.rounds == kInputSets) peak_rss_mb = PeakRssMb();
    }
  }

  // (f) fleet1k's first input set replayed on the parallel engine with two
  // workers must reach the same state and results. The replay also supplies
  // the parallel engine's counters (sim.engine.*), outside the timed run;
  // backbone_day, which never runs that engine, reports them as 0.
  LayerNumbers engine;
  if (first_round) {
    Span span("checks");
    // The reference run's spans would count toward the per-layer figures.
    const bool traced = Tracer::Get().enabled();
    Tracer::Get().Disable();
    WorkloadConfig ref = cfg;
    ref.seed = cfg.seed * kInputSets;
    ref.replay_layers = false;
    ref.parallel_engine = true;
    const RoundResult parallel = RunRound(ref);
    for (const auto& f : CheckSameOutcome(*first_round, parallel)) {
      totals.failures.push_back(f);
    }
    engine = parallel.layers;
    if (traced) Tracer::Get().Enable();
  }

  const CheckReport& c = totals.checks;
  std::printf("workload %s seed %llu: %d rounds\n", cfg.name.c_str(),
              static_cast<unsigned long long>(cfg.seed), totals.rounds);
  std::printf("ops insert attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(c.inserts_attempted),
              static_cast<unsigned long long>(c.inserts_failed));
  std::printf("ops query attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(c.queries_attempted),
              static_cast<unsigned long long>(c.queries_failed));
  // Make-up of the inputs, averaged over the input sets.
  const double sets = kInputSets;
  std::printf("per input set: %.0f flows generated, %.0f commits (",
              static_cast<double>(flows) / sets,
              static_cast<double>(samples.insert_ms.size()) / sets);
  for (const auto& [name, n] : tuples_per_index) {
    std::printf(" %s %.0f", name.c_str(), static_cast<double>(n) / sets);
  }
  std::printf(" ), %.0f answered queries, %.0f%% nonempty, %.0f rows\n",
              static_cast<double>(samples.query_ms.size()) / sets,
              100.0 * Ratio(static_cast<double>(std::count_if(
                                samples.rows.begin(), samples.rows.end(),
                                [](double x) { return x > 0; })),
                            static_cast<double>(samples.rows.size())),
              Mean(samples.rows) * static_cast<double>(samples.rows.size()) / sets);
  for (const auto& f : totals.failures) std::printf("CHECK FAILED %s\n", f.c_str());
  const bool correct = totals.failures.empty();

  const double rounds = totals.rounds;
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(totals.setup_s), "s"},
        {"ops_per_s", Median(totals.ops_per_s), "ops/s"},
        {"insert_latency_p50_ms", Percentile(samples.insert_ms, 50), "ms"},
        {"insert_latency_p99_ms", Percentile(samples.insert_ms, 99), "ms"},
        {"query_latency_p50_ms", Percentile(samples.query_ms, 50), "ms"},
        {"query_latency_p99_ms", Percentile(samples.query_ms, 99), "ms"},
        {"query_cost_nodes", Mean(samples.cost), "nodes"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    const LayerNumbers& L = totals.layers;
    const auto& calls = Tracer::Get().Calls();
    auto per_call_us = [&](const char* name) {
      auto it = calls.find(name);
      return it == calls.end()
                 ? 0.0
                 : 1e6 * Ratio(it->second.seconds,
                               static_cast<double>(it->second.calls));
    };
    const auto self = Tracer::Get().SelfTimes();
    auto self_s = [&](const char* name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    metrics = {
        {"traffic.generate_s", L.traffic_generate_s / rounds, "s"},
        {"traffic.flows", static_cast<double>(L.traffic_flows) / rounds, "count"},
        {"space.cuts_s", L.space_cuts_s / rounds, "s"},
        {"space.cover_us", totals.cover_us / rounds, "us"},
        {"overlay.build_s", L.overlay_build_s / rounds, "s"},
        {"overlay.insert_hops", Mean(samples.hops), "hops"},
        {"overlay.route_cache_hit_rate", L.route_cache_hit_rate, "ratio"},
        {"sim.run_s", L.sim_run_s / rounds, "s"},
        {"sim.self_s", self_s("sim.run") / rounds, "s"},
        {"sim.events_per_op", Ratio(static_cast<double>(L.sim_events), totals.ops),
         "events/op"},
        {"sim.messages_per_op",
         Ratio(static_cast<double>(L.net_messages), totals.ops), "msgs/op"},
        {"sim.bytes_per_op", Ratio(static_cast<double>(L.net_bytes), totals.ops),
         "B/op"},
        {"sim.engine.barrier_wait_s", engine.engine_barrier_wait_s, "s"},
        {"sim.engine.windows", static_cast<double>(engine.engine_windows), "count"},
        {"sim.engine.solo_window_share",
         Ratio(static_cast<double>(engine.engine_solo_windows),
               static_cast<double>(engine.engine_windows)),
         "ratio"},
        {"sim.engine.events_per_window",
         Ratio(static_cast<double>(engine.engine_events),
               static_cast<double>(engine.engine_windows)),
         "events"},
        {"sim.engine.shard_imbalance", engine.engine_shard_imbalance, "ratio"},
        {"mind.insert_call_us", per_call_us("mind.insert_call"), "us"},
        {"mind.query_call_us", per_call_us("mind.query_call"), "us"},
        {"mind.dac_insert_wait_ms_p99", L.dac_insert_wait_ms_p99, "ms"},
        {"mind.dac_query_wait_ms_p99", L.dac_query_wait_ms_p99, "ms"},
        {"mind.subqueries_per_query", L.subqueries_per_query, "count"},
        {"mind.replicas_per_insert",
         Ratio(static_cast<double>(L.replica_tuples),
               static_cast<double>(L.store_tuples)),
         "count"},
        {"storage.query_us", totals.store_query_us / rounds, "us"},
        {"storage.scan_selectivity",
         Ratio(static_cast<double>(L.store_rows_matched),
               static_cast<double>(L.store_rows_examined)),
         "ratio"},
        {"storage.rows_per_query", Mean(samples.rows), "rows"},
        {"storage.bytes_per_row",
         Ratio(static_cast<double>(L.store_bytes),
               static_cast<double>(L.store_tuples)),
         "B"},
        {"frontend.submit_us", per_call_us("frontend.submit"), "us"},
        {"frontend.tuples_per_batch",
         Ratio(static_cast<double>(L.ingest_tuples),
               static_cast<double>(L.ingest_batches)),
         "tuples"},
        {"frontend.admission_wait_ms_p99", L.admission_wait_ms_p99, "ms"},
    };
    // Self time per span: the parts add up to the traced run's wall time.
    double sum = 0;
    for (const auto& [name, s] : self) {
      std::printf("self %-24s %10.4f s\n", name.c_str(), s);
      sum += s;
    }
    std::printf("self total %.4f s of %.4f s traced\n", sum,
                Tracer::Get().RootSeconds());
    if (!args.spans.empty() && !Tracer::Get().WriteCsv(args.spans)) {
      std::fprintf(stderr, "mindbench: cannot write %s\n", args.spans.c_str());
    }
  }
  for (const Metric& m : metrics) {
    if (!m.value) std::printf("metric %s absent (telemetry compiled out)\n", m.name.c_str());
  }
  PrintJson(c, correct, metrics);
  return correct ? 0 : 1;
}
