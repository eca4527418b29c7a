#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "frontend/ingest_pipeline.h"
#include "frontend/query_service.h"
#include "frontend/trace_source.h"
#include "space/histogram.h"
#include "trace.h"
#include "traffic/aggregator.h"
#include "traffic/flow_generator.h"
#include "traffic/indices.h"
#include "traffic/topology.h"

namespace mindbench {

using namespace mind;

namespace {

[[noreturn]] void Die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "mindbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(2);
}

// Independent streams derived from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull;
  z ^= z >> 31;
  z *= 0x94d049bb133111ebull;
  return z ^ (z >> 29);
}

// One call into the simulator, timed and counted when it belongs to the
// timed run (`layers` non-null).
size_t SimRunUntil(MindNet& net, SimTime t, LayerNumbers* layers) {
  Span span(layers != nullptr ? "sim.run" : "sim.run_untimed");
  const double start = WallNow();
  const size_t events = net.sim().RunUntil(t);
  if (layers != nullptr) {
    layers->sim_run_s += WallNow() - start;
    layers->sim_events += events;
  }
  return events;
}

// Interval [lo, lo + width] with width uniform in [0, max_share * domain].
Interval RandomRange(Rng* rng, const AttributeDef& attr, double max_share) {
  const Value span = attr.max - attr.min;
  const Value lo = attr.min + rng->Uniform(span + 1);
  const Value width = static_cast<Value>(rng->UniformDouble() * max_share *
                                         static_cast<double>(span));
  return {lo, lo + std::min(width, attr.max - lo)};
}

// Sums every directed link's counters.
void SumLinkStats(MindNet& net, uint64_t* messages, uint64_t* bytes) {
  *messages = 0;
  *bytes = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    for (size_t j = 0; j < net.size(); ++j) {
      const auto s = net.network().GetLinkStats(net.node(i).id(),
                                                net.node(j).id());
      *messages += s.messages;
      *bytes += s.bytes;
    }
  }
}

// Engine and registry readings taken right before and after the timed run.
struct Readings {
  uint64_t messages = 0, bytes = 0;
  EngineStats engine;
  bool has_engine = false;
  double route_hits = 0, route_misses = 0;
};

Readings Read(MindNet& net, bool with_links) {
  Readings r;
  if (with_links) SumLinkStats(net, &r.messages, &r.bytes);
  if (const EngineStats* s = net.sim().engine_stats()) {
    r.engine = *s;
    r.has_engine = true;
  }
  auto& m = net.sim().metrics();
  r.route_hits = static_cast<double>(m.counter("overlay.route.cache_hits").value());
  r.route_misses =
      static_cast<double>(m.counter("overlay.route.cache_misses").value());
  return r;
}

void Difference(const Readings& before, const Readings& after,
                LayerNumbers* L) {
  L->net_messages = after.messages - before.messages;
  L->net_bytes = after.bytes - before.bytes;
  if (after.has_engine) {
    const EngineStats& a = after.engine;
    const EngineStats& b = before.engine;
    L->engine_windows = a.windows - b.windows;
    L->engine_solo_windows = a.solo_windows - b.solo_windows;
    L->engine_events = a.events - b.events;
    L->engine_barrier_wait_s =
        static_cast<double>(a.barrier_wait_ns_total - b.barrier_wait_ns_total) /
        1e9;
    uint64_t peak = 0, total = 0;
    for (size_t s = 0; s < a.shard_events.size(); ++s) {
      const uint64_t e =
          a.shard_events[s] - (s < b.shard_events.size() ? b.shard_events[s] : 0);
      peak = std::max(peak, e);
      total += e;
    }
    if (total > 0) {
      L->engine_shard_imbalance =
          static_cast<double>(peak) * static_cast<double>(a.shard_events.size()) /
          static_cast<double>(total);
    }
  }
#ifndef MIND_TELEMETRY_DISABLED
  const double hits = after.route_hits - before.route_hits;
  const double lookups = hits + after.route_misses - before.route_misses;
  if (lookups > 0) L->route_cache_hit_rate = hits / lookups;
#endif
}

// Registry histograms over the whole round up to the drain (no other phase
// inserts or queries).
void ReadRegistry(MindNet& net, LayerNumbers* L, bool frontend) {
#ifndef MIND_TELEMETRY_DISABLED
  auto& m = net.sim().metrics();
  L->dac_insert_wait_ms_p99 = m.histogram("mind.dac.insert_wait_ms").Percentile(99);
  L->dac_query_wait_ms_p99 = m.histogram("mind.dac.query_wait_ms").Percentile(99);
  const double queries = static_cast<double>(m.counter("mind.query.count").value());
  if (queries > 0) {
    L->subqueries_per_query =
        static_cast<double>(m.histogram("mind.query.subquery_len").count()) /
        queries;
  }
  L->admission_wait_ms_p99 =
      frontend ? m.histogram("frontend.query.wait_ms").Percentile(99) : 0.0;
#else
  (void)net;
  (void)L;
  (void)frontend;
#endif
}

// Storage-side state after the drain: every primary copy with the cuts of
// the version that holds it, replica counts and scan counters.
void Collect(MindNet& net, RoundResult* out) {
  out->stored = net.stored();
  out->complete_cover = net.CodesFormCompleteCover();
  out->digest = net.StateDigest();
  for (size_t n = 0; n < net.size(); ++n) {
    MindNode& node = net.node(n);
    out->node_codes.push_back(node.overlay().code());
    for (size_t ix = 0; ix < out->index_names.size(); ++ix) {
      const std::string& name = out->index_names[ix];
      out->layers.replica_tuples += node.ReplicaTupleCount(name);
      const IndexVersions* chain = node.PrimaryVersions(name);
      if (chain == nullptr) continue;
      out->layers.store_bytes += chain->TotalBytes();
      out->layers.store_tuples += chain->TotalTuples();
      for (const auto& v : chain->Versions()) {
        const TupleStore* store = chain->Store(v.id);
        if (store == nullptr) continue;
        out->layers.store_rows_examined += store->scan_rows_examined();
        out->layers.store_rows_matched += store->scan_rows_matched();
        CutTreeRef cuts = chain->Cuts(v.id);
        for (Tuple& t : store->Query(Rect::FullSpace(cuts->schema()))) {
          out->primaries.push_back(
              {static_cast<int>(ix), n, cuts, std::move(t)});
        }
      }
    }
  }
}

// Times CutTree::Cover and TupleStore::Query on the workload's own query
// rectangles, against the latest version of each index.
void ReplayLayers(MindNet& net, RoundResult* out) {
  Span span("replay");
  int code_len = 1;
  for (const BitCode& c : out->node_codes) {
    code_len = std::max(code_len, c.length());
  }
  const size_t kCoverQueries = 2000, kStoreQueries = 100;
  double cover_s = 0, store_s = 0;
  size_t covers = 0, store_calls = 0;
  for (size_t q = 0; q < out->queries.size() && q < kCoverQueries; ++q) {
    const QueryRecord& rec = out->queries[q];
    const std::string& name = out->index_names[static_cast<size_t>(rec.index)];
    const IndexVersions* chain = net.node(0).PrimaryVersions(name);
    CutTreeRef cuts = chain->Cuts(*chain->LatestVersion());
    {
      Span s("space.cover");
      const double t0 = WallNow();
      auto codes = cuts->Cover(rec.rect, code_len);
      cover_s += WallNow() - t0;
      (void)codes;
    }
    ++covers;
    if (q >= kStoreQueries) continue;
    for (size_t n = 0; n < net.size(); ++n) {
      const IndexVersions* c = net.node(n).PrimaryVersions(name);
      const TupleStore* store = c == nullptr ? nullptr : c->Store(*c->LatestVersion());
      if (store == nullptr) continue;
      Span s("storage.query");
      const double t0 = WallNow();
      auto rows = store->Query(rec.rect);
      store_s += WallNow() - t0;
      ++store_calls;
    }
  }
  out->cover_us = covers > 0 ? 1e6 * cover_s / static_cast<double>(covers) : 0;
  out->store_query_us =
      store_calls > 0 ? 1e6 * store_s / static_cast<double>(store_calls) : 0;
}

// Runs until every query slot is filled and every issued tuple committed,
// in 1 s steps, up to `limit` of sim time.
template <typename DoneFn>
void Drain(MindNet& net, SimTime limit, LayerNumbers* layers, DoneFn done) {
  const SimTime deadline = net.sim().now() + limit;
  while (!done() && net.sim().now() < deadline) {
    SimRunUntil(net, net.sim().now() + FromSeconds(1), layers);
  }
}

// Issues `rects` after the drain from the given origins and runs until all
// have answered (check (c)).
void FinalQueries(MindNet& net, const std::vector<std::pair<size_t, QueryRecord>>& plan,
                  RoundResult* out) {
  Span span("final_queries");
  const size_t base = out->final_queries.size();
  std::vector<int> done(plan.size(), 0);
  for (size_t i = 0; i < plan.size(); ++i) {
    out->final_queries.push_back(plan[i].second);
  }
  const SimTime at = net.sim().now() + 1;
  for (size_t i = 0; i < plan.size(); ++i) {
    const size_t from = plan[i].first;
    net.sim().ScheduleOn(net.node(from).id(), at, [&, i, from] {
      QueryRecord* rec = &out->final_queries[base + i];
      auto qid = net.node(from).Query(
          out->index_names[static_cast<size_t>(rec->index)], rec->rect,
          [&, i, rec](const QueryResult& r) {
            rec->answered = r.complete;
            rec->latency_ms = ToMillis(r.latency);
            rec->rows = r.tuples;
            done[i] = 1;
          });
      if (!qid.ok()) done[i] = 1;
    });
  }
  Drain(net, FromSeconds(120), nullptr, [&] {
    return std::all_of(done.begin(), done.end(), [](int d) { return d != 0; });
  });
}

// ----------------------------------------------------------------- fleet1k

Schema FleetSchema(double drive_sec) {
  return Schema({{"dst", 0, 0xFFFFFFFFull},
                 {"ts", 0, static_cast<Value>(drive_sec) + 7},
                 {"v", 0, (1u << 20) - 1}});
}

// A fleet monitoring query: the last 10 s of timestamps, and a random range
// of up to a quarter of the domain on each other attribute.
Rect FleetQuery(Rng* rng, const Schema& schema, Value t_sec) {
  return Rect({RandomRange(rng, schema.attr(0), 0.25),
               {t_sec >= 10 ? t_sec - 10 : 0, t_sec},
               RandomRange(rng, schema.attr(2), 0.25)});
}

RoundResult RunFleet(const WorkloadConfig& cfg) {
  RoundResult out;
  out.index_names = {"fleet"};
  out.issued.resize(1);
  LayerNumbers* L = &out.layers;
  const size_t kNodes = cfg.nodes;
  const double setup_start = WallNow();

  std::unique_ptr<MindNet> net_owner;
  {
    Span span("overlay.build");
    const double t0 = WallNow();
    MindNetOptions mopts;
    // A fixed deployment seed (fig18's): for about one seed in 25 the
    // 1024-node build leaves one node unjoined (CHANGES.md, FOUND), so the
    // workload seed drives the inputs only.
    mopts.sim.seed = 0x18181818;
    mopts.sim.threads = cfg.parallel_engine ? 2 : 0;
    mopts.sim.shards = 8;
    mopts.sim.deterministic_discipline = !cfg.parallel_engine;
    mopts.overlay.heartbeat_interval = 0;
    mopts.mind.replication = 1;
    net_owner = std::make_unique<MindNet>(kNodes, mopts);
    Status st = net_owner->Build();
    if (!st.ok()) Die("overlay build", st);
    L->overlay_build_s += WallNow() - t0;
  }
  MindNet& net = *net_owner;

  IndexDef def;
  def.name = "fleet";
  def.schema = FleetSchema(cfg.drive_sec);
  def.time_attr = 1;
  {
    Span span("mind.create_index");
    Status st = net.CreateIndexEverywhere(
        def, std::make_shared<CutTree>(CutTree::Even(def.schema)), 1, 0);
    if (!st.ok()) Die("create index", st);
  }
  {
    Span span("overlay.settle");
    const double t0 = WallNow();
    SimRunUntil(net, net.sim().now() + FromSeconds(10), nullptr);
    L->overlay_build_s += WallNow() - t0;
  }

  // fig18's mix, open loop in sim time, every send jittered inside its
  // second: a quarter of the nodes insert one tuple a second, one node in 32
  // ships a 16-tuple InsertBatch train every 4 s, 16 queries a second from
  // random origins. Tuples carry their send second as timestamp.
  struct Send {
    SimTime at;
    size_t node;
    std::vector<Tuple> tuples;  // one tuple: Insert; more: InsertBatch
    int query = -1;             // slot in out.queries
  };
  std::vector<Send> sends;
  std::vector<uint64_t> core_ids;
  {
    Span span("workload.inputs");
    Rng rng(SubSeed(cfg.seed, 3));
    uint64_t seq = 0;
    const SimTime t0 = net.sim().now();
    auto point = [&](Value ts) {
      return Point{rng.Uniform(0x100000000ull), ts, rng.Uniform(1u << 20)};
    };
    auto jitter = [&](double t) {
      return t0 + FromSeconds(t) + rng.Uniform(kUsPerSec);
    };
    for (double t = 0; t < cfg.drive_sec; t += 1.0) {
      const Value ts = static_cast<Value>(t);
      for (size_t n = 0; n < kNodes; n += 4) {
        Tuple tup;
        tup.point = point(ts);
        tup.origin = static_cast<int>(n);
        tup.seq = ++seq;
        out.issued[0].push_back(tup);
        sends.push_back({jitter(t), n, {std::move(tup)}, -1});
      }
      if (static_cast<long>(t) % 4 == 0) {
        for (size_t n = 1; n < kNodes; n += 32) {
          Send s{jitter(t), n, {}, -1};
          for (int k = 0; k < 16; ++k) {
            Tuple tup;
            tup.point = point(ts);
            tup.origin = static_cast<int>(n);
            tup.seq = ++seq;
            out.issued[0].push_back(tup);
            s.tuples.push_back(std::move(tup));
          }
          sends.push_back(std::move(s));
        }
      }
      for (int q = 0; q < 16; ++q) {
        const size_t from = rng.Uniform(kNodes);
        QueryRecord rec;
        rec.rect = FleetQuery(&rng, def.schema, ts);
        out.queries.push_back(std::move(rec));
        sends.push_back({jitter(t), from, {},
                         static_cast<int>(out.queries.size()) - 1});
      }
    }
    core_ids.assign(out.queries.size(), 0);
  }

  std::vector<int> answered(out.queries.size(), 0);
  {
    Span span("workload.schedule");
    for (Send& s : sends) {
      const size_t n = s.node;
      if (s.query >= 0) {
        const size_t slot = static_cast<size_t>(s.query);
        net.sim().ScheduleOn(net.node(n).id(), s.at, [&, n, slot] {
          QueryRecord* rec = &out.queries[slot];
          Span call("mind.query_call");
          auto qid = net.node(n).Query(
              "fleet", rec->rect, [&, rec, slot](const QueryResult& r) {
                rec->answered = r.complete;
                rec->latency_ms = ToMillis(r.latency);
                rec->rows = r.tuples;
                answered[slot] = 1;
              });
          if (qid.ok()) {
            core_ids[slot] = *qid;
          } else {
            answered[slot] = 1;
          }
        });
      } else if (s.tuples.size() == 1) {
        net.sim().ScheduleOn(net.node(n).id(), s.at,
                             [&net, n, tup = std::move(s.tuples[0])] {
                               Span call("mind.insert_call");
                               (void)net.node(n).Insert("fleet", tup);
                             });
      } else {
        net.sim().ScheduleOn(
            net.node(n).id(), s.at,
            [&net, n, batch = std::move(s.tuples)]() mutable {
              Span call("mind.insert_call");
              (void)net.node(n).InsertBatch("fleet", std::move(batch));
            });
      }
    }
    sends.clear();
  }
  out.setup_s = WallNow() - setup_start;

  // ---- timed run: first scheduled operation through the drain.
  const Readings before = Read(net, cfg.replay_layers);
  const size_t to_commit = out.issued[0].size();
  {
    Span span("timed");
    const double t0 = WallNow();
    SimRunUntil(net, net.sim().now() + FromSeconds(cfg.drive_sec + 1), L);
    Drain(net, FromSeconds(120), L, [&] {
      return net.stored().size() >= to_commit &&
             std::all_of(answered.begin(), answered.end(),
                         [](int a) { return a != 0; });
    });
    out.timed_s = WallNow() - t0;
  }
  Span post("collect");
  Difference(before, Read(net, cfg.replay_layers), L);
  ReadRegistry(net, L, false);
  for (size_t q = 0; q < out.queries.size(); ++q) {
    out.queries[q].cost_nodes = net.QueryVisitCount(core_ids[q]);
  }

  // Check (c): fresh queries after the drain, from random origins.
  Rng frng(SubSeed(cfg.seed, 4));
  std::vector<std::pair<size_t, QueryRecord>> plan;
  for (int i = 0; i < 64; ++i) {
    QueryRecord rec;
    rec.rect = FleetQuery(&frng, def.schema,
                          frng.Uniform(static_cast<uint64_t>(cfg.drive_sec)));
    plan.emplace_back(frng.Uniform(kNodes), std::move(rec));
  }
  Collect(net, &out);
  FinalQueries(net, plan, &out);
  if (cfg.replay_layers) ReplayLayers(net, &out);
  return out;
}

// ------------------------------------------------------------ backbone_day

constexpr double kBusyHour = 39600;  // 11:00, the paper's busy hour
constexpr double kReplaySec = 600;   // ten minutes of day-1 trace
constexpr double kSampleSec = 1200;  // day-0 sample for the balanced cuts
constexpr size_t kClients = 11;      // one per Abilene router
constexpr SimTime kThinkTime = FromMillis(250);  // between a reply and the next query

// Thresholds lowered from the paper's so each index holds thousands of
// tuples over the replayed window.
PaperIndexOptions BackboneIndexOptions() {
  PaperIndexOptions o;
  o.index1_min_fanout = 2;
  o.index2_min_octets = 2 * 1024;
  o.index3_min_flow_size = 256;
  o.index3_min_flows = 1;
  return o;
}

// The paper's monitoring query (§4.1): the 5 minutes up to `t_end` on the
// timestamp, uniform random ranges on every other attribute.
Rect MonitoringQuery(Rng* rng, const IndexDef& def, Value t_end) {
  std::vector<Interval> ivs;
  for (int d = 0; d < def.schema.dims(); ++d) {
    const auto& attr = def.schema.attr(d);
    if (d == def.time_attr) {
      ivs.push_back({t_end > 300 ? t_end - 300 : 0, t_end});
    } else {
      const Value a = rng->UniformRange(attr.min, attr.max);
      const Value b = rng->UniformRange(attr.min, attr.max);
      ivs.push_back({std::min(a, b), std::max(a, b)});
    }
  }
  return Rect(std::move(ivs));
}

std::vector<FlowRecord> GenerateOrdered(FlowGenerator& gen, int day, double t0,
                                        double t1, LayerNumbers* L) {
  Span span("traffic.generate");
  const double start = WallNow();
  std::vector<FlowRecord> flows = gen.GenerateVec(day, t0, t1);
  std::stable_sort(flows.begin(), flows.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.time_sec < b.time_sec;
                   });
  L->traffic_generate_s += WallNow() - start;
  L->traffic_flows += flows.size();
  return flows;
}

RoundResult RunBackbone(const WorkloadConfig& cfg) {
  RoundResult out;
  out.index_names = {"index1_fanout", "index2_octets", "index3_flowsize"};
  out.issued.resize(3);
  LayerNumbers* L = &out.layers;
  const double setup_start = WallNow();
  const PaperIndexOptions iopts = BackboneIndexOptions();
  const IndexDef defs[3] = {MakeIndex1(iopts), MakeIndex2(iopts),
                            MakeIndex3(iopts)};
  Topology topo = Topology::AbileneGeant();

  std::unique_ptr<MindNet> net_owner;
  {
    Span span("overlay.build");
    const double t0 = WallNow();
    MindNetOptions mopts;
    mopts.sim.seed = SubSeed(cfg.seed, 11);
    mopts.overlay.heartbeat_interval = FromSeconds(5);
    mopts.mind.replication = 1;
    mopts.positions = topo.Positions();
    net_owner = std::make_unique<MindNet>(topo.size(), mopts);
    Status st = net_owner->Build();
    if (!st.ok()) Die("overlay build", st);
    L->overlay_build_s += WallNow() - t0;
  }
  MindNet& net = *net_owner;
  {
    Span span("mind.create_index");
    for (const IndexDef& def : defs) {
      Status st = net.CreateIndexEverywhere(
          def, std::make_shared<CutTree>(CutTree::Even(def.schema)), 1, 0);
      if (!st.ok()) Die("create " + def.name, st);
    }
  }

  FlowGeneratorOptions gopts;
  gopts.seed = SubSeed(cfg.seed, 13);
  FlowGenerator gen(topo, gopts);

  // Day-0 sample -> histogram-balanced cuts for day 1 (§3.7).
  std::vector<FlowRecord> day0 =
      GenerateOrdered(gen, 0, kBusyHour, kBusyHour + kSampleSec, L);
  std::vector<std::vector<Point>> sample(3);
  {
    Span span("traffic.aggregate");
    AggregatorOptions aopts;
    Aggregator agg(aopts);
    for (const FlowRecord& f : day0) agg.Add(f);
    uint64_t seq = 0;
    for (const AggregateRecord& rec : agg.DrainAll()) {
      if (auto t = ToIndex1Tuple(rec, ++seq, iopts)) sample[0].push_back(t->point);
      if (auto t = ToIndex2Tuple(rec, ++seq, iopts)) sample[1].push_back(t->point);
      if (auto t = ToIndex3Tuple(rec, ++seq, iopts)) sample[2].push_back(t->point);
    }
    day0.clear();
    day0.shrink_to_fit();
  }
  std::vector<CutTreeRef> cuts(3);
  {
    Span span("space.cuts");
    const double t0 = WallNow();
    for (int i = 0; i < 3; ++i) {
      Histogram h(defs[i].schema, 64);
      for (Point p : sample[static_cast<size_t>(i)]) {
        p[static_cast<size_t>(defs[i].time_attr)] += 86400;  // sits on day 1
        h.Add(p);
      }
      auto tree = CutTree::Balanced(defs[i].schema, h, 10);
      if (!tree.ok()) Die("balanced cuts", tree.status());
      cuts[static_cast<size_t>(i)] = std::make_shared<CutTree>(std::move(tree).value());
    }
    L->space_cuts_s += WallNow() - t0;
  }
  {
    Span span("mind.install_cuts");
    for (int i = 0; i < 3; ++i) {
      Status st = net.InstallCutsEverywhere(out.index_names[static_cast<size_t>(i)],
                                            2, cuts[static_cast<size_t>(i)], 86400);
      if (!st.ok()) Die("install cuts", st);
    }
  }
  const double trace_t0 = 86400 + kBusyHour;
  std::vector<FlowRecord> day1 =
      GenerateOrdered(gen, 1, kBusyHour, kBusyHour + kReplaySec, L);

  // Front-end: ingest replays the day-1 trace open loop; admission limits sit
  // above what 11 closed-loop clients can hold, so nothing is rejected.
  std::unique_ptr<frontend::VectorTraceSource> source;
  std::unique_ptr<frontend::QueryService> service;
  std::unique_ptr<frontend::IngestPipeline> ingest;
  std::vector<frontend::ClientId> clients;
  std::vector<Rng> client_rng;
  std::vector<uint64_t> client_k(kClients, 0);
  std::vector<std::pair<size_t, uint64_t>> core_key;  // per query: (home, k)
  size_t outstanding = 0;
  bool stop = false;
  std::function<void(size_t)> submit;
  SimTime epoch = 0;
  {
    Span span("workload.schedule");
    source = std::make_unique<frontend::VectorTraceSource>(std::move(day1));
    frontend::QueryServiceOptions qopts;
    qopts.max_inflight = 32;
    qopts.max_queue = 128;
    qopts.per_client_quota = 8;
    qopts.max_cost_tuples = 0;
    qopts.default_deadline = FromSeconds(30);
    service = std::make_unique<frontend::QueryService>(&net, qopts);
    frontend::IngestOptions in;
    in.t0_sec = trace_t0;
    in.index_opts = iopts;
    in.batcher.batch_max_tuples = 32;
    in.batcher.flush_deadline = FromMillis(500);
    in.batcher.queue_max_tuples = 1 << 16;
    ingest = std::make_unique<frontend::IngestPipeline>(&net, source.get(), in);
    ingest->set_on_tuple([&](const std::string& index, const Tuple& t) {
      for (size_t i = 0; i < 3; ++i) {
        if (out.index_names[i] == index) out.issued[i].push_back(t);
      }
      service->ObserveInsert(index, t.point);
    });
    for (size_t c = 0; c < kClients; ++c) {
      clients.push_back(service->RegisterClient(net.node(c).id()));
      client_rng.emplace_back(SubSeed(cfg.seed, 100 + c));
    }
    submit = [&](size_t c) {
      if (stop) return;
      const double trace_now =
          trace_t0 + ToSeconds(net.sim().now() - epoch);
      const int which = static_cast<int>((c + client_k[c]) % 3);
      ++client_k[c];
      QueryRecord rec;
      rec.index = which;
      rec.rect = MonitoringQuery(&client_rng[c], defs[which],
                                 static_cast<Value>(trace_now));
      const size_t slot = out.queries.size();
      out.queries.push_back(rec);
      core_key.emplace_back(c, client_k[c]);
      ++outstanding;
      auto deliver = [&, slot, c](const frontend::Delivery& d) {
        QueryRecord& r = out.queries[slot];
        r.rows.insert(r.rows.end(), d.tuples.begin(), d.tuples.end());
        if (!d.done) return;
        r.answered = d.complete;
        r.latency_ms = ToMillis(d.latency);
        --outstanding;
        net.sim().events().Schedule(kThinkTime, [&, c] { submit(c); });
      };
      bool admitted = false;
      {
        Span call("frontend.submit");
        auto outcome = service->Submit(
            clients[c], out.index_names[static_cast<size_t>(which)], rec.rect,
            deliver);
        admitted = outcome.ok() &&
                   frontend::QueryService::Admitted(outcome->admission);
      }
      if (!admitted) {
        --outstanding;
        // Closed loop: a refused client tries again a second later.
        net.sim().events().Schedule(FromSeconds(1), [&, c] { submit(c); });
      }
    };
  }
  out.setup_s = WallNow() - setup_start;

  // ---- timed run: ingest start through the drain.
  const Readings before = Read(net, cfg.replay_layers);
  {
    Span span("timed");
    const double t0 = WallNow();
    epoch = net.sim().now();
    ingest->Start();
    for (size_t c = 0; c < kClients; ++c) {
      net.sim().events().Schedule(FromMillis(10.0 * static_cast<double>(c + 1)),
                                  [&, c] { submit(c); });
    }
    while (!ingest->done()) {
      SimRunUntil(net, net.sim().now() + FromSeconds(1), L);
    }
    stop = true;
    size_t issued = 0;
    for (const auto& v : out.issued) issued += v.size();
    const size_t to_commit = issued - ingest->tuples_dropped();
    Drain(net, FromSeconds(120), L, [&] {
      return outstanding == 0 && net.stored().size() >= to_commit;
    });
    out.timed_s = WallNow() - t0;
  }
  Span post("collect");
  Difference(before, Read(net, cfg.replay_layers), L);
  ReadRegistry(net, L, true);
  L->ingest_batches = ingest->batches_sent();
  L->ingest_tuples = ingest->tuples_out();
  // Front-end queries reach the core from the client's home node in
  // submission order, so client c's k-th query is core query (home << 32 | k).
  for (size_t q = 0; q < out.queries.size(); ++q) {
    const auto [c, k] = core_key[q];
    const uint64_t id =
        (static_cast<uint64_t>(static_cast<uint32_t>(net.node(c).id())) << 32) | k;
    out.queries[q].cost_nodes = net.QueryVisitCount(id);
  }

  // Check (c): 20 fresh queries per index after the drain, over windows
  // inside the replayed trace.
  Rng frng(SubSeed(cfg.seed, 14));
  std::vector<std::pair<size_t, QueryRecord>> plan;
  for (int i = 0; i < 60; ++i) {
    QueryRecord rec;
    rec.index = i % 3;
    const Value t_end = static_cast<Value>(trace_t0) + 300 +
                        frng.Uniform(static_cast<uint64_t>(kReplaySec) - 300);
    rec.rect = MonitoringQuery(&frng, defs[rec.index], t_end);
    plan.emplace_back(frng.Uniform(net.size()), std::move(rec));
  }
  Collect(net, &out);
  FinalQueries(net, plan, &out);
  if (cfg.replay_layers) ReplayLayers(net, &out);
  return out;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "backbone_day" || name == "fleet1k";
}

RoundResult RunRound(const WorkloadConfig& config) {
  if (config.name == "backbone_day") return RunBackbone(config);
  return RunFleet(config);
}

}  // namespace mindbench
