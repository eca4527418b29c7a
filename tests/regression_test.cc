// Regression tests for defects found (and fixed) while reproducing the
// paper's experiments. Each test pins the failure mode described in
// EXPERIMENTS.md §"Findings".
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "mind/mind_net.h"
#include "space/cut_tree.h"
#include "traffic/indices.h"

namespace mind {
namespace {

// ---------------------------------------------------------------- network

TEST(NetworkOrderingTest, HeavyJitterNeverReordersALink) {
  // The join protocol assumes TCP's in-order delivery; the simulated link
  // must keep FIFO order no matter how heavy the jitter tail is.
  struct SeqMsg : Message {
    explicit SeqMsg(int s) : seq(s) {}
    int seq;
    const char* TypeName() const override { return "Seq"; }
  };
  struct SeqHost : Host {
    std::vector<int> got;
    void HandleMessage(NodeId, const MessagePtr& m) override {
      got.push_back(dynamic_cast<SeqMsg*>(m.get())->seq);
    }
  };
  EventQueue q;
  NetworkOptions opts;
  opts.jitter_mu_ln_ms = 5.0;   // ~150 ms median
  opts.jitter_sigma_ln = 2.0;   // wild tail: raw delays would reorder badly
  Network net(&q, opts);
  SeqHost a, b;
  net.AddHost(&a);
  net.AddHost(&b);
  for (int i = 0; i < 200; ++i) {
    net.Send(0, 1, std::make_shared<SeqMsg>(i));
  }
  q.Run();
  ASSERT_EQ(b.got.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(b.got[i], i);
}

// ---------------------------------------------------------------- cut tree

TEST(BalancedCutRegressionTest, SubCellDataStillSplits) {
  // A day of timestamps spans less than one histogram cell of a 14-day
  // domain. Median-of-cell-centers used to put ALL live data on one side of
  // every time cut; interpolation within the cell must split it.
  Schema s({{"ts", 0, 14 * 86400ull}, {"v", 0, 1000}});
  Histogram h(s, 16);  // ts cell width = 75600 s > the 3600 s data range
  Rng rng(3);
  std::vector<Point> pts;
  for (int i = 0; i < 4000; ++i) {
    pts.push_back({86400 + rng.Uniform(3600), rng.Uniform(1001)});
    h.Add(pts.back());
  }
  auto tree = CutTree::Balanced(s, h, 6);
  ASSERT_TRUE(tree.ok());
  // Count side-1 fractions per level: no level may send everything one way.
  for (int lvl = 0; lvl < 4; ++lvl) {
    int ones = 0;
    for (const auto& p : pts) {
      if (tree->CodeForPoint(p, lvl + 1).bit(lvl)) ++ones;
    }
    double frac = static_cast<double>(ones) / static_cast<double>(pts.size());
    EXPECT_GT(frac, 0.02) << "level " << lvl << " is degenerate";
    EXPECT_LT(frac, 0.98) << "level " << lvl << " is degenerate";
  }
}

TEST(BalancedCutRegressionTest, DegenerateDimensionIsSkipped) {
  // One attribute is a constant; round-robin cutting must not burn levels
  // on it (they would halve the usable region count).
  Schema s({{"constant", 5, 5}, {"x", 0, 100000}});
  Histogram h(s, 32);
  Rng rng(5);
  std::vector<Point> pts;
  for (int i = 0; i < 3000; ++i) {
    pts.push_back({5, rng.Uniform(100001)});
    h.Add(pts.back());
  }
  auto tree = CutTree::Balanced(s, h, 5);
  ASSERT_TRUE(tree.ok());
  std::set<std::string> codes;
  for (const auto& p : pts) codes.insert(tree->CodeForPoint(p, 5).ToString());
  // With a useless dimension skipped, the 5 cuts land on x and produce
  // (nearly) 32 populated regions; the old behaviour produced <= 8.
  EXPECT_GE(codes.size(), 24u);
}

// ---------------------------------------------------------------- mind

IndexDef SmallDef() {
  IndexDef def;
  def.name = "reg";
  def.schema = Schema({{"x", 0, 9999}, {"ts", 0, UINT64_MAX}, {"y", 0, 9999}});
  def.time_attr = 1;
  return def;
}

TEST(QueryCompletionRegressionTest, SupplementalRepliesDoNotCompleteQueries) {
  // Late joiners forward resolve-only copies to their split parent (§3.4).
  // Those supplementary (often empty) replies must not mark regions covered,
  // or they race the owner's real reply and the query "completes" with
  // missing data. Build a net with a late joiner, load the owner regions,
  // and verify every query returns the full answer.
  MindNetOptions opts;
  opts.sim.seed = 4242;
  MindNet net(10, opts);
  net.node(0).BecomeFirst();
  for (size_t i = 1; i < 9; ++i) {
    net.node(i).Join(0);
    net.sim().RunFor(FromSeconds(3));
  }
  ASSERT_EQ(net.JoinedCount(), 9u);
  IndexDef def = SmallDef();
  ASSERT_TRUE(net.CreateIndexEverywhere(
                     def, std::make_shared<CutTree>(CutTree::Even(def.schema)))
                  .ok());
  Rng rng(7);
  std::vector<Tuple> all;
  for (int i = 0; i < 300; ++i) {
    Tuple t;
    t.point = {rng.Uniform(10000), static_cast<Value>(1000 + i),
               rng.Uniform(10000)};
    t.origin = static_cast<int>(i % 9);
    t.seq = i;
    all.push_back(t);
    ASSERT_TRUE(net.node(i % 9).Insert("reg", t).ok());
    if (i % 40 == 0) net.sim().RunFor(FromSeconds(1));
  }
  net.sim().RunFor(FromSeconds(30));

  // Node 9 joins late: every resolve at node 9's region now also generates a
  // supplemental forward to its parent.
  net.node(9).Join(0);
  SimTime deadline = net.sim().now() + FromSeconds(120);
  while (net.JoinedCount() < 10 && net.sim().now() < deadline) {
    net.sim().RunFor(FromSeconds(1));
  }
  ASSERT_EQ(net.JoinedCount(), 10u);
  net.sim().RunFor(FromSeconds(5));

  for (int iter = 0; iter < 15; ++iter) {
    Value a = rng.Uniform(10000), b = rng.Uniform(10000);
    Rect q({{std::min(a, b), std::max(a, b)}, {0, UINT64_MAX}, {0, 9999}});
    std::optional<QueryResult> res;
    auto qid = net.node(iter % 10).Query("reg", q,
                                         [&](const QueryResult& r) { res = r; });
    ASSERT_TRUE(qid.ok());
    SimTime qdeadline = net.sim().now() + FromSeconds(90);
    while (!res && net.sim().now() < qdeadline) net.sim().RunFor(FromMillis(200));
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(res->complete);
    std::set<uint64_t> expected, got;
    for (const auto& t : all) {
      if (q.Contains(t.point)) expected.insert(t.seq);
    }
    for (const auto& t : res->tuples) got.insert(t.seq);
    EXPECT_EQ(got, expected) << "query " << iter << " lost tuples";
  }
}

TEST(TakeoverRegressionTest, SiblingPairDeathEventuallyRecovered) {
  // When a node AND its whole sibling subtree die together, vacancy notices
  // routed into the dead pair vanish; the detector-side escalation must walk
  // up the virtual tree until a live branch absorbs the region.
  MindNetOptions opts;
  opts.sim.seed = 321;
  opts.overlay.heartbeat_interval = FromSeconds(2);
  MindNet net(24, opts);
  ASSERT_TRUE(net.Build().ok());

  // Find a node whose exact sibling exists; kill both at once.
  int a = -1, b = -1;
  for (size_t i = 0; i < net.size() && a < 0; ++i) {
    BitCode sib = net.node(i).overlay().code().Sibling();
    for (size_t j = 1; j < net.size(); ++j) {
      if (j != i && net.node(j).overlay().code() == sib) {
        a = static_cast<int>(i);
        b = static_cast<int>(j);
        break;
      }
    }
  }
  ASSERT_GE(a, 0);
  net.node(a).Crash();
  net.node(b).Crash();
  net.sim().RunFor(FromSeconds(120));
  EXPECT_TRUE(net.CodesFormCompleteCover())
      << "dead sibling pair's region was never absorbed";
}

// Recursive takeover relabels the all-zeros node Z = x0... of a vacancy's
// sibling subtree x into the vacancy x' = sibling(x). These helpers find
// such a Z in a 32-node overlay; `leaf_sibling` asks for Z = x00 with leaf
// siblings Y = x01 and S = x1, otherwise for Z = x0 whose sibling x1 is a
// subtree. The smallest x' wins, and the tests kill all of it.
struct RelabelShape {
  int z = -1, y = -1, s = -1;
  BitCode x;
  std::vector<size_t> doomed;  // the x' subtree
};

RelabelShape FindRelabelShape(MindNet& net, bool leaf_sibling) {
  auto holder = [&](const BitCode& c) {
    for (size_t i = 0; i < net.size(); ++i) {
      if (net.node(i).overlay().code() == c) return static_cast<int>(i);
    }
    return -1;
  };
  RelabelShape best;
  for (size_t i = 1; i < net.size(); ++i) {
    const BitCode c = net.node(i).overlay().code();
    const int len = c.length();
    if (len < 3 || c.bit(len - 1) != 0) continue;
    RelabelShape cand;
    cand.z = static_cast<int>(i);
    if (leaf_sibling) {
      if (c.bit(len - 2) != 0) continue;
      cand.x = c.Prefix(len - 2);
      cand.y = holder(cand.x.Child(0).Child(1));
      cand.s = holder(cand.x.Child(1));
      if (cand.y < 0 || cand.s < 0) continue;
    } else {
      if (holder(c.Sibling()) >= 0) continue;
      cand.x = c.Parent();
    }
    for (size_t j = 0; j < net.size(); ++j) {
      if (cand.x.Sibling().IsPrefixOf(net.node(j).overlay().code())) {
        cand.doomed.push_back(j);
      }
    }
    if (best.z < 0 || cand.doomed.size() < best.doomed.size()) best = cand;
  }
  return best;
}

MindNetOptions RelabelOptions() {
  MindNetOptions opts;
  opts.sim.seed = 5;
  opts.overlay.heartbeat_interval = FromSeconds(2);
  opts.mind.replication = 1;
  return opts;
}

TEST(TakeoverRegressionTest, RelabeledNodesDataFollowsTheSlotItLeaves) {
  // Z = x00's only replica holder is its leaf sibling Y. Killing Y and x'
  // makes Z absorb Y (Z = x0), then relabel into x' while S = x1 absorbs x.
  // Z's data (its primaries and Y's replicas) must follow to S; without the
  // handoff S took x over empty and queries into x0 came back with nothing.
  MindNet net(32, RelabelOptions());
  ASSERT_TRUE(net.Build().ok());
  const RelabelShape sh = FindRelabelShape(net, /*leaf_sibling=*/true);
  ASSERT_GE(sh.z, 0) << "no Z/Y/S shape in this overlay";
  IndexDef def = SmallDef();
  auto cuts = std::make_shared<CutTree>(CutTree::Even(def.schema));
  ASSERT_TRUE(net.CreateIndexEverywhere(def, cuts).ok());
  Rng rng(99);
  std::set<uint64_t> expected;
  for (int holder : {sh.z, sh.y}) {
    auto r = cuts->RectForCode(net.node(holder).overlay().code());
    ASSERT_TRUE(r.has_value());
    for (int k = 0; k < 40; ++k) {
      Tuple t;
      for (int d = 0; d < r->dims(); ++d) {
        t.point.push_back(rng.UniformRange(r->interval(d).lo, r->interval(d).hi));
      }
      t.origin = sh.s;
      t.seq = expected.size();
      expected.insert(t.seq);
      ASSERT_TRUE(net.node(sh.s).Insert("reg", t).ok());
    }
  }
  net.sim().RunFor(FromSeconds(30));

  net.node(sh.y).Crash();
  for (size_t w : sh.doomed) net.node(w).Crash();
  net.sim().RunFor(FromSeconds(120));
  ASSERT_EQ(net.node(sh.z).overlay().code(), sh.x.Sibling()) << "no relabel";
  ASSERT_EQ(net.node(sh.s).overlay().code(), sh.x) << "S did not absorb x";

  std::optional<QueryResult> res;
  ASSERT_TRUE(net.node(sh.s)
                  .Query("reg", *cuts->RectForCode(sh.x.Child(0)),
                         [&](const QueryResult& r) { res = r; })
                  .ok());
  net.sim().RunFor(FromSeconds(60));
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->complete);
  std::set<uint64_t> got;
  for (const auto& t : res->tuples) got.insert(t.seq);
  EXPECT_EQ(got, expected);
}

TEST(TakeoverRegressionTest, RelabelNeedsAnExactSiblingHeir) {
  // Z = x0's sibling x1 is a subtree. Only an exact sibling absorbs a
  // relabeled slot, so relabeling Z into a dead x' would leave x0 with no
  // owner, trading one hole for another. Z and all of x must stay put.
  MindNet net(32, RelabelOptions());
  ASSERT_TRUE(net.Build().ok());
  const RelabelShape sh = FindRelabelShape(net, /*leaf_sibling=*/false);
  ASSERT_GE(sh.z, 0) << "no Z shape in this overlay";
  std::vector<std::pair<size_t, BitCode>> under_x;
  for (size_t j = 0; j < net.size(); ++j) {
    const BitCode& c = net.node(j).overlay().code();
    if (sh.x.IsPrefixOf(c)) under_x.emplace_back(j, c);
  }
  for (size_t w : sh.doomed) net.node(w).Crash();
  net.sim().RunFor(FromSeconds(120));
  for (const auto& [j, code] : under_x) {
    EXPECT_EQ(net.node(j).overlay().code(), code) << "node " << j << " moved";
  }
}

TEST(RebalanceRegressionTest, TimeShiftedCutsServeTheNextDay) {
  // Without the one-day time shift, every next-day tuple lands on the high
  // side of every time cut and storage re-concentrates.
  Schema s({{"x", 0, 999}, {"ts", 0, 14 * 86400ull}});
  Histogram h(s, 64);
  Rng rng(9);
  // "Yesterday's" data, shifted forward one day as the service does.
  for (int i = 0; i < 3000; ++i) {
    h.Add({rng.Uniform(1000), 86400 + 39600 + rng.Uniform(3600)});
  }
  auto tree = CutTree::Balanced(s, h, 6);
  ASSERT_TRUE(tree.ok());
  // "Today's" tuples (same time-of-day, one day later) spread over many
  // regions rather than collapsing into one.
  std::set<std::string> codes;
  for (int i = 0; i < 3000; ++i) {
    Point p{rng.Uniform(1000), 86400 + 39600 + rng.Uniform(3600)};
    codes.insert(tree->CodeForPoint(p, 6).ToString());
  }
  EXPECT_GE(codes.size(), 16u);
}

TEST(AnomalyQueryRegressionTest, ThresholdAboveDomainCapClampsToCap) {
  // Index-2 caps octets at 2 MB; the paper's alpha-flow query asks for
  // > 4,000,000 octets. Values above the cap are stored clamped, so the
  // query must clamp too (not produce an empty/inverted interval).
  AggregateRecord rec;
  rec.src_prefix = IpPrefix(0x0A010000, 16);
  rec.dst_prefix = IpPrefix(0x0A020000, 16);
  rec.window_start = 300;
  rec.octets = 10'000'000;  // above the 2 MB cap
  rec.flows = 3;
  rec.avg_flow_size = 1'000'000;
  auto t = ToIndex2Tuple(rec, 1);
  ASSERT_TRUE(t.has_value());
  PaperIndexOptions defaults;
  EXPECT_EQ(t->point[2], defaults.index2_max_octets);
  // A clamped query rectangle [cap, cap] contains the clamped tuple.
  Rect q({{0, 0xFFFFFFFFull},
          {0, 100000},
          {defaults.index2_max_octets, defaults.index2_max_octets}});
  EXPECT_TRUE(q.Contains(t->point));
}

}  // namespace
}  // namespace mind
