#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

namespace mindbench {

using namespace mind;

namespace {

struct Key {
  int index;
  int origin;
  uint64_t seq;
  friend bool operator==(const Key& a, const Key& b) {
    return a.index == b.index && a.origin == b.origin && a.seq == b.seq;
  }
  friend bool operator<(const Key& a, const Key& b) {
    return std::tie(a.index, a.origin, a.seq) < std::tie(b.index, b.origin, b.seq);
  }
};

struct KeyHash {
  size_t operator()(const Key& k) const {
    return std::hash<uint64_t>()(k.seq * 0x9e3779b97f4a7c15ull ^
                                 (static_cast<uint64_t>(k.origin) << 8) ^
                                 static_cast<uint64_t>(k.index));
  }
};

Key KeyOf(int index, const Tuple& t) { return {index, t.origin, t.seq}; }

// Point-in-rectangle, inclusive bounds, written out here rather than taken
// from the library.
bool Inside(const Rect& r, const Point& p) {
  if (static_cast<int>(p.size()) != r.dims()) return false;
  for (int d = 0; d < r.dims(); ++d) {
    const Value v = p[static_cast<size_t>(d)];
    if (v < r.interval(d).lo || v > r.interval(d).hi) return false;
  }
  return true;
}

std::vector<Key> SortedKeys(int index, const std::vector<Tuple>& rows) {
  std::vector<Key> keys;
  keys.reserve(rows.size());
  for (const Tuple& t : rows) keys.push_back(KeyOf(index, t));
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Adds a failure line, keeping the first few of each check.
class Failures {
 public:
  explicit Failures(std::vector<std::string>* out) : out_(out) {}
  void Add(char check, const std::string& what) {
    if (++per_check_[check] > 5) return;
    out_->push_back(std::string("(") + check + ") " + what);
  }

 private:
  std::vector<std::string>* out_;
  std::map<char, int> per_check_;
};

}  // namespace

CheckReport CheckRound(const RoundResult& r) {
  CheckReport rep;
  Failures fail(&rep.failures);

  std::unordered_map<Key, const Tuple*, KeyHash> issued;
  std::map<std::pair<std::string, int>, int64_t> expected_commits;
  for (size_t ix = 0; ix < r.issued.size(); ++ix) {
    for (const Tuple& t : r.issued[ix]) {
      if (!issued.emplace(KeyOf(static_cast<int>(ix), t), &t).second) {
        fail.Add('a', "tuple issued twice: origin " + std::to_string(t.origin) +
                          " seq " + std::to_string(t.seq));
      }
      ++expected_commits[{r.index_names[ix], t.origin}];
    }
  }
  rep.inserts_attempted = issued.size();

  // (a) every issued tuple committed exactly once as a primary, unaltered.
  std::unordered_map<Key, int, KeyHash> copies;
  std::unordered_set<Key, KeyHash> altered;
  for (const PrimaryCopy& p : r.primaries) {
    const Key k = KeyOf(p.index, p.tuple);
    auto it = issued.find(k);
    if (it == issued.end()) {
      fail.Add('a', "node " + std::to_string(p.node) +
                        " stores a tuple never issued: origin " +
                        std::to_string(k.origin) + " seq " + std::to_string(k.seq));
      continue;
    }
    if (!(*it->second == p.tuple)) altered.insert(k);
    ++copies[k];
  }
  uint64_t bad_inserts = 0;
  for (const auto& [k, t] : issued) {
    auto it = copies.find(k);
    const int n = it == copies.end() ? 0 : it->second;
    if (n != 1 || altered.count(k) > 0) {
      ++bad_inserts;
      fail.Add('a', r.index_names[static_cast<size_t>(k.index)] + " origin " +
                        std::to_string(k.origin) + " seq " + std::to_string(k.seq) +
                        ": " + std::to_string(n) + " primary copies" +
                        (altered.count(k) > 0 ? ", altered" : ""));
    }
  }
  std::map<std::pair<std::string, int>, int64_t> commits;
  for (const auto& s : r.stored) ++commits[{s.index, static_cast<int>(s.origin)}];
  uint64_t commit_gap = 0;
  for (const auto& [key, want] : expected_commits) {
    const int64_t got = commits.count(key) > 0 ? commits[key] : 0;
    if (got != want) {
      commit_gap += static_cast<uint64_t>(got > want ? got - want : want - got);
      fail.Add('a', key.first + " origin " + std::to_string(key.second) + ": " +
                        std::to_string(got) + " primary commits, " +
                        std::to_string(want) + " inserts issued");
    }
  }
  for (const auto& [key, got] : commits) {
    if (expected_commits.count(key) == 0) {
      commit_gap += static_cast<uint64_t>(got);
      fail.Add('a', key.first + " origin " + std::to_string(key.second) +
                        ": commits with no insert issued");
    }
  }
  rep.inserts_failed = std::max(bad_inserts, commit_gap);

  // (b) answered queries return only issued tuples, inside the rectangle,
  // without duplicates. (g) every answered query reached at least one node,
  // which records its visit, so a query cost of 0 means the benchmark read
  // another query's cost. Unanswered queries count as failed operations.
  rep.queries_attempted = r.queries.size();
  for (size_t q = 0; q < r.queries.size(); ++q) {
    const QueryRecord& rec = r.queries[q];
    if (!rec.answered) {
      ++rep.queries_failed;
      continue;
    }
    std::unordered_set<Key, KeyHash> seen;
    std::string wrong;
    for (const Tuple& row : rec.rows) {
      const Key k = KeyOf(rec.index, row);
      auto it = issued.find(k);
      if (it == issued.end() || !(*it->second == row)) {
        wrong = "a row that was never inserted";
      } else if (!Inside(rec.rect, row.point)) {
        wrong = "a row outside the query rectangle";
      } else if (!seen.insert(k).second) {
        wrong = "a duplicate row";
      }
      if (!wrong.empty()) break;
    }
    if (!wrong.empty()) fail.Add('b', "query " + std::to_string(q) + " returned " + wrong);
    if (rec.cost_nodes == 0) {
      fail.Add('g', "query " + std::to_string(q) + " answered with no node visit recorded");
    }
    if (!wrong.empty() || rec.cost_nodes == 0) ++rep.queries_failed;
  }

  // (c) queries after the drain return exactly the brute-force filter of
  // the issued tuples.
  for (size_t q = 0; q < r.final_queries.size(); ++q) {
    const QueryRecord& rec = r.final_queries[q];
    if (!rec.answered) {
      fail.Add('c', "final query " + std::to_string(q) + " did not complete");
      continue;
    }
    std::vector<Key> want;
    for (const Tuple& t : r.issued[static_cast<size_t>(rec.index)]) {
      if (Inside(rec.rect, t.point)) want.push_back(KeyOf(rec.index, t));
    }
    std::sort(want.begin(), want.end());
    const std::vector<Key> got = SortedKeys(rec.index, rec.rows);
    if (got != want) {
      fail.Add('c', "final query " + std::to_string(q) + " returned " +
                        std::to_string(got.size()) + " rows, brute force finds " +
                        std::to_string(want.size()));
    }
  }

  // (d) each primary copy sits at the node whose code prefixes the tuple's
  // code under its version's cuts; the node codes tile the code space.
  for (const PrimaryCopy& p : r.primaries) {
    const BitCode code = p.cuts->CodeForPoint(p.tuple.point, 32);
    if (!r.node_codes[p.node].IsPrefixOf(code)) {
      fail.Add('d', "tuple origin " + std::to_string(p.tuple.origin) + " seq " +
                        std::to_string(p.tuple.seq) + " with code " +
                        code.ToString() + " stored at node " +
                        std::to_string(p.node) + " (code " +
                        r.node_codes[p.node].ToString() + ")");
    }
  }
  if (!r.complete_cover) fail.Add('d', "node codes do not form a complete cover");

  // (e) the workload's queries find data.
  auto nonempty = [](const std::vector<QueryRecord>& qs) {
    return std::count_if(qs.begin(), qs.end(), [](const QueryRecord& q) {
      return q.answered && !q.rows.empty();
    });
  };
  if (nonempty(r.queries) == 0) fail.Add('e', "every answered query came back empty");
  if (nonempty(r.final_queries) == 0) {
    fail.Add('e', "every final query came back empty");
  }
  return rep;
}

std::vector<std::string> CheckSameOutcome(const RoundResult& a,
                                          const RoundResult& b) {
  std::vector<std::string> out;
  Failures fail(&out);
  if (a.digest != b.digest) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "state digests differ: %016llx vs %016llx",
                  static_cast<unsigned long long>(a.digest),
                  static_cast<unsigned long long>(b.digest));
    fail.Add('f', buf);
  }
  auto compare = [&](const char* what, const std::vector<QueryRecord>& x,
                     const std::vector<QueryRecord>& y) {
    if (x.size() != y.size()) {
      fail.Add('f', std::string(what) + " counts differ");
      return;
    }
    for (size_t q = 0; q < x.size(); ++q) {
      if (x[q].answered != y[q].answered ||
          SortedKeys(x[q].index, x[q].rows) != SortedKeys(y[q].index, y[q].rows)) {
        fail.Add('f', std::string(what) + " " + std::to_string(q) +
                          " has different result sets");
      }
    }
  };
  compare("query", a.queries, b.queries);
  compare("final query", a.final_queries, b.final_queries);
  return out;
}

namespace {

bool Rejects(char check, const std::vector<std::string>& failures) {
  const std::string tag = std::string("(") + check + ")";
  return std::any_of(failures.begin(), failures.end(), [&](const std::string& f) {
    return f.compare(0, tag.size(), tag) == 0;
  });
}

int Report(const char* plant, char check, const std::vector<std::string>& failures) {
  const bool ok = Rejects(check, failures);
  std::printf("selftest: (%c) %-52s %s\n", check, plant,
              ok ? "rejected" : "NOT REJECTED");
  return ok ? 0 : 1;
}

QueryRecord* FirstNonempty(std::vector<QueryRecord>* qs) {
  for (QueryRecord& q : *qs) {
    if (q.answered && !q.rows.empty()) return &q;
  }
  return nullptr;
}

}  // namespace

int SelfTest(uint64_t seed) {
  WorkloadConfig cfg;
  cfg.name = "fleet1k";
  cfg.seed = seed;
  cfg.nodes = 64;
  cfg.drive_sec = 12;
  const RoundResult base = RunRound(cfg);
  cfg.parallel_engine = true;
  const RoundResult twin = RunRound(cfg);

  int bad = 0;
  const CheckReport clean = CheckRound(base);
  const auto clean_f = CheckSameOutcome(base, twin);
  std::printf("selftest: reduced fleet (64 nodes, 12 s): %zu tuples, %zu queries\n",
              base.issued[0].size(), base.queries.size());
  for (const auto& f : clean.failures) std::printf("selftest: clean round: %s\n", f.c_str());
  for (const auto& f : clean_f) std::printf("selftest: clean pair: %s\n", f.c_str());
  if (!clean.ok() || !clean_f.empty() || base.primaries.empty()) {
    std::printf("selftest: the clean rounds must pass every check\n");
    return 1;
  }

  {  // (a) a tuple committed twice
    RoundResult r = base;
    r.primaries.push_back(r.primaries.front());
    bad += Report("primary copy stored twice", 'a', CheckRound(r).failures);
  }
  {  // (a) a tuple lost
    RoundResult r = base;
    r.primaries.pop_back();
    r.stored.pop_back();
    bad += Report("primary copy missing", 'a', CheckRound(r).failures);
  }
  {  // (b) a row outside the query rectangle
    RoundResult r = base;
    QueryRecord* q = FirstNonempty(&r.queries);
    const Tuple* outside = nullptr;
    for (const Tuple& t : r.issued[0]) {
      if (!Inside(q->rect, t.point)) {
        outside = &t;
        break;
      }
    }
    q->rows.push_back(*outside);
    bad += Report("answered query with a row outside its rect", 'b',
                  CheckRound(r).failures);
  }
  {  // (b) a duplicated row
    RoundResult r = base;
    QueryRecord* q = FirstNonempty(&r.queries);
    q->rows.push_back(q->rows.front());
    bad += Report("answered query with a duplicate row", 'b', CheckRound(r).failures);
  }
  {  // (b) a row never inserted
    RoundResult r = base;
    QueryRecord* q = FirstNonempty(&r.queries);
    Tuple forged = q->rows.front();
    forged.seq += 1u << 30;
    q->rows.push_back(forged);
    bad += Report("answered query with a forged row", 'b', CheckRound(r).failures);
  }
  {  // (c) a row missing from a final query
    RoundResult r = base;
    FirstNonempty(&r.final_queries)->rows.pop_back();
    bad += Report("final query missing one row", 'c', CheckRound(r).failures);
  }
  {  // (d) a tuple at a node whose code is not its prefix
    RoundResult r = base;
    PrimaryCopy& p = r.primaries.front();
    p.node = (p.node + r.node_codes.size() / 2) % r.node_codes.size();
    bad += Report("primary copy moved to another node", 'd', CheckRound(r).failures);
  }
  {  // (d) a hole in the code cover
    RoundResult r = base;
    r.complete_cover = false;
    bad += Report("incomplete code cover", 'd', CheckRound(r).failures);
  }
  {  // (e) every query empty
    RoundResult r = base;
    for (QueryRecord& q : r.queries) q.rows.clear();
    for (QueryRecord& q : r.final_queries) q.rows.clear();
    bad += Report("all queries empty", 'e', CheckRound(r).failures);
  }
  {  // (f) engines disagree on a result set
    RoundResult r = twin;
    FirstNonempty(&r.queries)->rows.pop_back();
    bad += Report("parallel engine drops one row", 'f', CheckSameOutcome(base, r));
  }
  {  // (f) engines disagree on the digest
    RoundResult r = twin;
    r.digest ^= 1;
    bad += Report("parallel engine ends in another state", 'f',
                  CheckSameOutcome(base, r));
  }
  {  // (g) a query cost read under another query's id
    RoundResult r = base;
    FirstNonempty(&r.queries)->cost_nodes = 0;
    bad += Report("answered query with no recorded visit", 'g', CheckRound(r).failures);
  }
  std::printf("selftest: %s\n", bad == 0 ? "every check rejects its plant" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace mindbench
