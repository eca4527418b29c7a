// Correctness checks run after each round, outside the timed run. Every
// check compares the program's answers with a computation the benchmark
// makes on its own (brute-force filters over the tuples it issued) or with a
// property the method must have (placement by code prefix, a complete code
// cover, engine-independent results).
#ifndef MINDBENCH_CHECKS_H_
#define MINDBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace mindbench {

struct CheckReport {
  /// One line per violation, each starting with its check letter "(a)".."(g)".
  std::vector<std::string> failures;
  uint64_t inserts_attempted = 0;
  uint64_t inserts_failed = 0;  ///< not committed exactly once, or altered
  uint64_t queries_attempted = 0;
  uint64_t queries_failed = 0;  ///< incomplete, rejected or wrong
  bool ok() const { return failures.empty(); }
};

/// Checks (a)-(e) and (g) on one round.
CheckReport CheckRound(const RoundResult& round);

/// Check (f): two runs of the same inputs on different engines must end in
/// the same state digest with identical per-query result sets.
std::vector<std::string> CheckSameOutcome(const RoundResult& a,
                                          const RoundResult& b);

/// Runs a reduced fleet round on both engines, then shows each check
/// rejecting a planted wrong answer. Returns 0 when every check passes the
/// clean rounds and rejects its plant.
int SelfTest(uint64_t seed);

}  // namespace mindbench

#endif  // MINDBENCH_CHECKS_H_
