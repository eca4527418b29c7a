// Wall-clock spans recorded by the benchmark around its own calls into each
// layer of the library (set-up phases, Simulator::RunUntil, MindNode::Insert,
// QueryService::Submit, CutTree::Cover, ...). Nothing inside the library is
// instrumented: a span's duration is the time the benchmark spent in that
// call, and a layer's self time is that duration minus the time covered by
// the spans nested inside it.
//
// Spans are recorded only in traced runs (Tracer::Enable), and every traced
// call runs on one thread: the workloads' timed runs use the sequential
// engine, and the parallel-engine replay of check (f) runs with tracing off.
#ifndef MINDBENCH_TRACE_H_
#define MINDBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mindbench {

/// Monotonic wall clock in seconds.
inline double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static Tracer& Get();

  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  /// Opens a span (parent = innermost open span) and returns its id, or -1
  /// when tracing is off.
  int Begin(const char* name, double start);
  /// Closes span `id` and adds its duration to the call statistics.
  void End(int id, double end);

  struct CallStats {
    uint64_t calls = 0;
    double seconds = 0;
  };
  /// Calls and total duration per span name.
  const std::map<std::string, CallStats>& Calls() const { return calls_; }
  /// Self time (duration minus nested spans) summed per span name.
  std::map<std::string, double> SelfTimes() const;
  /// Duration of all completed root spans.
  double RootSeconds() const;

  /// Writes every span as CSV (id,parent,name,start_s,end_s).
  bool WriteCsv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    double start;
    double end;
  };

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, CallStats> calls_;
};

/// RAII span; a no-op unless tracing is enabled.
class Span {
 public:
  explicit Span(const char* name) {
    if (Tracer::Get().enabled()) id_ = Tracer::Get().Begin(name, WallNow());
  }
  ~Span() {
    if (id_ >= 0) Tracer::Get().End(id_, WallNow());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_ = -1;
};

}  // namespace mindbench

#endif  // MINDBENCH_TRACE_H_
