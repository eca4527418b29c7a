#include "trace.h"

#include <cstdio>

namespace mindbench {

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Begin(const char* name, double start) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, parent, start, -1});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id, double end) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = end;
  // Spans are RAII-scoped, so the one ending is always the innermost.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  CallStats& s = calls_[span.name];
  ++s.calls;
  s.seconds += end - span.start;
}

std::map<std::string, double> Tracer::SelfTimes() const {
  // Children of one parent never overlap (they run one after another on the
  // control thread), so the covered part is the sum of their durations.
  std::vector<double> child_sum(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end >= 0) {
      child_sum[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < 0) continue;
    self[s.name] += (s.end - s.start) - child_sum[i];
  }
  return self;
}

double Tracer::RootSeconds() const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && s.end >= 0) total += s.end - s.start;
  }
  return total;
}

bool Tracer::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,name,start_s,end_s\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%d,%s,%.9f,%.9f\n", i, s.parent, s.name, s.start,
                 s.end);
  }
  return std::fclose(f) == 0;
}

}  // namespace mindbench
