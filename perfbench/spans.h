#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"

namespace perfbench {

/// One timed call the benchmark made into a module's public function.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;    ///< 0 for a root span.
  uint64_t trace_id = 0;  ///< The operation the span belongs to.
  std::string name;       ///< "<module>.<call>", e.g. "rpc.call".
  wedge::Micros start = 0;
  wedge::Micros end = 0;

  double micros() const { return static_cast<double>(end - start); }
};

/// In-memory span store for the traced run. Disabled, it records nothing
/// and costs one branch per span; enabled, each span is one clock read at
/// either end plus a short critical section. Spans are written out as
/// JSONL once the run is over, never during the measured phase.
class SpanLog {
 public:
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span; returns its id (0 when disabled).
  uint64_t Begin(wedge::Micros* start) const {
    if (!enabled()) return 0;
    *start = wedge::RealClock::Global()->NowMicros();
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void End(uint64_t id, const char* name, uint64_t parent, uint64_t trace_id,
           wedge::Micros start) {
    if (id == 0) return;
    Record(id, name, parent, trace_id, start,
           wedge::RealClock::Global()->NowMicros());
  }

  void Record(uint64_t id, const char* name, uint64_t parent,
              uint64_t trace_id, wedge::Micros start, wedge::Micros end) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.trace_id = trace_id;
    s.name = name;
    s.start = start;
    s.end = end;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }

  /// Times fn() as one root span called `name` (recorded even when the
  /// log is disabled); returns its length in microseconds.
  template <typename Fn>
  double Time(const char* name, Fn fn) {
    wedge::Micros start = wedge::RealClock::Global()->NowMicros();
    fn();
    wedge::Micros end = wedge::RealClock::Global()->NowMicros();
    Record(next_id_.fetch_add(1, std::memory_order_relaxed), name, 0, 0,
           start, end);
    return static_cast<double>(end - start);
  }

  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

  /// Sum and count of the spans called `name`.
  static void Totals(const std::vector<Span>& spans, const std::string& name,
                     double* sum_us, uint64_t* count) {
    *sum_us = 0;
    *count = 0;
    for (const Span& s : spans) {
      if (s.name != name) continue;
      *sum_us += s.micros();
      ++*count;
    }
  }

  static bool WriteJsonl(const std::vector<Span>& spans,
                         const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                   "\"trace_id\": %llu, \"start_us\": %lld, "
                   "\"end_us\": %lld}\n",
                   s.name.c_str(), static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.trace_id),
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) into `log`.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t parent = 0,
             uint64_t trace_id = 0)
      : log_(log), name_(name), parent_(parent), trace_id_(trace_id) {
    id_ = log_.Begin(&start_);
  }
  ~ScopedSpan() { log_.End(id_, name_, parent_, trace_id_, start_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  const char* name_;
  uint64_t parent_;
  uint64_t trace_id_;
  uint64_t id_ = 0;
  wedge::Micros start_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
