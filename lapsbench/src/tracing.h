#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace lapsbench {

/// Monotonic host clock in nanoseconds (steady_clock).
std::int64_t now_ns();

/// Cost of one timed region that contains nothing: the median of many
/// back-to-back now_ns() pairs. Every per-call layer time subtracts it.
double calibrate_clock_ns();

/// Per-call timing of one layer entry point, owned by exactly one wrapper
/// (so one thread) while a run is in flight: a call count and the summed
/// raw nanoseconds of the timed regions. Raw totals still contain one clock
/// cost per call; LayerTotals::net_ns removes it.
struct CallCounter {
  std::uint64_t calls = 0;
  std::int64_t raw_ns = 0;
};

/// Counters aggregated by layer name, plus the clock cost that is
/// subtracted per call when reporting.
class LayerTotals {
 public:
  void add(const std::string& layer, const CallCounter& counter);
  std::uint64_t calls(const std::string& layer) const;
  /// Raw nanoseconds minus one clock cost per call (never below 0).
  double net_ns(const std::string& layer, double clock_ns) const;
  /// net_ns / calls, or 0 when the layer was never called.
  double ns_per_call(const std::string& layer, double clock_ns) const;
  const std::map<std::string, CallCounter>& all() const { return totals_; }

 private:
  std::map<std::string, CallCounter> totals_;
};

/// Stable storage for the counters of one traced run. Wrappers hold
/// pointers into it, and a deque never moves its elements. Grid workers
/// create counters concurrently, so make() locks; each counter is then
/// written by the one wrapper that owns it.
class CounterPool {
 public:
  CallCounter* make(const std::string& layer);
  /// Sums every counter made so far into `totals`.
  void collect(LayerTotals& totals) const;

 private:
  mutable std::mutex mutex_;
  std::deque<std::pair<std::string, CallCounter>> counters_;
};

/// One span: a named interval with the span that caused it and the grid
/// cell it belongs to (-1 outside cells).
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int cell = -1;
};

/// Per span name: count, total duration and self time (duration minus the
/// part of it that child spans cover), in seconds.
struct SpanSummary {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanSummary> summarize(
    const std::vector<SpanRecord>& spans);

/// In-memory span log. Spans are coarse (setup, repetition, cell, phase),
/// never per packet, so a mutex is cheap enough for worker threads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its id (-1 when disabled).
  int begin(const std::string& name, int parent = -1, int cell = -1);
  void end(int id);

  std::vector<SpanRecord> spans() const;

  std::map<std::string, SpanSummary> summarize() const {
    return lapsbench::summarize(spans());
  }

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span guard.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name, int parent = -1,
       int cell = -1)
      : tracer_(tracer), id_(tracer.begin(name, parent, cell)) {}
  ~Span() { tracer_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace lapsbench
