#include "tracing.h"

#include <algorithm>
#include <chrono>

namespace lapsbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double calibrate_clock_ns() {
  constexpr int kBatches = 31;
  constexpr int kPairs = 4096;
  std::vector<double> batch_means;
  batch_means.reserve(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    std::int64_t total = 0;
    for (int i = 0; i < kPairs; ++i) {
      const std::int64_t t0 = now_ns();
      const std::int64_t t1 = now_ns();
      total += t1 - t0;
    }
    batch_means.push_back(static_cast<double>(total) / kPairs);
  }
  std::nth_element(batch_means.begin(), batch_means.begin() + kBatches / 2,
                   batch_means.end());
  return batch_means[kBatches / 2];
}

void LayerTotals::add(const std::string& layer, const CallCounter& counter) {
  CallCounter& total = totals_[layer];
  total.calls += counter.calls;
  total.raw_ns += counter.raw_ns;
}

std::uint64_t LayerTotals::calls(const std::string& layer) const {
  const auto it = totals_.find(layer);
  return it == totals_.end() ? 0 : it->second.calls;
}

double LayerTotals::net_ns(const std::string& layer, double clock_ns) const {
  const auto it = totals_.find(layer);
  if (it == totals_.end()) return 0.0;
  const double net = static_cast<double>(it->second.raw_ns) -
                     clock_ns * static_cast<double>(it->second.calls);
  return std::max(0.0, net);
}

double LayerTotals::ns_per_call(const std::string& layer,
                                double clock_ns) const {
  const std::uint64_t n = calls(layer);
  return n == 0 ? 0.0 : net_ns(layer, clock_ns) / static_cast<double>(n);
}

CallCounter* CounterPool::make(const std::string& layer) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.emplace_back(layer, CallCounter{});
  return &counters_.back().second;
}

void CounterPool::collect(LayerTotals& totals) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [layer, counter] : counters_) totals.add(layer, counter);
}

int Tracer::begin(const std::string& name, int parent, int cell) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(SpanRecord{name, t, t, parent, cell});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, SpanSummary> summarize(
    const std::vector<SpanRecord>& all) {
  // Child intervals per parent; concurrent children (grid cells on several
  // workers) overlap, so self time subtracts their union, not their sum.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      all.size());
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::map<std::string, SpanSummary> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = all[i].start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, reach);
      const std::int64_t to = std::min(end, all[i].end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, end);
    }
    const std::int64_t duration = all[i].end_ns - all[i].start_ns;
    SpanSummary& summary = out[all[i].name];
    summary.count += 1;
    summary.total_s += static_cast<double>(duration) * 1e-9;
    summary.self_s += static_cast<double>(duration - covered) * 1e-9;
  }
  return out;
}

}  // namespace lapsbench
