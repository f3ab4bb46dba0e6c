#include "layers.h"

#include <type_traits>

namespace lapsbench {

namespace {

/// Runs `fn` inside one timed region charged to `counter`.
template <typename Fn>
decltype(auto) timed(CallCounter* counter, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    counter->raw_ns += now_ns() - t0;
    ++counter->calls;
  } else {
    auto result = fn();
    counter->raw_ns += now_ns() - t0;
    ++counter->calls;
    return result;
  }
}

}  // namespace

TimedScheduler::TimedScheduler(std::unique_ptr<laps::Scheduler> inner,
                               CallCounter* schedule)
    : inner_(std::move(inner)), schedule_(schedule) {}

void TimedScheduler::attach(std::size_t num_cores) {
  inner_->attach(num_cores);
}

laps::CoreId TimedScheduler::schedule(const laps::SimPacket& pkt,
                                      const laps::NpuView& view) {
  return timed(schedule_, [&] { return inner_->schedule(pkt, view); });
}

std::string TimedScheduler::name() const { return inner_->name(); }

std::map<std::string, double> TimedScheduler::extra_stats() const {
  return inner_->extra_stats();
}

void TimedScheduler::set_event_sink(laps::SchedEventSink* sink) {
  sink_ = sink;
  inner_->set_event_sink(sink == nullptr ? nullptr : this);
}

void TimedScheduler::notify_core_down(laps::CoreId core,
                                      const laps::NpuView& view) {
  inner_->notify_core_down(core, view);
}

void TimedScheduler::notify_core_up(laps::CoreId core,
                                    const laps::NpuView& view) {
  inner_->notify_core_up(core, view);
}

std::vector<std::uint64_t> TimedScheduler::aggressive_snapshot() const {
  return inner_->aggressive_snapshot();
}

laps::SchedTelemetry TimedScheduler::telemetry_sample() const {
  return inner_->telemetry_sample();
}

void TimedScheduler::sched_event(const laps::SchedEvent& event) {
  if (event.kind == laps::SchedEvent::Kind::kCoreGrant) ++core_grants_;
  if (event.kind == laps::SchedEvent::Kind::kAggressiveMigration) {
    ++migrations_;
  }
  if (sink_ != nullptr) sink_->sched_event(event);
}

TimedProbe::TimedProbe(laps::SimProbe& inner, CallCounter* hooks)
    : inner_(inner), hooks_(hooks) {}

void TimedProbe::on_run_begin(const laps::RunInfo& info) {
  timed(hooks_, [&] { inner_.on_run_begin(info); });
}

void TimedProbe::on_arrival(laps::TimeNs now, const laps::SimPacket& pkt) {
  ++arrivals_;
  timed(hooks_, [&] { inner_.on_arrival(now, pkt); });
}

void TimedProbe::on_drop(laps::TimeNs now, const laps::SimPacket& pkt,
                         laps::CoreId core) {
  timed(hooks_, [&] { inner_.on_drop(now, pkt, core); });
}

void TimedProbe::on_dispatch(laps::TimeNs now, const laps::SimPacket& pkt,
                             laps::CoreId core, bool migrated) {
  timed(hooks_, [&] { inner_.on_dispatch(now, pkt, core, migrated); });
}

void TimedProbe::on_service_start(laps::TimeNs now,
                                  const laps::SimPacket& pkt,
                                  laps::CoreId core, laps::TimeNs delay,
                                  bool fm_penalty, bool cold_cache) {
  timed(hooks_, [&] {
    inner_.on_service_start(now, pkt, core, delay, fm_penalty, cold_cache);
  });
}

void TimedProbe::on_departure(laps::TimeNs now, const laps::SimPacket& pkt,
                              laps::CoreId core, std::uint32_t new_ooo) {
  timed(hooks_, [&] { inner_.on_departure(now, pkt, core, new_ooo); });
}

void TimedProbe::on_epoch(laps::TimeNs now,
                          std::span<const laps::CoreView> cores) {
  timed(hooks_, [&] { inner_.on_epoch(now, cores); });
}

void TimedProbe::on_engine_sample(laps::TimeNs now,
                                  const laps::EngineSample& sample) {
  completions_ = sample.completions;
  timed(hooks_, [&] { inner_.on_engine_sample(now, sample); });
}

void TimedProbe::on_sched_event(laps::TimeNs now,
                                const laps::SchedEvent& event) {
  timed(hooks_, [&] { inner_.on_sched_event(now, event); });
}

void TimedProbe::on_fault(laps::TimeNs now, const laps::FaultEvent& event,
                          std::uint32_t flushed) {
  timed(hooks_, [&] { inner_.on_fault(now, event, flushed); });
}

void TimedProbe::on_run_end(const laps::RunEnd& end) {
  timed(hooks_, [&] { inner_.on_run_end(end); });
}

TimedDispatcher::TimedDispatcher(std::unique_ptr<laps::Dispatcher> inner,
                                 CallCounter* pick, CallCounter* sync)
    : inner_(std::move(inner)), pick_(pick), sync_(sync) {}

void TimedDispatcher::attach(std::size_t num_shards) {
  inner_->attach(num_shards);
}

laps::ShardId TimedDispatcher::pick(const laps::GeneratedPacket& pkt,
                                    const laps::ClusterView& view) {
  return timed(pick_, [&] { return inner_->pick(pkt, view); });
}

void TimedDispatcher::on_sync(const laps::ClusterView& view,
                              std::span<const std::uint32_t> completed) {
  timed(sync_, [&] { inner_->on_sync(view, completed); });
}

bool TimedDispatcher::wants_completions() const {
  return inner_->wants_completions();
}

std::string TimedDispatcher::name() const { return inner_->name(); }

std::map<std::string, double> TimedDispatcher::extra_stats() const {
  return inner_->extra_stats();
}

TimedArrivals::TimedArrivals(laps::ArrivalStream& inner, CallCounter* next)
    : inner_(inner), next_(next) {}

std::optional<laps::GeneratedPacket> TimedArrivals::next() {
  return timed(next_, [&] { return inner_.next(); });
}

std::size_t TimedArrivals::total_flows() const {
  return inner_.total_flows();
}

TimedTrace::TimedTrace(std::shared_ptr<laps::TraceSource> inner,
                       CallCounter* next)
    : inner_(std::move(inner)), next_(next) {}

std::optional<laps::PacketRecord> TimedTrace::next() {
  return timed(next_, [&] { return inner_->next(); });
}

void TimedTrace::reset() { inner_->reset(); }

std::size_t TimedTrace::flow_count_hint() const {
  return inner_->flow_count_hint();
}

bool TimedTrace::size_mix(std::vector<std::uint16_t>& sizes,
                          std::vector<double>& weights) const {
  return inner_->size_mix(sizes, weights);
}

std::string TimedTrace::name() const { return inner_->name(); }

}  // namespace lapsbench
