#pragma once

// Forwarding wrappers that time calls into one layer's public interface
// from outside it. Each wrapper forwards every virtual of the interface it
// wraps, so a wrapped run is bit-identical to an unwrapped one (the
// benchmark's test asserts equal report digests), and adds two clock reads
// around the timed calls only.

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/dispatcher.h"
#include "sim/probe.h"
#include "sim/scheduler.h"
#include "trace/packet_record.h"
#include "traffic/generator.h"
#include "tracing.h"

namespace lapsbench {

/// Scheduler wrapper: times schedule(); counts the core grants and
/// aggressive migrations the scheduler reports through its event sink,
/// which it interposes between the scheduler and the engine.
class TimedScheduler final : public laps::Scheduler,
                             public laps::SchedEventSink {
 public:
  TimedScheduler(std::unique_ptr<laps::Scheduler> inner,
                 CallCounter* schedule);

  void attach(std::size_t num_cores) override;
  laps::CoreId schedule(const laps::SimPacket& pkt,
                        const laps::NpuView& view) override;
  std::string name() const override;
  std::map<std::string, double> extra_stats() const override;
  void set_event_sink(laps::SchedEventSink* sink) override;
  void notify_core_down(laps::CoreId core,
                        const laps::NpuView& view) override;
  void notify_core_up(laps::CoreId core, const laps::NpuView& view) override;
  std::vector<std::uint64_t> aggressive_snapshot() const override;
  laps::SchedTelemetry telemetry_sample() const override;

  // SchedEventSink: counts, then forwards to the engine's sink.
  void sched_event(const laps::SchedEvent& event) override;

  std::uint64_t core_grants() const { return core_grants_; }
  std::uint64_t migrations() const { return migrations_; }

 private:
  std::unique_ptr<laps::Scheduler> inner_;
  CallCounter* schedule_;
  laps::SchedEventSink* sink_ = nullptr;
  std::uint64_t core_grants_ = 0;
  std::uint64_t migrations_ = 0;
};

/// Probe wrapper: times every hook into one counter (the probe's whole
/// cost) and counts on_arrival calls separately, so the per-packet cost
/// and the reconciliation with SimReport::offered both come from it.
class TimedProbe final : public laps::SimProbe {
 public:
  TimedProbe(laps::SimProbe& inner, CallCounter* hooks);

  void on_run_begin(const laps::RunInfo& info) override;
  void on_arrival(laps::TimeNs now, const laps::SimPacket& pkt) override;
  void on_drop(laps::TimeNs now, const laps::SimPacket& pkt,
               laps::CoreId core) override;
  void on_dispatch(laps::TimeNs now, const laps::SimPacket& pkt,
                   laps::CoreId core, bool migrated) override;
  void on_service_start(laps::TimeNs now, const laps::SimPacket& pkt,
                        laps::CoreId core, laps::TimeNs delay,
                        bool fm_penalty, bool cold_cache) override;
  void on_departure(laps::TimeNs now, const laps::SimPacket& pkt,
                    laps::CoreId core, std::uint32_t new_ooo) override;
  void on_epoch(laps::TimeNs now,
                std::span<const laps::CoreView> cores) override;
  void on_engine_sample(laps::TimeNs now,
                        const laps::EngineSample& sample) override;
  void on_sched_event(laps::TimeNs now,
                      const laps::SchedEvent& event) override;
  void on_fault(laps::TimeNs now, const laps::FaultEvent& event,
                std::uint32_t flushed) override;
  void on_run_end(const laps::RunEnd& end) override;

  std::uint64_t arrivals() const { return arrivals_; }
  /// Engine completions as of the last engine sample (the run-end one).
  std::uint64_t completions() const { return completions_; }

 private:
  laps::SimProbe& inner_;
  CallCounter* hooks_;
  std::uint64_t arrivals_ = 0;
  std::uint64_t completions_ = 0;
};

/// Dispatcher wrapper: times pick() and on_sync() separately.
class TimedDispatcher final : public laps::Dispatcher {
 public:
  TimedDispatcher(std::unique_ptr<laps::Dispatcher> inner, CallCounter* pick,
                  CallCounter* sync);

  void attach(std::size_t num_shards) override;
  laps::ShardId pick(const laps::GeneratedPacket& pkt,
                     const laps::ClusterView& view) override;
  void on_sync(const laps::ClusterView& view,
               std::span<const std::uint32_t> completed) override;
  bool wants_completions() const override;
  std::string name() const override;
  std::map<std::string, double> extra_stats() const override;

 private:
  std::unique_ptr<laps::Dispatcher> inner_;
  CallCounter* pick_;
  CallCounter* sync_;
};

/// Arrival-stream wrapper: times PacketGenerator::next (Holt-Winters
/// thinning plus the header draw from the trace).
class TimedArrivals final : public laps::ArrivalStream {
 public:
  TimedArrivals(laps::ArrivalStream& inner, CallCounter* next);
  std::optional<laps::GeneratedPacket> next() override;
  std::size_t total_flows() const override;

 private:
  laps::ArrivalStream& inner_;
  CallCounter* next_;
};

/// Trace wrapper: times TraceSource::next (a shared-store cursor read, or
/// the synthetic draw that materializes the record).
class TimedTrace final : public laps::TraceSource {
 public:
  TimedTrace(std::shared_ptr<laps::TraceSource> inner, CallCounter* next);
  std::optional<laps::PacketRecord> next() override;
  void reset() override;
  std::size_t flow_count_hint() const override;
  bool size_mix(std::vector<std::uint16_t>& sizes,
                std::vector<double>& weights) const override;
  std::string name() const override;

 private:
  std::shared_ptr<laps::TraceSource> inner_;
  CallCounter* next_;
};

}  // namespace lapsbench
