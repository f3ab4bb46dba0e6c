#pragma once

#include <cstdint>
#include <vector>

#include "sim/probe.h"
#include "sim/probes.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot_ring.h"

namespace laps::telemetry {

struct TelemetryConfig {
  /// Snapshot cadence in simulated time (`--telemetry[=interval]`).
  TimeNs interval = 100 * kMicrosecond;
  /// SPSC ring capacity (snapshots beyond this without a consumer are
  /// dropped and counted; the final snapshot is kept separately).
  std::size_t ring_capacity = 4096;
  /// Per-core queue-depth gauges are registered for at most this many
  /// cores; larger machines still get the total/max gauges.
  std::size_t max_per_core_gauges = 64;
};

/// The live-telemetry probe: instruments the engine's packet lifecycle with
/// MetricsRegistry counters, samples gauges (queue depths, engine and
/// scheduler occupancies) at epoch cadence, and publishes MetricsSnapshots
/// into a bounded SPSC ring on the configured interval.
///
/// Hot-path cost is the design constraint: the four per-packet hooks do one
/// or two plain increments on probe-local cells (plus one histogram record
/// on departure) and nothing else — no atomics, no string work, no branches
/// on configuration. The local totals are published into the registry's
/// atomic cells at every engine-sample boundary, always before a snapshot
/// is taken, so every published snapshot (and the final one) is exact;
/// between boundaries a concurrent snapshot_counters() observer sees
/// values at most one epoch stale, which is the monitoring contract.
/// Everything else state-shaped (gauges, scheduler samples, snapshot
/// publication, Chrome counter tracks) also happens at epoch boundaries,
/// which the engine only emits when probes are attached. A telemetry-off
/// run is bit-identical by construction.
///
/// One probe observes one run (like ReportProbe). Counter totals reconcile
/// exactly with the SimReport: offered/dropped/delivered/out_of_order/
/// flow_migrations and the latency histogram's count/sum/max are counted at
/// the same hook sites ReportProbe uses.
class TelemetryProbe final : public SimProbe {
 public:
  /// `scheduler` (optional) enables the sched.* gauge family, sampled via
  /// Scheduler::telemetry_sample() at epoch cadence; fields the policy
  /// reported as N/A in the run-begin sample are never registered.
  /// `trace` (optional) merges counter tracks into a ChromeTraceProbe
  /// timeline at each snapshot.
  explicit TelemetryProbe(TelemetryConfig config = {},
                          const Scheduler* scheduler = nullptr,
                          ChromeTraceProbe* trace = nullptr);

  void on_run_begin(const RunInfo& info) override;
  void on_arrival(TimeNs now, const SimPacket& pkt) override;
  void on_drop(TimeNs now, const SimPacket& pkt, CoreId core) override;
  void on_dispatch(TimeNs now, const SimPacket& pkt, CoreId core,
                   bool migrated) override;
  void on_departure(TimeNs now, const SimPacket& pkt, CoreId core,
                    std::uint32_t new_ooo) override;
  void on_epoch(TimeNs now, std::span<const CoreView> cores) override;
  void on_engine_sample(TimeNs now, const EngineSample& sample) override;
  void on_sched_event(TimeNs now, const SchedEvent& event) override;
  void on_fault(TimeNs now, const FaultEvent& event,
                std::uint32_t flushed) override;
  void on_run_end(const RunEnd& end) override;

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  SnapshotRing& ring() { return ring_; }
  const SnapshotRing& ring() const { return ring_; }

  const TelemetryConfig& config() const { return config_; }
  const RunInfo& info() const { return info_; }
  bool finished() const { return finished_; }

  /// The end-of-run snapshot (valid after on_run_end). Kept out of the
  /// ring so exporters and reconciliation tests always see final totals
  /// even when a consumer-less ring overflowed mid-run.
  const MetricsSnapshot& final_snapshot() const { return final_; }

  /// The latency histogram with full buckets (for Prometheus exposition).
  Histogram latency_histogram() const {
    return registry_.merged_histogram(h_latency_);
  }

 private:
  void register_instruments();
  void publish_packet_counters();
  void take_snapshot(TimeNs now);
  void emit_trace_counters(TimeNs now, const MetricsSnapshot& snap);

  TelemetryConfig config_;
  const Scheduler* scheduler_;
  ChromeTraceProbe* trace_;

  MetricsRegistry registry_;
  SnapshotRing ring_;
  RunInfo info_;
  MetricsSnapshot final_;
  bool finished_ = false;

  // Per-packet totals live in plain probe-local cells (single writer: the
  // sim thread) and are flushed into the registry's atomic cells via the
  // cached pointers below at every engine-sample boundary — a plain
  // increment per hook beats an atomic load+store pair when the engine
  // processes a packet in ~100 ns.
  std::uint64_t n_offered_ = 0;
  std::uint64_t n_dropped_ = 0;
  std::uint64_t n_dispatched_ = 0;
  std::uint64_t n_delivered_ = 0;
  std::uint64_t n_ooo_ = 0;
  std::uint64_t n_migrations_ = 0;

  // Cached registry cells (valid from on_run_begin). The histogram cell is
  // written directly on the hot path: it is plain memory already.
  MetricsRegistry::Shard* shard_ = nullptr;
  std::atomic<std::uint64_t>* cell_offered_ = nullptr;
  std::atomic<std::uint64_t>* cell_dropped_ = nullptr;
  std::atomic<std::uint64_t>* cell_dispatched_ = nullptr;
  std::atomic<std::uint64_t>* cell_delivered_ = nullptr;
  std::atomic<std::uint64_t>* cell_ooo_ = nullptr;
  std::atomic<std::uint64_t>* cell_migrations_ = nullptr;
  Histogram* latency_cell_ = nullptr;

  // Instrument ids (registered in the constructor).
  CounterId c_offered_, c_dropped_, c_dispatched_, c_delivered_;
  CounterId c_ooo_, c_migrations_;
  CounterId c_completions_;
  CounterId c_core_grants_, c_core_denied_, c_parks_, c_wakes_;
  CounterId c_afd_promotions_, c_aggressive_migrations_;
  CounterId c_fault_events_;
  GaugeId g_queue_total_, g_queue_max_;
  GaugeId g_live_cores_, g_rob_occupancy_, g_flows_;
  GaugeId g_outages_;
  HistogramId h_latency_;

  // Registered at on_run_begin (per-core + discovered sched.* fields).
  std::vector<GaugeId> g_queue_core_;
  GaugeId g_afc_occupancy_, g_afd_hits_, g_afd_evictions_;
  GaugeId g_pinned_flows_, g_parked_cores_, g_wake_strikes_;
  GaugeId g_core_transitions_;

  // Engine-sample counters arrive as cumulative values; deltas feed the
  // registry so they stay monotone counters in expositions.
  std::uint64_t last_completions_ = 0;
  std::int64_t outages_in_flight_ = 0;
  TimeNs next_snapshot_ = 0;
};

}  // namespace laps::telemetry
