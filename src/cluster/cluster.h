#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/dispatcher.h"
#include "cluster/report.h"
#include "sim/scheduler.h"
#include "telemetry/metrics.h"
#include "traffic/generator.h"
#include "traffic/workload.h"
#include "util/time.h"

namespace laps {

struct FaultPlan;  // sim/fault.h

/// Configuration of a sharded multi-NP cluster run: N independent SimEngine
/// shards (each with its own scheduler instance, queues, flow state, and
/// optional fault plan) behind one front-end Dispatcher, driven from one
/// merged clock in fixed sync windows.
struct ClusterConfig {
  std::string name = "cluster";  ///< scenario label
  std::size_t num_shards = 2;
  std::size_t cores_per_shard = 16;
  std::uint32_t queue_capacity = 32;
  DelayModel delay;
  bool restore_order = false;  ///< per-shard egress ReorderBuffer

  /// Sync-window width: the coordinator dispatches all arrivals of one
  /// window, runs every shard to the window end, then merges egress and
  /// feeds the dispatcher its delayed feedback. Smaller = fresher NIC
  /// feedback, more barriers; the window also bounds how stale a
  /// dispatcher's delivered/dropped gauges can be.
  TimeNs sync_ns = 100 * kMicrosecond;

  /// Shard executor threads: 1 = single-threaded lockstep (the oracle);
  /// >1 runs the shards of each window on a ThreadPool between barriers.
  /// Both modes produce bit-identical ClusterReports (shards share no
  /// mutable state; all dispatch decisions happen on the coordinator from
  /// barrier-frozen gauges) — asserted by cluster_test's differential
  /// grid.
  std::size_t threads = 1;

  /// Per-shard fault plans: empty, or exactly num_shards entries (null =
  /// fault-free shard). Plans must outlive the run. Traffic fault events
  /// (burst/crowd) are realized by the *arrival stream*, as in
  /// run_scenario — wrap the stream in FaultTrafficStream yourself.
  std::vector<std::shared_ptr<const FaultPlan>> shard_faults;

  /// Factory for each shard's scheduler instance (fresh per shard — shards
  /// must not share scheduler state). Required.
  std::function<std::unique_ptr<Scheduler>()> make_scheduler;
};

/// Runs `arrivals` through the cluster: `dispatcher` assigns every packet
/// to a shard, shards simulate independently between sync barriers, and
/// the coordinator merges their egress into the cluster-level accounting
/// (intra- vs cross-NP out-of-order, cross-NP migrations).
///
/// When `metrics` is non-null, per-shard gauges
/// (cluster.shard<i>.{outstanding,queue_len,delivered,dropped}), cluster
/// totals, and the dispatcher's extra_stats are registered up front and
/// published at every sync barrier from the coordinator thread.
///
/// Deterministic: same config + same stream + same dispatcher state =>
/// byte-identical ClusterReport JSON, regardless of config.threads.
ClusterReport run_cluster(const ClusterConfig& config, ArrivalStream& arrivals,
                          Dispatcher& dispatcher,
                          telemetry::MetricsRegistry* metrics = nullptr);

}  // namespace laps
