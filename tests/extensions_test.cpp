// Tests for the extension modules: Toeplitz/RSS hashing, the Shi-Kencl
// adaptive-hashing schedulers, the egress reorder buffer (order
// restoration), and LAPS power gating.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <vector>

#include "baselines/adaptive_hash.h"
#include "baselines/batch.h"
#include "baselines/fcfs.h"
#include "core/laps.h"
#include "sim/reorder_buffer.h"
#include "sim/runner.h"
#include "trace/synthetic.h"
#include "util/rng.h"
#include "util/toeplitz.h"

namespace laps {
namespace {

// --------------------------------------------------------------- Toeplitz ---

TEST(Toeplitz, MicrosoftVerificationVectorIpv4Tcp) {
  // NDIS RSS verification suite: source 66.9.149.187:2794,
  // destination 161.142.100.80:1766 -> hash 0x51ccc178 with the default key.
  ToeplitzHash hash;
  FiveTuple t;
  t.src_ip = (66u << 24) | (9u << 16) | (149u << 8) | 187u;
  t.dst_ip = (161u << 24) | (142u << 16) | (100u << 8) | 80u;
  t.src_port = 2794;
  t.dst_port = 1766;
  t.protocol = 6;
  EXPECT_EQ(hash.hash(t), 0x51ccc178u);
}

TEST(Toeplitz, SecondVerificationVector) {
  // Source 199.92.111.2:14230, destination 65.69.140.83:4739 -> 0xc626b0ea.
  ToeplitzHash hash;
  FiveTuple t;
  t.src_ip = (199u << 24) | (92u << 16) | (111u << 8) | 2u;
  t.dst_ip = (65u << 24) | (69u << 16) | (140u << 8) | 83u;
  t.src_port = 14230;
  t.dst_port = 4739;
  t.protocol = 6;
  EXPECT_EQ(hash.hash(t), 0xc626b0eau);
}

TEST(Toeplitz, DeterministicAndKeyDependent) {
  ToeplitzHash a;
  std::array<std::uint8_t, 40> other_key{};
  other_key.fill(0xA5);
  ToeplitzHash b(other_key);
  FiveTuple t{1, 2, 3, 4, 6};
  EXPECT_EQ(a.hash(t), a.hash(t));
  EXPECT_NE(a.hash(t), b.hash(t));
}

TEST(Toeplitz, SpreadsUniformly) {
  ToeplitzHash hash;
  SyntheticTraceSpec spec;
  spec.num_flows = 40'000;
  SyntheticTrace trace(spec);
  std::vector<int> hist(16, 0);
  for (std::uint32_t f = 0; f < 40'000; ++f) {
    ++hist[hash.hash(trace.tuple_of(f)) % 16];
  }
  const double expected = 40'000 / 16.0;
  double chi2 = 0;
  for (int c : hist) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 60.0);
}

/// Bit-serial Toeplitz, the textbook definition the table hash must match:
/// for every set input bit (most significant first), XOR in the 32-bit key
/// window starting at that bit's position.
std::uint32_t toeplitz_reference(const std::array<std::uint8_t, 40>& key,
                                 const FiveTuple& tuple) {
  const auto wire = tuple.wire_bytes();  // RSS input: its first 12 bytes
  std::uint32_t result = 0;
  for (std::size_t bit = 0; bit < 96; ++bit) {
    if (((wire[bit / 8] >> (7 - bit % 8)) & 1u) == 0) continue;
    std::uint32_t window = 0;
    for (std::size_t k = 0; k < 32; ++k) {
      const std::size_t kb = bit + k;
      window = (window << 1) | ((key[kb / 8] >> (7 - kb % 8)) & 1u);
    }
    result ^= window;
  }
  return result;
}

TEST(Toeplitz, TableHashMatchesBitSerialReference) {
  std::vector<std::array<std::uint8_t, 40>> keys;
  keys.push_back(ToeplitzHash::kDefaultKey);
  keys.emplace_back().fill(0xA5);
  Rng rng(0x7E0B1172);
  for (int k = 0; k < 4; ++k) {
    auto& key = keys.emplace_back();
    for (std::uint8_t& b : key) b = static_cast<std::uint8_t>(rng.below(256));
  }
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const ToeplitzHash hash(keys[k]);
    for (int i = 0; i < 5000; ++i) {
      FiveTuple t;
      t.src_ip = static_cast<std::uint32_t>(rng.next());
      t.dst_ip = static_cast<std::uint32_t>(rng.next());
      t.src_port = static_cast<std::uint16_t>(rng.below(65536));
      t.dst_port = static_cast<std::uint16_t>(rng.below(65536));
      t.protocol = static_cast<std::uint8_t>(rng.below(256));
      ASSERT_EQ(hash.hash(t), toeplitz_reference(keys[k], t))
          << "key " << k << " tuple " << t.to_string();
    }
    // Single-bit inputs pin every table row's per-bit window on its own.
    for (std::size_t bit = 0; bit < 96; ++bit) {
      FiveTuple t;
      if (bit < 32) {
        t.src_ip = 1u << (31 - bit);
      } else if (bit < 64) {
        t.dst_ip = 1u << (63 - bit);
      } else if (bit < 80) {
        t.src_port = static_cast<std::uint16_t>(1u << (79 - bit));
      } else {
        t.dst_port = static_cast<std::uint16_t>(1u << (95 - bit));
      }
      ASSERT_EQ(hash.hash(t), toeplitz_reference(keys[k], t))
          << "key " << k << " bit " << bit;
    }
  }
}

TEST(NaiveFoldHash, IsPredictablyBad) {
  // Sequential addresses collide into sequential buckets — the failure
  // mode the ablation demonstrates.
  FiveTuple a{0x0A000001, 0xC0A80001, 1000, 80, 6};
  FiveTuple b = a;
  b.src_ip += 16;
  EXPECT_EQ((naive_fold_hash(b) - naive_fold_hash(a)) & 0xFFFF, 16);
}

// ----------------------------------------------------------- AdaptiveHash ---

class FakeView final : public NpuView {
 public:
  explicit FakeView(std::size_t n) : cores_(n) {
    for (auto& c : cores_) c.idle_since = 0;
  }
  TimeNs now() const override { return now_; }
  std::span<const CoreView> cores() const override {
    return {cores_.data(), cores_.size()};
  }
  std::uint32_t queue_capacity() const override { return 32; }

  TimeNs now_ = 0;
  std::vector<CoreView> cores_;
};

SimPacket make_packet(std::uint32_t flow) {
  SimPacket pkt;
  pkt.tuple.src_ip = 0x0A000000u + flow;
  pkt.tuple.dst_ip = static_cast<std::uint32_t>(mix64(flow) >> 32) | 1u;
  pkt.tuple.src_port = static_cast<std::uint16_t>(1024 + flow % 60000);
  pkt.tuple.dst_port = 80;
  pkt.tuple.protocol = 6;
  pkt.gflow = flow;
  pkt.service = ServicePath::kIpForward;
  return pkt;
}

TEST(AdaptiveHash, PreservesFlowAffinityBetweenRebalances) {
  AdaptiveHashScheduler::Options options;
  options.period = 1'000'000;  // no rebalance during this test
  AdaptiveHashScheduler sched(options);
  sched.attach(4);
  FakeView view(4);
  for (std::uint32_t f = 0; f < 100; ++f) {
    const CoreId home = sched.schedule(make_packet(f), view);
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(sched.schedule(make_packet(f), view), home);
    }
  }
  EXPECT_EQ(sched.extra_stats().at("bundle_moves"), 0.0);
}

TEST(AdaptiveHash, RebalancesSkewedBundles) {
  AdaptiveHashScheduler::Options options;
  options.period = 2'000;
  options.slack = 0.10;
  AdaptiveHashScheduler sched(options);
  sched.attach(4);
  FakeView view(4);
  // One extremely hot flow: its bundle dominates one core's measured load.
  const SimPacket hot = make_packet(7);
  for (int i = 0; i < 6'000; ++i) {
    sched.schedule(hot, view);
    sched.schedule(make_packet(100 + static_cast<std::uint32_t>(i % 500)),
                   view);
  }
  EXPECT_GT(sched.extra_stats().at("rebalances"), 0.0);
  EXPECT_GT(sched.extra_stats().at("bundle_moves"), 0.0);
  // After rebalancing, no core should hold much more than the average.
  std::uint64_t max_load = 0, total = 0;
  for (CoreId c = 0; c < 4; ++c) {
    const std::uint64_t load = sched.measured_core_load(c);
    max_load = std::max(max_load, load);
    total += load;
  }
  // The hot flow's own bundle is indivisible, so allow it to dominate, but
  // the rest must have been moved off its core.
  EXPECT_LT(static_cast<double>(max_load),
            0.75 * static_cast<double>(total));
}

TEST(AdaptiveHash, AttachResetsState) {
  AdaptiveHashScheduler sched;
  sched.attach(4);
  FakeView view(4);
  for (int i = 0; i < 100; ++i) sched.schedule(make_packet(1), view);
  sched.attach(4);
  EXPECT_EQ(sched.extra_stats().at("rebalances"), 0.0);
  EXPECT_EQ(sched.measured_core_load(0) + sched.measured_core_load(1) +
                sched.measured_core_load(2) + sched.measured_core_load(3),
            0u);
}

TEST(CombinedAdaptive, PinsAggressiveFlowsOnImbalance) {
  CombinedAdaptiveScheduler::CombinedOptions options;
  options.adaptive.period = 1'000'000;
  options.afd.afc_entries = 4;
  options.afd.annex_entries = 32;
  options.afd.promote_threshold = 2;
  CombinedAdaptiveScheduler sched(options);
  sched.attach(4);
  FakeView view(4);

  const SimPacket heavy = make_packet(3);
  const CoreId home = sched.schedule(heavy, view);
  for (int i = 0; i < 10; ++i) sched.schedule(heavy, view);
  view.cores_[home].queue_len = 30;
  const CoreId moved = sched.schedule(heavy, view);
  EXPECT_NE(moved, home);
  EXPECT_EQ(sched.extra_stats().at("aggressive_migrations"), 1.0);
  // Pin persists after the pressure clears.
  view.cores_[home].queue_len = 0;
  EXPECT_EQ(sched.schedule(heavy, view), moved);
}

TEST(CombinedAdaptive, ColdFlowsStayOnHashPath) {
  CombinedAdaptiveScheduler sched;
  sched.attach(4);
  FakeView view(4);
  const SimPacket pkt = make_packet(5);
  const CoreId home = sched.schedule(pkt, view);
  view.cores_[home].queue_len = 30;
  EXPECT_EQ(sched.schedule(pkt, view), home);
}

// -------------------------------------------------------- BatchScheduler ---

TEST(Batch, SticksForBatchThenRebalances) {
  BatchScheduler sched(4);
  sched.attach(4);
  FakeView view(4);
  const SimPacket pkt = make_packet(9);
  const CoreId first = sched.schedule(pkt, view);
  // Next 3 packets finish the batch on the same core.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(sched.schedule(pkt, view), first);
  }
  // New batch: with the old core loaded, the flow moves.
  view.cores_[first].queue_len = 20;
  const CoreId second = sched.schedule(pkt, view);
  EXPECT_NE(second, first);
  EXPECT_EQ(sched.extra_stats().at("batches_opened"), 2.0);
}

TEST(Batch, BatchSizeOneIsFcfs) {
  BatchScheduler sched(1);
  sched.attach(4);
  FakeView view(4);
  view.cores_[2].queue_len = 0;
  view.cores_[0].queue_len = 5;
  view.cores_[1].queue_len = 5;
  view.cores_[3].queue_len = 5;
  const SimPacket pkt = make_packet(1);
  EXPECT_EQ(sched.schedule(pkt, view), 2u);
  view.cores_[2].queue_len = 9;
  view.cores_[3].queue_len = 0;
  EXPECT_EQ(sched.schedule(pkt, view), 3u)
      << "batch size 1 re-picks the minimum every packet";
  EXPECT_EQ(sched.extra_stats().at("active_flow_state"), 0.0);
}

TEST(Batch, StateReclaimedAfterBatch) {
  BatchScheduler sched(2);
  sched.attach(2);
  FakeView view(2);
  for (std::uint32_t f = 0; f < 100; ++f) {
    const SimPacket pkt = make_packet(f);
    sched.schedule(pkt, view);
    sched.schedule(pkt, view);  // completes the 2-packet batch
  }
  EXPECT_EQ(sched.extra_stats().at("active_flow_state"), 0.0);
}

TEST(Batch, BoundsMigrationsAndReorderingVersusFcfs) {
  // End to end: a flow can hop cores at most once per batch, so migrations
  // collapse by ~the batch size versus per-packet spraying, and reordering
  // (only possible at batch boundaries) drops with them. Moderate load:
  // near saturation, deep divergent queues reorder every boundary packet
  // and batching's OOO advantage shrinks toward FCFS's — the cost Guo et
  // al. accept for balance.
  ScenarioConfig cfg;
  cfg.num_cores = 4;
  cfg.seconds = 0.01;
  cfg.seed = 21;
  ServiceTraffic s;
  s.path = ServicePath::kIpForward;
  s.rate = HoltWintersParams{5.0, 0.0, 0.0, 10.0, 0.0};  // ~62% load
  SyntheticTraceSpec spec;
  spec.num_flows = 300;
  spec.seed = 8;
  s.trace = std::make_shared<SyntheticTrace>(spec);
  cfg.services = {s};

  FcfsScheduler fcfs;
  const auto fcfs_report = run_scenario(cfg, fcfs);
  BatchScheduler batch(64);
  const auto batch_report = run_scenario(cfg, batch);
  EXPECT_LT(batch_report.flow_migrations * 10, fcfs_report.flow_migrations);
  EXPECT_LT(batch_report.out_of_order, fcfs_report.out_of_order);
}

// ---------------------------------------------------------- ReorderBuffer ---

TEST(ReorderBuffer, InOrderStreamPassesThrough) {
  ReorderBuffer rob;
  for (std::uint32_t seq = 0; seq < 100; ++seq) {
    const auto released = rob.on_complete(1, seq, seq * 10);
    ASSERT_EQ(released.size(), 1u);
    EXPECT_EQ(released[0].seq, seq);
    EXPECT_EQ(released[0].held_ns, 0);
  }
  EXPECT_EQ(rob.occupancy(), 0u);
  EXPECT_EQ(rob.buffered_total(), 0u);
  EXPECT_EQ(rob.released_total(), 100u);
}

TEST(ReorderBuffer, HoldsEarlyCompletionUntilGapFills) {
  ReorderBuffer rob;
  EXPECT_TRUE(rob.on_complete(1, 1, 100).empty());  // seq 1 before seq 0
  EXPECT_EQ(rob.occupancy(), 1u);
  const auto released = rob.on_complete(1, 0, 250);
  ASSERT_EQ(released.size(), 2u);
  EXPECT_EQ(released[0].seq, 0u);
  EXPECT_EQ(released[1].seq, 1u);
  EXPECT_EQ(released[1].held_ns, 150);
  EXPECT_EQ(rob.occupancy(), 0u);
}

TEST(ReorderBuffer, DropUnblocksSuccessors) {
  ReorderBuffer rob;
  EXPECT_TRUE(rob.on_complete(1, 1, 10).empty());
  EXPECT_TRUE(rob.on_complete(1, 2, 20).empty());
  // seq 0 dropped at ingress: 1 and 2 must flow out.
  const auto released = rob.on_drop(1, 0, 30);
  ASSERT_EQ(released.size(), 2u);
  EXPECT_EQ(released[0].seq, 1u);
  EXPECT_EQ(released[1].seq, 2u);
}

TEST(ReorderBuffer, DropReportedAheadOfExpected) {
  ReorderBuffer rob;
  // seq 1 dropped before seq 0 completes (possible: 0 queued, 1 rejected).
  EXPECT_TRUE(rob.on_drop(1, 1, 5).empty());
  auto released = rob.on_complete(1, 0, 10);
  ASSERT_EQ(released.size(), 1u);
  released = rob.on_complete(1, 2, 20);  // 1 is known-lost, so 2 releases
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].seq, 2u);
}

TEST(ReorderBuffer, FlowsAreIndependent) {
  ReorderBuffer rob;
  EXPECT_TRUE(rob.on_complete(1, 1, 0).empty());  // flow 1 blocked
  const auto released = rob.on_complete(2, 0, 0);  // flow 2 unaffected
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].gflow, 2u);
}

TEST(ReorderBuffer, TracksMaxOccupancy) {
  ReorderBuffer rob;
  for (std::uint32_t seq = 10; seq > 0; --seq) {
    rob.on_complete(3, seq, 0);
  }
  EXPECT_EQ(rob.max_occupancy(), 10u);
  const auto released = rob.on_complete(3, 0, 0);
  EXPECT_EQ(released.size(), 11u);
  EXPECT_EQ(rob.occupancy(), 0u);
  EXPECT_EQ(rob.max_occupancy(), 10u);  // high-water mark is sticky
}

TEST(ReorderBuffer, RandomizedPermutationRestoresOrder) {
  // Property: any interleaving of completions/drops yields an in-order,
  // complete, duplicate-free release stream.
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    ReorderBuffer rob;
    constexpr std::uint32_t kSeqs = 200;
    std::vector<std::uint32_t> order(kSeqs);
    for (std::uint32_t i = 0; i < kSeqs; ++i) order[i] = i;
    for (std::uint32_t i = kSeqs; i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    std::set<std::uint32_t> dropped;
    std::vector<std::uint32_t> released;
    for (std::uint32_t seq : order) {
      const bool drop = rng.chance(0.2);
      const auto out = drop ? rob.on_drop(9, seq, 0)
                            : rob.on_complete(9, seq, 0);
      if (drop) dropped.insert(seq);
      for (const auto& rel : out) released.push_back(rel.seq);
    }
    ASSERT_EQ(rob.occupancy(), 0u) << "round " << round;
    ASSERT_EQ(released.size(), kSeqs - dropped.size());
    std::uint32_t prev = 0;
    bool first = true;
    for (std::uint32_t seq : released) {
      if (!first) {
        ASSERT_GT(seq, prev);
      }
      ASSERT_FALSE(dropped.count(seq));
      prev = seq;
      first = false;
    }
  }
}

// -------------------------------------------------- Order restoration E2E ---

TEST(OrderRestoration, FcfsWithRobDeliversInOrder) {
  ScenarioConfig cfg;
  cfg.name = "rob";
  cfg.num_cores = 4;
  cfg.seconds = 0.01;
  cfg.seed = 5;
  cfg.restore_order = true;
  ServiceTraffic s;
  s.path = ServicePath::kIpForward;
  s.rate = HoltWintersParams{6.0, 0.0, 0.0, 10.0, 0.0};
  SyntheticTraceSpec spec;
  spec.num_flows = 200;
  spec.seed = 3;
  s.trace = std::make_shared<SyntheticTrace>(spec);
  cfg.services = {s};

  FcfsScheduler fcfs;
  const auto with_rob = run_scenario(cfg, fcfs);
  EXPECT_EQ(with_rob.out_of_order, 0u)
      << "the reorder buffer must restore perfect order";
  EXPECT_GT(with_rob.extra.at("rob_buffered_packets"), 0.0)
      << "FCFS spraying must actually exercise the buffer";
  EXPECT_GT(with_rob.extra.at("rob_max_occupancy"), 0.0);

  cfg.restore_order = false;
  FcfsScheduler plain;
  const auto without = run_scenario(cfg, plain);
  EXPECT_GT(without.out_of_order, 0u)
      << "same traffic without the buffer must reorder";
}

// ------------------------------------------------------------ Power gating ---

TEST(PowerGating, ParksIdleCoresUnderLightLoad) {
  ScenarioConfig cfg;
  cfg.name = "power";
  cfg.num_cores = 8;
  cfg.seconds = 0.02;
  cfg.seed = 9;
  ServiceTraffic s;
  s.path = ServicePath::kIpForward;
  s.rate = HoltWintersParams{1.0, 0.0, 0.0, 10.0, 0.0};  // ~6% of capacity
  SyntheticTraceSpec spec;
  spec.num_flows = 500;
  spec.seed = 4;
  spec.size_bytes = {64};
  spec.size_weights = {1.0};
  s.trace = std::make_shared<SyntheticTrace>(spec);
  cfg.services = {s};

  LapsConfig laps_cfg;
  laps_cfg.num_services = 1;
  laps_cfg.power_gating = true;
  laps_cfg.sleep_after = from_us(20);
  LapsScheduler sched(laps_cfg);
  const auto report = run_scenario(cfg, sched);

  EXPECT_GT(report.extra.at("sleep_events"), 0.0);
  EXPECT_GT(report.extra.at("parked_core_us"), 0.0);
  EXPECT_EQ(report.dropped, 0u) << "gating must not cost packets here";
  // At ~6% load, most of the 8 cores should sleep most of the time.
  const double total_core_us = 8.0 * 0.02 * 1e6;
  EXPECT_GT(report.extra.at("parked_core_us"), 0.3 * total_core_us);
}

TEST(PowerGating, WakesUnderLoadSurge) {
  // Light phase then a surge: parked cores must wake and absorb it.
  ScenarioConfig cfg;
  cfg.name = "surge";
  cfg.num_cores = 8;
  cfg.seconds = 0.02;
  cfg.seed = 10;
  ServiceTraffic s;
  s.path = ServicePath::kIpForward;
  // Strong upward trend: 0.5 -> ~12 Mpps across the run.
  s.rate = HoltWintersParams{0.5, 600.0, 0.0, 10.0, 0.0};
  SyntheticTraceSpec spec;
  spec.num_flows = 2000;
  spec.seed = 6;
  spec.size_bytes = {64};
  spec.size_weights = {1.0};
  s.trace = std::make_shared<SyntheticTrace>(spec);
  cfg.services = {s};

  LapsConfig laps_cfg;
  laps_cfg.num_services = 1;
  laps_cfg.power_gating = true;
  laps_cfg.sleep_after = from_us(20);
  LapsScheduler sched(laps_cfg);
  const auto report = run_scenario(cfg, sched);

  EXPECT_GT(report.extra.at("wake_events"), 0.0);
  EXPECT_LT(report.drop_ratio(), 0.05)
      << "waking must keep drops close to the non-gated baseline";
}

TEST(PowerGating, DisabledReportsNoParkedTime) {
  LapsConfig cfg;
  cfg.num_services = 1;
  LapsScheduler sched(cfg);
  sched.attach(4);
  EXPECT_EQ(sched.extra_stats().count("parked_core_us"), 0u);
}

}  // namespace
}  // namespace laps
