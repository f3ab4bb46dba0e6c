// Tests for src/traffic: Holt-Winters rate model (Eq. 1 / Table IV), the
// processing-delay model (Eqs. 3-5 / Table III), and the multi-service
// packet generator.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "trace/synthetic.h"
#include "traffic/generator.h"
#include "traffic/holt_winters.h"
#include "traffic/workload.h"

namespace laps {
namespace {

// ----------------------------------------------------------- HoltWinters ---

TEST(HoltWinters, Table4HasBothSets) {
  const auto set1 = table4_params(1);
  const auto set2 = table4_params(2);
  ASSERT_EQ(set1.size(), kNumServices);
  ASSERT_EQ(set2.size(), kNumServices);
  EXPECT_DOUBLE_EQ(set1[0].a, 1.0);
  EXPECT_DOUBLE_EQ(set1[1].a, 1.8);
  EXPECT_DOUBLE_EQ(set2[0].a, 1.5);
  EXPECT_DOUBLE_EQ(set2[3].m, 200.0);
  EXPECT_THROW(table4_params(3), std::invalid_argument);
}

TEST(HoltWinters, MeanRateFollowsComponents) {
  HoltWintersParams p{2.0, 0.1, 0.0, 10.0, 0.0};
  HoltWintersRate rate(p, 1);
  EXPECT_DOUBLE_EQ(rate.mean_rate_mpps(0.0), 2.0);
  EXPECT_DOUBLE_EQ(rate.mean_rate_mpps(10.0), 3.0);  // +b*t
}

TEST(HoltWinters, SeasonalComponentIsPeriodic) {
  HoltWintersParams p{1.0, 0.0, 0.5, 4.0, 0.0};
  HoltWintersRate rate(p, 1);
  for (double t : {0.3, 1.1, 2.7}) {
    EXPECT_NEAR(rate.mean_rate_mpps(t), rate.mean_rate_mpps(t + 4.0), 1e-9);
    EXPECT_NEAR(rate.mean_rate_mpps(t), rate.mean_rate_mpps(t + 8.0), 1e-9);
  }
  // Peak at quarter period.
  EXPECT_NEAR(rate.mean_rate_mpps(1.0), 1.5, 1e-9);
}

TEST(HoltWinters, NoiseIsDeterministicPureFunction) {
  HoltWintersParams p{1.0, 0.0, 0.0, 10.0, 0.3};
  HoltWintersRate a(p, 42), b(p, 42);
  for (double t : {0.0, 0.05, 1.23, 17.7}) {
    EXPECT_DOUBLE_EQ(a.rate_mpps(t), b.rate_mpps(t));
  }
  HoltWintersRate c(p, 43);
  EXPECT_NE(a.rate_mpps(1.23), c.rate_mpps(1.23));
}

TEST(HoltWinters, NoisePiecewiseConstantWithinInterval) {
  HoltWintersParams p{1.0, 0.0, 0.0, 10.0, 0.5};
  HoltWintersRate rate(p, 7, /*noise_interval=*/0.1);
  EXPECT_DOUBLE_EQ(rate.rate_mpps(0.51), rate.rate_mpps(0.59));
  // Across interval boundaries the noise redraws (almost surely different).
  EXPECT_NE(rate.rate_mpps(0.59), rate.rate_mpps(0.61));
}

TEST(HoltWinters, RateNeverBelowFloor) {
  HoltWintersParams p{0.0, -1.0, 0.0, 10.0, 0.0};  // strongly negative trend
  HoltWintersRate rate(p, 1);
  EXPECT_GE(rate.rate_mpps(100.0), HoltWintersRate::floor_mpps);
}

TEST(HoltWinters, BoundDominatesRate) {
  for (int set : {1, 2}) {
    for (const auto& p : table4_params(set)) {
      HoltWintersRate rate(p, 3);
      const double bound = rate.rate_bound_mpps(60.0);
      for (double t = 0; t < 60.0; t += 0.37) {
        ASSERT_LE(rate.rate_mpps(t), bound) << "set " << set << " t=" << t;
      }
    }
  }
}

TEST(HoltWinters, RejectsBadConstruction) {
  HoltWintersParams p;
  EXPECT_THROW(HoltWintersRate(p, 1, 0.0), std::invalid_argument);
  p.m = 0.0;
  EXPECT_THROW(HoltWintersRate(p, 1), std::invalid_argument);
}

// MemoizedRate is what the generator's thinning loop evaluates: it must
// equal the pure rate_mpps(t) bit for bit, at interval boundaries and one
// ulp either side, in any order of t, with and without noise, and on the
// floor clamp.
TEST(HoltWinters, MemoizedRateMatchesRateBitForBit) {
  const std::vector<HoltWintersParams> curves = {
      table4_params(1)[2],                   // noisy (sigma 0.25)
      {1.0, 0.03, 0.3, 40.0, 0.0},           // sigma == 0
      {0.02, -0.5, 0.0, 10.0, 0.3},          // on the floor clamp
  };
  std::vector<double> times;
  for (int k = 0; k <= 40; ++k) {
    const double t = k * 0.1;
    if (t > 0) times.push_back(std::nextafter(t, 0.0));
    times.push_back(t);
    times.push_back(std::nextafter(t, 10.0));
  }
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  int straddles = 0;
  int clamped = 0;
  for (std::size_t c = 0; c < curves.size(); ++c) {
    const HoltWintersRate rate(curves[c], 99 + c);
    MemoizedRate memo(rate);
    for (const double t : times) {
      ASSERT_EQ(bits(memo.rate_mpps(t)), bits(rate.rate_mpps(t)))
          << "curve " << c << " t " << t;
      if (rate.rate_mpps(t) == HoltWintersRate::floor_mpps) ++clamped;
    }
    // Backwards, so every call crosses into an interval the memo has left.
    for (auto it = times.rbegin(); it != times.rend(); ++it) {
      ASSERT_EQ(bits(memo.rate_mpps(*it)), bits(rate.rate_mpps(*it)))
          << "curve " << c << " t " << *it << " (reverse)";
    }
  }
  for (std::size_t i = 1; i < times.size(); ++i) {
    const HoltWintersRate rate(curves[0], 0);
    if (rate.noise_interval_of(times[i - 1]) != rate.noise_interval_of(times[i]))
      ++straddles;
  }
  EXPECT_EQ(straddles, 40);  // every boundary lies between adjacent times
  EXPECT_GT(clamped, 0);
}

// ------------------------------------------------------------ DelayModel ---

TEST(DelayModel, PaperConstants) {
  DelayModel d;
  // Path 2 (IP forwarding): 0.5 us flat.
  EXPECT_EQ(d.proc_time(ServicePath::kIpForward, 64), from_us(0.5));
  EXPECT_EQ(d.proc_time(ServicePath::kIpForward, 1500), from_us(0.5));
  // Path 3 (scan): 3.53 us flat.
  EXPECT_EQ(d.proc_time(ServicePath::kMalwareScan, 64), from_us(3.53));
  // Path 1 (Eq. 4): 3.7 + (size/64)*0.23 us.
  EXPECT_EQ(d.proc_time(ServicePath::kVpnOut, 64), from_us(3.7 + 0.23));
  EXPECT_EQ(d.proc_time(ServicePath::kVpnOut, 640), from_us(3.7 + 2.3));
  // Path 4 (Eq. 5): 5.8 + (size/64)*0.21 us.
  EXPECT_EQ(d.proc_time(ServicePath::kVpnInScan, 128), from_us(5.8 + 0.42));
}

TEST(DelayModel, PenaltiesAreAdditive) {
  DelayModel d;
  const TimeNs base = d.proc_time(ServicePath::kIpForward, 64);
  EXPECT_EQ(d.packet_delay(ServicePath::kIpForward, 64, false, false), base);
  EXPECT_EQ(d.packet_delay(ServicePath::kIpForward, 64, true, false),
            base + from_us(0.8));
  EXPECT_EQ(d.packet_delay(ServicePath::kIpForward, 64, false, true),
            base + from_us(10.0));
  EXPECT_EQ(d.packet_delay(ServicePath::kIpForward, 64, true, true),
            base + from_us(10.8));
}

TEST(DelayModel, MeanProcTimeWeightsSizes) {
  DelayModel d;
  const double mean =
      d.mean_proc_time_us(ServicePath::kVpnOut, {64, 128}, {0.5, 0.5});
  EXPECT_NEAR(mean, 0.5 * (3.7 + 0.23) + 0.5 * (3.7 + 0.46), 1e-6);
  EXPECT_THROW(d.mean_proc_time_us(ServicePath::kVpnOut, {64}, {0.5, 0.5}),
               std::invalid_argument);
}

TEST(ServiceName, AllPathsNamed) {
  std::set<std::string> names;
  for (std::size_t s = 0; s < kNumServices; ++s) {
    names.insert(service_name(static_cast<ServicePath>(s)));
  }
  EXPECT_EQ(names.size(), kNumServices);
}

// -------------------------------------------------------- PacketGenerator ---

std::vector<ServiceTraffic> one_service(double mpps, double seconds_unused = 0) {
  static_cast<void>(seconds_unused);
  ServiceTraffic s;
  s.path = ServicePath::kIpForward;
  s.rate = HoltWintersParams{mpps, 0.0, 0.0, 10.0, 0.0};
  SyntheticTraceSpec spec;
  spec.num_flows = 1000;
  spec.seed = 3;
  s.trace = std::make_shared<SyntheticTrace>(spec);
  return {s};
}

TEST(PacketGenerator, RejectsBadInput) {
  EXPECT_THROW(PacketGenerator({}, 1, 1.0), std::invalid_argument);
  auto services = one_service(1.0);
  EXPECT_THROW(PacketGenerator(services, 1, 0.0), std::invalid_argument);
  services[0].trace = nullptr;
  EXPECT_THROW(PacketGenerator(services, 1, 1.0), std::invalid_argument);
}

TEST(PacketGenerator, TimesAreNondecreasingAndBounded) {
  PacketGenerator gen(one_service(0.5), 7, 0.01);
  TimeNs prev = 0;
  int n = 0;
  while (const auto pkt = gen.next()) {
    ASSERT_GE(pkt->time, prev);
    ASSERT_LE(pkt->time, from_seconds(0.01));
    prev = pkt->time;
    ++n;
  }
  EXPECT_GT(n, 0);
}

TEST(PacketGenerator, RateMatchesPoissonMean) {
  // 2 Mpps over 20 ms -> expected 40k packets, sd ~200.
  PacketGenerator gen(one_service(2.0), 11, 0.02);
  int n = 0;
  while (gen.next()) ++n;
  EXPECT_NEAR(n, 40'000, 1'200);
}

TEST(PacketGenerator, DeterministicForSeed) {
  PacketGenerator a(one_service(1.0), 5, 0.005);
  PacketGenerator b(one_service(1.0), 5, 0.005);
  while (true) {
    const auto pa = a.next();
    const auto pb = b.next();
    ASSERT_EQ(pa.has_value(), pb.has_value());
    if (!pa) break;
    ASSERT_EQ(pa->time, pb->time);
    ASSERT_EQ(pa->gflow, pb->gflow);
  }
}

TEST(PacketGenerator, SeedChangesArrivals) {
  PacketGenerator a(one_service(1.0), 5, 0.002);
  PacketGenerator b(one_service(1.0), 6, 0.002);
  const auto pa = a.next();
  const auto pb = b.next();
  ASSERT_TRUE(pa && pb);
  EXPECT_NE(pa->time, pb->time);
}

TEST(PacketGenerator, MultiServiceGlobalFlowsDisjoint) {
  std::vector<ServiceTraffic> services;
  for (int i = 0; i < 4; ++i) {
    ServiceTraffic s;
    s.path = static_cast<ServicePath>(i);
    s.rate = HoltWintersParams{0.5, 0.0, 0.0, 10.0, 0.0};
    SyntheticTraceSpec spec;
    spec.num_flows = 100;
    spec.seed = 50 + static_cast<std::uint64_t>(i);
    s.trace = std::make_shared<SyntheticTrace>(spec);
    services.push_back(std::move(s));
  }
  PacketGenerator gen(services, 8, 0.01);
  EXPECT_EQ(gen.total_flows(), 400u);

  std::vector<std::set<std::uint32_t>> flows(4);
  while (const auto pkt = gen.next()) {
    flows[static_cast<std::size_t>(pkt->service)].insert(pkt->gflow);
  }
  // Each service's gflow range is its own 100-wide window.
  for (int i = 0; i < 4; ++i) {
    ASSERT_FALSE(flows[i].empty()) << "service " << i;
    EXPECT_GE(*flows[i].begin(), static_cast<std::uint32_t>(i * 100));
    EXPECT_LT(*flows[i].rbegin(), static_cast<std::uint32_t>((i + 1) * 100));
  }
}

TEST(PacketGenerator, WrapsFiniteTraces) {
  // A tiny 3-packet pcap-like vector trace, wrapped many times.
  class TinyTrace final : public TraceSource {
   public:
    std::optional<PacketRecord> next() override {
      if (i_ == 3) return std::nullopt;
      PacketRecord rec;
      rec.flow_id = i_++;
      rec.tuple.src_ip = rec.flow_id + 1;
      return rec;
    }
    void reset() override { i_ = 0; }
    std::size_t flow_count_hint() const override { return 3; }
    std::string name() const override { return "tiny"; }

   private:
    std::uint32_t i_ = 0;
  };
  ServiceTraffic s;
  s.path = ServicePath::kIpForward;
  s.rate = HoltWintersParams{1.0, 0.0, 0.0, 10.0, 0.0};
  s.trace = std::make_shared<TinyTrace>();
  PacketGenerator gen({s}, 2, 0.001);
  int n = 0;
  while (const auto pkt = gen.next()) {
    ASSERT_LT(pkt->gflow, 3u);
    ++n;
  }
  EXPECT_GT(n, 100);  // ~1000 expected; the trace wrapped repeatedly
}

/// A finite, hint-less trace replaying a fixed list of local flow ids.
class ScriptedTrace final : public TraceSource {
 public:
  ScriptedTrace(std::string name, std::vector<std::uint32_t> ids,
                std::size_t hint = 0)
      : name_(std::move(name)), ids_(std::move(ids)), hint_(hint) {}
  std::optional<PacketRecord> next() override {
    if (pos_ == ids_.size()) return std::nullopt;
    PacketRecord rec;
    rec.flow_id = ids_[pos_++];
    rec.tuple.src_ip = rec.flow_id;
    return rec;
  }
  void reset() override { pos_ = 0; }
  std::size_t flow_count_hint() const override { return hint_; }
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::vector<std::uint32_t> ids_;
  std::size_t hint_;
  std::size_t pos_ = 0;
};

ServiceTraffic scripted_service(ServicePath path,
                                std::shared_ptr<TraceSource> trace) {
  ServiceTraffic s;
  s.path = path;
  s.rate = HoltWintersParams{0.5, 0.0, 0.0, 10.0, 0.0};
  s.trace = std::move(trace);
  return s;
}

// Two hint-less services share one dynamic id pool: global ids go out in
// first-seen order across both, total_flows() grows by one per new local
// id, and once the finite traces wrap (reset()) every id maps back to the
// global id it got the first time.
TEST(PacketGenerator, DynamicIdsFollowFirstSeenOrderAcrossServices) {
  const std::vector<std::vector<std::uint32_t>> scripts = {
      {9, 2, 9, 0, 41, 2, 7},
      {3, 3, 1000, 0, 5},
  };
  std::vector<ServiceTraffic> services;
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    services.push_back(scripted_service(
        static_cast<ServicePath>(i),
        std::make_shared<ScriptedTrace>("scripted" + std::to_string(i),
                                        scripts[i])));
  }
  PacketGenerator gen(services, 4, 0.002);
  EXPECT_EQ(gen.total_flows(), 0u);

  std::map<std::pair<int, std::uint32_t>, std::uint32_t> assigned;
  std::vector<std::size_t> pos(scripts.size(), 0);
  int packets = 0;
  while (const auto pkt = gen.next()) {
    const auto service = static_cast<std::size_t>(pkt->service);
    std::size_t& at = pos[service];
    const std::uint32_t local = scripts[service][at++ % scripts[service].size()];
    ASSERT_EQ(pkt->record.flow_id, local);
    const auto key = std::make_pair(static_cast<int>(service), local);
    const auto it = assigned.find(key);
    if (it == assigned.end()) {
      ASSERT_EQ(pkt->gflow, assigned.size()) << "first-seen order";
      assigned.emplace(key, pkt->gflow);
    } else {
      ASSERT_EQ(pkt->gflow, it->second) << "reused id after wrap";
    }
    ASSERT_EQ(gen.total_flows(), assigned.size());
    ++packets;
  }
  EXPECT_EQ(assigned.size(), 9u);  // 5 + 4 distinct (service, local) ids
  EXPECT_GT(pos[0], 2 * scripts[0].size());  // both traces wrapped
  EXPECT_GT(pos[1], 2 * scripts[1].size());
  EXPECT_GT(packets, 100);
}

// Local ids must be dense: an id far beyond any flow population would size
// the generator's id array to gigabytes, and an id at or above a trace's
// flow_count_hint() would alias the next service's ids. Both throw a
// std::out_of_range naming the trace and the id.
TEST(PacketGenerator, RejectsFlowIdsOutsideTheDenseRange) {
  const auto expect_rejected = [](std::shared_ptr<TraceSource> trace,
                                  const std::string& id) {
    PacketGenerator gen({scripted_service(ServicePath::kIpForward, trace)}, 1,
                        0.001);
    try {
      while (gen.next()) {
      }
      ADD_FAILURE() << "flow id " << id << " accepted";
    } catch (const std::out_of_range& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + trace->name() + "'"), std::string::npos)
          << what;
      EXPECT_NE(what.find(id), std::string::npos) << what;
    }
  };
  constexpr std::uint32_t bound = PacketGenerator::kMaxDynamicFlowId;
  expect_rejected(std::make_shared<ScriptedTrace>(
                      "at-bound", std::vector<std::uint32_t>{bound}),
                  std::to_string(bound));
  expect_rejected(std::make_shared<ScriptedTrace>(
                      "max-id", std::vector<std::uint32_t>{0xFFFFFFFFu}),
                  "4294967295");
  expect_rejected(std::make_shared<ScriptedTrace>(
                      "over-hint", std::vector<std::uint32_t>{0, 1, 5}, 5),
                  "5");

  // Ids below both bounds pass, hinted or not.
  PacketGenerator ok({scripted_service(
                          ServicePath::kIpForward,
                          std::make_shared<ScriptedTrace>(
                              "in-range", std::vector<std::uint32_t>{4, 0}, 5)),
                      scripted_service(
                          ServicePath::kVpnOut,
                          std::make_shared<ScriptedTrace>(
                              "dynamic", std::vector<std::uint32_t>{70000}))},
                     1, 0.001);
  while (ok.next()) {
  }
  EXPECT_EQ(ok.total_flows(), 6u);
}

// ---------------------------------------------------- Load calibration ---

TEST(LoadCalibration, OfferedLoadMatchesHandComputation) {
  // One service, 1 Mpps flat, all 64 B packets on IP forwarding (0.5 us):
  // 1e6 pkt/s * 0.5e-6 s = 0.5 core-equivalents; on 16 cores -> 0.03125.
  auto services = one_service(1.0);
  auto spec = SyntheticTraceSpec{};
  spec.num_flows = 100;
  spec.size_bytes = {64};
  spec.size_weights = {1.0};
  services[0].trace = std::make_shared<SyntheticTrace>(spec);
  DelayModel delay;
  EXPECT_NEAR(mean_offered_load(services, delay, 16, 1.0), 0.5 / 16.0, 1e-6);
}

TEST(LoadCalibration, ScaleToLoadHitsTarget) {
  std::vector<ServiceTraffic> services;
  const auto params = table4_params(1);
  for (int i = 0; i < 4; ++i) {
    ServiceTraffic s;
    s.path = static_cast<ServicePath>(i);
    s.rate = params[i];
    s.trace = make_trace(trace_registry_names()[i]);
    services.push_back(std::move(s));
  }
  DelayModel delay;
  const auto scaled = scale_to_load(services, delay, 16, 10.0, 0.85);
  EXPECT_NEAR(mean_offered_load(scaled, delay, 16, 10.0), 0.85, 1e-6);
  // Relative service mix is preserved.
  EXPECT_NEAR(scaled[0].rate.a / scaled[1].rate.a,
              params[0].a / params[1].a, 1e-9);
}

TEST(LoadCalibration, RejectsBadArguments) {
  auto services = one_service(1.0);
  DelayModel delay;
  EXPECT_THROW(mean_offered_load(services, delay, 0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(mean_offered_load(services, delay, 16, 0.0),
               std::invalid_argument);
}

// ------------------------------------------------------- ReplayStream fork ---

std::vector<GeneratedPacket> drain(ArrivalStream& s) {
  std::vector<GeneratedPacket> out;
  while (const auto pkt = s.next()) out.push_back(*pkt);
  return out;
}

bool same_packets(const std::vector<GeneratedPacket>& a,
                  const std::vector<GeneratedPacket>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].gflow != b[i].gflow ||
        a[i].service != b[i].service ||
        a[i].record.flow_id != b[i].record.flow_id ||
        !(a[i].record.tuple == b[i].record.tuple)) {
      return false;
    }
  }
  return true;
}

// The multi-consumer contract the cluster layer depends on: forks share one
// immutable recording but advance independent cursors, so N shards (or N
// grid rows) can each replay the identical stream with no re-recording and
// no cross-talk.
TEST(ReplayFork, ForksAreIndependentDeterministicCursors) {
  PacketGenerator gen(one_service(2.0), 11, 0.005);
  ReplayStream original = ReplayStream::record(gen);
  const std::vector<GeneratedPacket> golden = drain(original);
  ASSERT_FALSE(golden.empty());

  // Two forks, drained with interleaved next() calls, each see the full
  // sequence from the start.
  ReplayStream a = original.fork();
  ReplayStream b = original.fork();
  std::vector<GeneratedPacket> from_a;
  std::vector<GeneratedPacket> from_b;
  for (;;) {
    const auto pa = a.next();
    const auto pb = b.next();
    ASSERT_EQ(pa.has_value(), pb.has_value());
    if (!pa) break;
    from_a.push_back(*pa);
    from_b.push_back(*pb);
  }
  EXPECT_TRUE(same_packets(from_a, golden));
  EXPECT_TRUE(same_packets(from_b, golden));
  EXPECT_EQ(a.total_flows(), original.total_flows());

  // Forking a partially-consumed stream still starts at packet 0, and does
  // not disturb the parent's cursor.
  original.rewind();
  for (int i = 0; i < 3; ++i) original.next();
  ReplayStream fresh = original.fork();
  EXPECT_TRUE(same_packets(drain(fresh), golden));
  std::vector<GeneratedPacket> rest = drain(original);
  ASSERT_EQ(rest.size(), golden.size() - 3);
  EXPECT_EQ(rest.front().time, golden[3].time);

  // rewind() still restarts the parent after forks exist.
  original.rewind();
  EXPECT_TRUE(same_packets(drain(original), golden));
}

}  // namespace
}  // namespace laps
