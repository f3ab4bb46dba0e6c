// Golden pin for the packet generator (paper Fig. 6 "Packet Generator"):
// every emitted packet's arrival time, service, global flow id, 5-tuple and
// size, folded into one CRC32 per cell. The cells are
//
//   - the Table VI scenarios T1-T8 and the Fig. 9 single-service caida1 and
//     auck1 scenarios at 1.05 load, over a short horizon inside the first
//     noise interval;
//   - both Table IV parameter sets at a small rate scale over 0.35 s, so
//     the stream crosses three Holt-Winters noise intervals and the slow
//     services sit on the floor_mpps clamp part of the time.
//
// Every registry trace is hint-less, so all cells also pin the first-seen
// order of the shared dynamic flow-id pool. The golden file was captured on
// the generator that drew a fresh noise sample per thinning candidate and
// kept dynamic ids in a node map; any later generator must reproduce it bit
// for bit.
//
// Regenerating (only when a change *intends* to alter the traffic): run the
// binary with LAPS_REGEN_GOLDEN=1 and call it out in review.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "golden_file.h"
#include "sim/scenarios.h"
#include "trace/synthetic.h"
#include "traffic/generator.h"
#include "traffic/holt_winters.h"
#include "util/crc.h"

#ifndef LAPS_SOURCE_DIR
#error "LAPS_SOURCE_DIR must be defined to locate tests/golden/"
#endif

namespace laps {
namespace {

const char* kGoldenPath = LAPS_SOURCE_DIR "/tests/golden/generator_golden.tsv";

constexpr double kShortSeconds = 0.02;
constexpr double kLongSeconds = 0.35;
constexpr double kLongRateScale = 0.05;
constexpr std::uint64_t kSeed = 42;

struct Cell {
  std::string name;
};

// gtest prints failing parameters with this instead of raw bytes.
void PrintTo(const Cell& cell, std::ostream* os) { *os << cell.name; }

std::vector<Cell> grid() {
  std::vector<Cell> cells;
  for (const std::string& id : paper_scenario_ids()) cells.push_back({id});
  cells.push_back({"caida1"});
  cells.push_back({"auck1"});
  cells.push_back({"set1-slow"});
  cells.push_back({"set2-slow"});
  return cells;
}

/// The services and horizon of one cell.
ScenarioConfig scenario(const Cell& cell) {
  ScenarioOptions options;
  options.seed = kSeed;
  options.seconds = kShortSeconds;
  if (cell.name.size() == 2 && cell.name[0] == 'T') {
    return make_paper_scenario(cell.name, options);
  }
  if (cell.name == "caida1" || cell.name == "auck1") {
    return make_single_service_scenario(cell.name, options, 1.05);
  }
  const int set = cell.name == "set1-slow" ? 1 : 2;
  ScenarioConfig cfg;
  cfg.seed = kSeed;
  cfg.seconds = kLongSeconds;
  const auto params = table4_params(set);
  const auto traces = table5_group(set == 1 ? 1 : 3);
  for (std::size_t s = 0; s < kNumServices; ++s) {
    ServiceTraffic traffic;
    traffic.path = static_cast<ServicePath>(s);
    traffic.rate = params[s];
    traffic.rate.a *= kLongRateScale;
    traffic.rate.b *= kLongRateScale;
    traffic.rate.c *= kLongRateScale;
    traffic.rate.sigma *= kLongRateScale;
    traffic.trace = make_trace(traces[s]);
    cfg.services.push_back(std::move(traffic));
  }
  return cfg;
}

struct Capture {
  std::uint32_t crc = 0;
  std::uint64_t packets = 0;
  std::size_t total_flows = 0;
  TimeNs last_time = 0;
};

template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(value) >> (8 * i)));
  }
}

Capture run_cell(const Cell& cell) {
  const ScenarioConfig cfg = scenario(cell);
  PacketGenerator gen(cfg.services, cfg.seed, cfg.seconds);
  Capture cap;
  std::vector<std::uint8_t> bytes;
  while (const auto pkt = gen.next()) {
    bytes.clear();
    put(bytes, pkt->time);
    put(bytes, static_cast<std::uint8_t>(pkt->service));
    put(bytes, pkt->gflow);
    put(bytes, pkt->record.tuple.src_ip);
    put(bytes, pkt->record.tuple.dst_ip);
    put(bytes, pkt->record.tuple.src_port);
    put(bytes, pkt->record.tuple.dst_port);
    put(bytes, pkt->record.tuple.protocol);
    put(bytes, pkt->record.size_bytes);
    cap.crc = crc32_ieee(bytes, ~cap.crc);  // chained CRC32 of the stream
    ++cap.packets;
    cap.last_time = pkt->time;
  }
  cap.total_flows = gen.total_flows();
  return cap;
}

std::string capture_line(const std::string& key, const Capture& c) {
  std::ostringstream out;
  out << key << '\t' << c.crc << '\t' << c.packets << '\t' << c.total_flows
      << '\t' << c.last_time;
  return out.str();
}

TEST(GeneratorGolden, Regenerate) {
  if (!regen_requested()) {
    GTEST_SKIP() << "set LAPS_REGEN_GOLDEN=1 to rewrite " << kGoldenPath;
  }
  std::ofstream out(kGoldenPath, std::ios::trunc);
  ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
  out << "# Generator goldens: key, CRC32(time, service, gflow, tuple, size "
         "of every packet), packets, total_flows, last time (ns)\n"
      << "# regenerate with: LAPS_REGEN_GOLDEN=1 ./generator_golden_test "
         "--gtest_filter='GeneratorGolden.Regenerate'\n";
  for (const Cell& cell : grid()) {
    out << capture_line(cell.name, run_cell(cell)) << "\n";
  }
  ASSERT_TRUE(out.good());
}

class GeneratorGoldenCell : public ::testing::TestWithParam<Cell> {};

TEST_P(GeneratorGoldenCell, BitIdenticalToGolden) {
  if (regen_requested()) {
    GTEST_SKIP() << "regeneration run; comparisons are meaningless";
  }
  const Cell& cell = GetParam();
  const auto golden = load_golden(kGoldenPath);
  const auto it = golden.find(cell.name);
  ASSERT_NE(it, golden.end())
      << "no golden entry for '" << cell.name << "' in " << kGoldenPath;
  EXPECT_EQ(it->second, capture_line(cell.name, run_cell(cell)))
      << "generated traffic diverged from the golden for '" << cell.name
      << "'";
}

std::string cell_test_name(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = info.param.name;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Grid, GeneratorGoldenCell,
                         ::testing::ValuesIn(grid()), cell_test_name);

}  // namespace
}  // namespace laps
