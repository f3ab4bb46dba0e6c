// Golden pin for the Aggressive Flow Detector configurations that the
// scheduler_equiv grid does not reach. Every detector in that grid runs with
// require_beat_afc_min=true and aging off; this test pins the rest:
//
//   - the paper config (threshold-only promotion, so AFC victims are demoted
//     into the annex at arbitrary frequencies),
//   - periodic aging (age_halve on both levels),
//   - sampling (sample_probability < 1),
//   - annex sizes 64, 512 and 1024,
//
// and the LAPS config beside them. Each cell feeds a seeded caida-like key
// stream through one Afd, invalidates the current top AFC flow at every
// snapshot (the scheduler's Listing-1 invalidate), and folds the AfdStats
// counters, both occupancies and the aggressive_flows() order at every
// snapshot into one CRC32. The golden file was captured on the node-based
// LfuCache; any later cache layout must reproduce it bit for bit.
//
// Regenerating (only when a change *intends* to alter detector behaviour):
// run the binary with LAPS_REGEN_GOLDEN=1 and call it out in review.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/afd.h"
#include "golden_file.h"
#include "trace/synthetic.h"
#include "util/crc.h"

#ifndef LAPS_SOURCE_DIR
#error "LAPS_SOURCE_DIR must be defined to locate tests/golden/"
#endif

namespace laps {
namespace {

const char* kGoldenPath = LAPS_SOURCE_DIR "/tests/golden/afd_golden.tsv";

constexpr std::uint64_t kAccesses = 1u << 18;
constexpr std::uint64_t kSnapshotEvery = 4096;

struct Cell {
  std::string name;
  std::string trace;
  AfdConfig config;
};

// gtest prints failing parameters with this instead of raw bytes.
void PrintTo(const Cell& cell, std::ostream* os) { *os << cell.name; }

std::vector<Cell> grid() {
  std::vector<Cell> cells;
  for (const char* trace : {"caida1", "auck1"}) {
    const auto add = [&](const std::string& name, AfdConfig cfg) {
      cells.push_back({name + "|" + trace, trace, cfg});
    };
    const AfdConfig paper;
    add("paper", paper);
    AfdConfig laps = paper;
    laps.require_beat_afc_min = true;
    add("laps", laps);
    for (const std::size_t annex : {64, 1024}) {
      AfdConfig cfg = paper;
      cfg.annex_entries = annex;
      add("paper-annex" + std::to_string(annex), cfg);
    }
    AfdConfig aging = paper;
    aging.aging_period = 2048;
    add("paper-aging", aging);
    AfdConfig laps_aging = laps;
    laps_aging.aging_period = 2048;
    laps_aging.annex_entries = 64;
    add("laps-aging-annex64", laps_aging);
    AfdConfig sampled = paper;
    sampled.sample_probability = 0.25;
    add("paper-sample", sampled);
  }
  return cells;
}

struct Capture {
  std::uint32_t crc = 0;
  AfdStats stats;
};

Capture run_cell(const Cell& cell) {
  auto trace = make_trace(cell.trace);
  Afd afd(cell.config);
  std::ostringstream log;
  for (std::uint64_t i = 1; i <= kAccesses; ++i) {
    afd.access(trace->next()->tuple.key64());
    if (i % kSnapshotEvery != 0) continue;
    const AfdStats& s = afd.stats();
    log << s.accesses << ' ' << s.sampled << ' ' << s.afc_hits << ' '
        << s.annex_hits << ' ' << s.annex_inserts << ' ' << s.promotions
        << ' ' << s.demotions << ' ' << s.invalidations << ' '
        << afd.afc_size() << ' ' << afd.annex_size() << ':';
    const std::vector<std::uint64_t> flows = afd.aggressive_flows();
    for (const std::uint64_t key : flows) log << ' ' << key;
    log << '\n';
    if (!flows.empty()) afd.invalidate(flows.front());
  }
  const std::string bytes = log.str();
  Capture cap;
  cap.crc = crc32_ieee(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  cap.stats = afd.stats();
  return cap;
}

std::string capture_line(const std::string& key, const Capture& c) {
  std::ostringstream out;
  out << key << '\t' << c.crc << '\t' << c.stats.afc_hits << '\t'
      << c.stats.annex_hits << '\t' << c.stats.promotions << '\t'
      << c.stats.demotions << '\t' << c.stats.invalidations;
  return out.str();
}

TEST(AfdGolden, Regenerate) {
  if (!regen_requested()) {
    GTEST_SKIP() << "set LAPS_REGEN_GOLDEN=1 to rewrite " << kGoldenPath;
  }
  std::ofstream out(kGoldenPath, std::ios::trunc);
  ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
  out << "# AFD goldens: key, CRC32(snapshot log), afc_hits, annex_hits, "
         "promotions, demotions, invalidations\n"
      << "# regenerate with: LAPS_REGEN_GOLDEN=1 ./afd_golden_test "
         "--gtest_filter='AfdGolden.Regenerate'\n";
  for (const Cell& cell : grid()) {
    out << capture_line(cell.name, run_cell(cell)) << "\n";
  }
  ASSERT_TRUE(out.good());
}

class AfdGoldenCell : public ::testing::TestWithParam<Cell> {};

TEST_P(AfdGoldenCell, BitIdenticalToGolden) {
  if (regen_requested()) {
    GTEST_SKIP() << "regeneration run; comparisons are meaningless";
  }
  const Cell& cell = GetParam();
  const auto golden = load_golden(kGoldenPath);
  const auto it = golden.find(cell.name);
  ASSERT_NE(it, golden.end())
      << "no golden entry for '" << cell.name << "' in " << kGoldenPath;
  EXPECT_EQ(it->second, capture_line(cell.name, run_cell(cell)))
      << "AFD behaviour diverged from the golden for '" << cell.name << "'";
}

std::string cell_test_name(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = info.param.name;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Grid, AfdGoldenCell, ::testing::ValuesIn(grid()),
                         cell_test_name);

}  // namespace
}  // namespace laps
