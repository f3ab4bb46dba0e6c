#pragma once

// Helpers shared by the golden-file tests (scheduler_equiv_test,
// afd_golden_test, generator_golden_test): each golden is a text file of `key<TAB>fields...`
// lines, and LAPS_REGEN_GOLDEN=1 switches a run from comparing against it
// to rewriting it.

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

namespace laps {

/// Golden lines keyed by their first tab-separated field; `#` lines are
/// comments.
inline std::map<std::string, std::string> load_golden(const char* path) {
  std::ifstream in(path);
  std::map<std::string, std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    lines[line.substr(0, tab)] = line;
  }
  return lines;
}

/// True when LAPS_REGEN_GOLDEN asks for the goldens to be rewritten.
inline bool regen_requested() {
  const char* env = std::getenv("LAPS_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

}  // namespace laps
