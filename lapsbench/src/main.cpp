// lapsbench: the repo benchmark. Runs one workload and prints its metrics.
//
//   lapsbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--out-dir=DIR] [--source=ID]
//
// Prints the host, a table of the end-to-end metrics (and, with --trace=1,
// the per-layer metrics and the span summary), writes the span log and the
// full results to DIR, and ends with one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace=0 the metrics are the gated end-to-end ones; with --trace=1
// the per-layer ones. Exit code 1 when an output check failed.
//
// lapsbench/run.py builds this binary and calls it; see lapsbench/METRICS.md
// for what each workload and metric is for.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "util/flags.h"
#include "workloads.h"

namespace {

using lapsbench::Metric;

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string host_json(const std::string& source) {
  std::ostringstream out;
  out << "{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":" << quoted(cpu_model())
      << ",\"compiler\":" << quoted("gcc " __VERSION__)
      << ",\"build_type\":" << quoted(LAPSBENCH_BUILD_TYPE)
      << ",\"source\":" << quoted(source) << "}";
  return out.str();
}

std::string metrics_json(
    const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ",";
    out += quoted(name) + ":{\"value\":" + number(m.value) +
           ",\"unit\":" + quoted(m.unit) + "}";
  }
  return out + "}";
}

std::string list_json(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) out += (out.size() > 1 ? "," : "") + number(v);
  return out + "]";
}

void print_table(const char* title,
                 const std::vector<std::pair<std::string, Metric>>& rows) {
  std::printf("=== %s ===\n", title);
  for (const auto& [name, m] : rows) {
    std::printf("  %-30s %16s %s\n", name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
}

std::string quartiles(std::vector<double> v) {
  if (v.empty()) return "-";
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks, as the median does.
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  return "n=" + std::to_string(v.size()) + " min=" + number(v.front()) +
         " q1=" + number(at(0.25)) + " median=" +
         number(lapsbench::median(v)) + " q3=" + number(at(0.75)) +
         " max=" + number(v.back());
}

void write_spans(const std::string& path, const lapsbench::BenchResult& r) {
  std::ofstream out(path);
  out << "{\"workload\":" << quoted(r.workload) << ",\"spans\":[";
  bool first = true;
  for (const lapsbench::SpanRecord& s : r.spans) {
    out << (first ? "" : ",") << "\n{\"name\":" << quoted(s.name)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell << "}";
    first = false;
  }
  out << "]}\n";
}

int run(laps::Flags& flags) {
  lapsbench::BenchOptions opt;
  opt.workload = flags.get_string("workload", "");
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opt.seconds = flags.get_double("seconds", 10.0);
  opt.trace = flags.get_int("trace", 0) != 0;
  opt.out_dir = flags.get_string("out-dir", ".");
  const std::string source = flags.get_string("source", "unknown");
  flags.finish();
  if (opt.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");

  const std::string host = host_json(source);
  std::printf("lapsbench workload=%s seed=%llu seconds=%s trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              number(opt.seconds).c_str(), opt.trace ? 1 : 0);
  std::printf("host: %s\n", host.c_str());
  std::fflush(stdout);

  const lapsbench::BenchResult r = lapsbench::run_workload(opt);

  print_table("end-to-end", r.end_to_end);
  std::printf("  sim_mpps untraced repetitions: %s\n",
              quartiles(r.untraced_mpps).c_str());
  if (opt.trace) {
    std::printf("  sim_mpps traced repetitions:   %s\n",
                quartiles(r.traced_mpps).c_str());
    print_table("per-layer (traced run; per-call times net of clock cost)",
                r.per_layer);
    std::printf("=== spans (traced run) ===\n  %-12s %8s %14s %14s\n", "name",
                "count", "total_s", "self_s");
    for (const auto& [name, s] : lapsbench::summarize(r.spans)) {
      std::printf("  %-12s %8llu %14s %14s\n", name.c_str(),
                  static_cast<unsigned long long>(s.count),
                  number(s.total_s).c_str(), number(s.self_s).c_str());
    }
  }
  for (const std::string& f : r.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) +
                           (opt.trace ? "-trace" : "");
  if (opt.trace) write_spans(stem + ".spans.json", r);
  std::vector<std::pair<std::string, Metric>> gated;
  for (const std::string& name : lapsbench::gated_metric_names()) {
    for (const auto& m : r.end_to_end) {
      if (m.first == name) gated.push_back(m);
    }
  }
  const auto& reported = opt.trace ? r.per_layer : gated;
  {
    std::ofstream out(stem + ".results.json");
    out << "{\"host\":" << host << ",\"workload\":" << quoted(r.workload)
        << ",\"seed\":" << opt.seed << ",\"correct\":"
        << (r.correct() ? "true" : "false")
        << ",\"untraced_mpps\":" << list_json(r.untraced_mpps)
        << ",\"traced_mpps\":" << list_json(r.traced_mpps)
        << ",\"end_to_end\":" << metrics_json(r.end_to_end)
        << ",\"per_layer\":" << metrics_json(r.per_layer) << "}\n";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(reported).c_str());
  return r.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    laps::Flags flags(argc, argv);
    return run(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lapsbench: error: %s\n", e.what());
    return 2;
  }
}
