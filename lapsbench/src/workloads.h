#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tracing.h"

namespace lapsbench {

/// How one benchmark run is shaped. The defaults are the benchmark's; the
/// test shrinks the horizons and the time budget.
struct BenchOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Host seconds the timed phase runs for (repetitions continue until it
  /// is spent, and at least two run, per mode in a traced run).
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Directory for the grid artifact and the span log.
  std::string out_dir = ".";
  /// Simulated horizon of every paper-grid cell (fig7's bench default).
  double grid_seconds = 0.25;
  /// Simulated horizon of the recorded caida1 replay.
  double replay_seconds = 0.05;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run measured and checked.
struct BenchResult {
  std::string workload;
  /// Cells simulated (every repetition counts) and cells that threw or
  /// failed an output check.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed check.
  std::vector<std::string> failures;
  bool correct() const { return failed == 0 && failures.empty(); }

  /// End-to-end metrics that apply to this workload, in table order.
  std::vector<std::pair<std::string, Metric>> end_to_end;
  /// Per-layer metrics (traced runs only); 0 where the workload does not
  /// exercise the layer.
  std::vector<std::pair<std::string, Metric>> per_layer;

  /// Exact counts for reconciliation: `offered` packets of one repetition
  /// and, in traced runs, `traced_reps`, `traced_offered` and the
  /// `scheduler_calls`, report-probe `probe_arrivals` and dispatcher
  /// `pick_calls`, all summed over the traced repetitions.
  std::map<std::string, std::uint64_t> counts;
  /// Digest of every cell report of one repetition; identical across all
  /// repetitions, traced or not (checked).
  std::uint64_t digest = 0;
  /// sim_mpps of each untraced and traced repetition.
  std::vector<double> untraced_mpps;
  std::vector<double> traced_mpps;
  std::vector<SpanRecord> spans;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// The end-to-end metrics an untraced run reports in its result line (the
/// gated ones, in BENCHMARK.json order). The modelled rates in the
/// end-to-end table are zero on some workload by construction or swing
/// with the seed's traffic (LAPS drops in paper-grid), so they ride in the
/// per-layer set of the traced run instead.
const std::vector<std::string>& gated_metric_names();

/// Runs one workload. Throws std::invalid_argument for an unknown name;
/// check failures are reported in the result, not thrown.
BenchResult run_workload(const BenchOptions& options);

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

}  // namespace lapsbench
