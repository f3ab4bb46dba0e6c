// Tests of the benchmark itself: a short version of every workload, run
// untraced and traced. Build and run with
//   cmake --build .bench_build/lapsbench --target lapsbench_test
//   .bench_build/lapsbench/lapsbench_test
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/dispatcher.h"
#include "layers.h"
#include "sim/scheduler.h"
#include "workloads.h"

namespace lapsbench {
namespace {

BenchOptions short_options(const std::string& workload, bool trace) {
  BenchOptions o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = 0.001;  // the two-repetition minimum bounds the run instead
  o.trace = trace;
  o.out_dir = ::testing::TempDir();
  o.grid_seconds = 0.01;
  o.replay_seconds = 0.005;
  return o;
}

std::string failures_of(const BenchResult& r) {
  std::string out;
  for (const std::string& f : r.failures) out += f + "\n";
  return out;
}

class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, TracedMatchesUntracedAndCountsReconcile) {
  const BenchResult plain = run_workload(short_options(GetParam(), false));
  ASSERT_TRUE(plain.correct()) << failures_of(plain);
  EXPECT_GT(plain.attempted, 0u);
  EXPECT_EQ(plain.failed, 0u);
  EXPECT_EQ(plain.untraced_mpps.size(), 2u);

  const BenchResult traced = run_workload(short_options(GetParam(), true));
  ASSERT_TRUE(traced.correct()) << failures_of(traced);
  // Same reports with and without the wrappers (the traced run also
  // compares its own traced and untraced repetitions cell by cell).
  EXPECT_EQ(plain.digest, traced.digest);
  EXPECT_EQ(plain.counts.at("offered"), traced.counts.at("offered"));

  const std::uint64_t reps = traced.counts.at("traced_reps");
  const std::uint64_t offered = traced.counts.at("traced_offered");
  ASSERT_GE(reps, 2u);
  EXPECT_EQ(offered, reps * traced.counts.at("offered"));
  // Every offered packet was scheduled exactly once (by its shard's
  // scheduler in the cluster) and seen once by the report probe, or picked
  // once by the cluster dispatcher.
  EXPECT_EQ(traced.counts.at("scheduler_calls"), offered);
  if (GetParam() == "cluster-fabric") {
    EXPECT_EQ(traced.counts.at("pick_calls"), offered);
  } else {
    EXPECT_EQ(traced.counts.at("probe_arrivals"), offered);
  }
  EXPECT_FALSE(traced.spans.empty());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

/// Metric names listed under `section` in BENCHMARK.json, in order.
std::vector<std::string> benchmark_names(const std::string& section) {
  std::ifstream in(LAPSBENCH_ROOT "/BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  const std::string all = text.str();
  const auto begin = all.find("\"" + section + "\"");
  const auto end = all.find(']', begin);
  const std::string body = all.substr(begin, end - begin);
  std::vector<std::string> names;
  const std::regex name_re("\"name\": \"([^\"]+)\"");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

TEST(BenchmarkJson, MetricListsMatchTheBinary) {
  EXPECT_EQ(benchmark_names("end_to_end"), gated_metric_names());
  const BenchResult traced =
      run_workload(short_options("laps-fastpath", true));
  std::vector<std::string> layers;
  for (const auto& [name, metric] : traced.per_layer) layers.push_back(name);
  EXPECT_EQ(benchmark_names("per_layer"), layers);
  EXPECT_EQ(benchmark_names("workloads"), workload_names());
}

/// Records which virtuals were called.
class RecordingScheduler final : public laps::Scheduler {
 public:
  explicit RecordingScheduler(std::set<std::string>* calls) : calls_(calls) {}
  void attach(std::size_t) override { calls_->insert("attach"); }
  laps::CoreId schedule(const laps::SimPacket&, const laps::NpuView&) override {
    calls_->insert("schedule");
    return 0;
  }
  std::string name() const override {
    calls_->insert("name");
    return "Recording";
  }
  std::map<std::string, double> extra_stats() const override {
    calls_->insert("extra_stats");
    return {{"x", 1.0}};
  }
  void set_event_sink(laps::SchedEventSink* sink) override {
    calls_->insert(sink != nullptr ? "set_event_sink" : "clear_event_sink");
    sink_ = sink;
  }
  void notify_core_down(laps::CoreId, const laps::NpuView&) override {
    calls_->insert("notify_core_down");
  }
  void notify_core_up(laps::CoreId, const laps::NpuView&) override {
    calls_->insert("notify_core_up");
  }
  std::vector<std::uint64_t> aggressive_snapshot() const override {
    calls_->insert("aggressive_snapshot");
    return {42};
  }
  laps::SchedTelemetry telemetry_sample() const override {
    calls_->insert("telemetry_sample");
    laps::SchedTelemetry t;
    t.afd_hits = 5;
    return t;
  }
  void emit(laps::SchedEvent::Kind kind) {
    laps::SchedEvent e;
    e.kind = kind;
    sink_->sched_event(e);
  }

 private:
  std::set<std::string>* calls_;
  laps::SchedEventSink* sink_ = nullptr;
};

class CountingSink final : public laps::SchedEventSink {
 public:
  void sched_event(const laps::SchedEvent&) override { ++events; }
  int events = 0;
};

class NullView final : public laps::NpuView {
 public:
  laps::TimeNs now() const override { return 0; }
  std::span<const laps::CoreView> cores() const override { return {}; }
  std::uint32_t queue_capacity() const override { return 32; }
};

TEST(Wrappers, SchedulerForwardsEveryVirtual) {
  std::set<std::string> calls;
  auto inner = std::make_unique<RecordingScheduler>(&calls);
  RecordingScheduler* raw = inner.get();
  CallCounter counter;
  TimedScheduler sched(std::move(inner), &counter);
  CountingSink sink;
  NullView view;
  sched.set_event_sink(&sink);
  sched.attach(4);
  EXPECT_EQ(sched.schedule(laps::SimPacket{}, view), 0u);
  EXPECT_EQ(sched.name(), "Recording");
  EXPECT_EQ(sched.extra_stats().at("x"), 1.0);
  sched.notify_core_down(1, view);
  sched.notify_core_up(1, view);
  EXPECT_EQ(sched.aggressive_snapshot(), std::vector<std::uint64_t>{42});
  EXPECT_EQ(sched.telemetry_sample().afd_hits, 5);
  raw->emit(laps::SchedEvent::Kind::kCoreGrant);
  raw->emit(laps::SchedEvent::Kind::kAggressiveMigration);
  sched.set_event_sink(nullptr);
  EXPECT_EQ(calls, (std::set<std::string>{
                       "attach", "schedule", "name", "extra_stats",
                       "set_event_sink", "clear_event_sink",
                       "notify_core_down", "notify_core_up",
                       "aggressive_snapshot", "telemetry_sample"}));
  EXPECT_EQ(sink.events, 2);
  EXPECT_EQ(sched.core_grants(), 1u);
  EXPECT_EQ(sched.migrations(), 1u);
  EXPECT_EQ(counter.calls, 1u);
}

class RecordingDispatcher final : public laps::Dispatcher {
 public:
  explicit RecordingDispatcher(std::set<std::string>* calls) : calls_(calls) {}
  void attach(std::size_t) override { calls_->insert("attach"); }
  laps::ShardId pick(const laps::GeneratedPacket&,
                     const laps::ClusterView&) override {
    calls_->insert("pick");
    return 1;
  }
  void on_sync(const laps::ClusterView&,
               std::span<const std::uint32_t>) override {
    calls_->insert("on_sync");
  }
  bool wants_completions() const override {
    calls_->insert("wants_completions");
    return false;
  }
  std::string name() const override {
    calls_->insert("name");
    return "Recording";
  }
  std::map<std::string, double> extra_stats() const override {
    calls_->insert("extra_stats");
    return {{"y", 2.0}};
  }

 private:
  std::set<std::string>* calls_;
};

TEST(Wrappers, DispatcherForwardsEveryVirtual) {
  std::set<std::string> calls;
  CallCounter pick;
  CallCounter sync;
  TimedDispatcher d(std::make_unique<RecordingDispatcher>(&calls), &pick,
                    &sync);
  d.attach(2);
  const laps::ClusterView view;
  EXPECT_EQ(d.pick(laps::GeneratedPacket{}, view), 1u);
  d.on_sync(view, {});
  EXPECT_FALSE(d.wants_completions());
  EXPECT_EQ(d.name(), "Recording");
  EXPECT_EQ(d.extra_stats().at("y"), 2.0);
  EXPECT_EQ(calls, (std::set<std::string>{"attach", "pick", "on_sync",
                                          "wants_completions", "name",
                                          "extra_stats"}));
  EXPECT_EQ(pick.calls, 1u);
  EXPECT_EQ(sync.calls, 1u);
}

TEST(Tracing, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer tracer(true);
  {
    Span parent(tracer, "parent");
    Span a(tracer, "child", parent.id());
  }
  const auto summary = tracer.summarize();
  ASSERT_EQ(summary.count("parent"), 1u);
  const SpanSummary& p = summary.at("parent");
  const SpanSummary& c = summary.at("child");
  EXPECT_GE(p.total_s, c.total_s);
  EXPECT_NEAR(p.self_s, p.total_s - c.total_s, 1e-9);
}

}  // namespace
}  // namespace lapsbench
