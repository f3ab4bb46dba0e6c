#include "workloads.h"

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cache/afd.h"
#include "cluster/cluster.h"
#include "cluster/report.h"
#include "exp/dispatcher_registry.h"
#include "exp/experiment.h"
#include "exp/harness.h"
#include "exp/scheduler_registry.h"
#include "exp/trace_store.h"
#include "layers.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/flight_recorder.h"
#include "sim/flow_audit.h"
#include "sim/probes.h"
#include "sim/report_json.h"
#include "sim/scenarios.h"
#include "telemetry/probe.h"
#include "trace/synthetic.h"
#include "util/tableio.h"
#include "util/toeplitz.h"

namespace lapsbench {

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/// Timed repetitions a run makes at least (per mode in a traced run), so
/// that every cell's report is compared across repetitions.
constexpr int kMinReps = 2;

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

/// p-quantile of a report histogram, interpolated linearly inside the
/// bucket that holds it (between the previous occupied bucket's bound and
/// this one's), so that it moves with the traffic instead of snapping to
/// bucket bounds.
double quantile_interpolated(const laps::Histogram& h, double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  const double rank = q * static_cast<double>(n);
  double below = 0.0;
  double lower = 0.0;
  for (const laps::Histogram::Bucket& b : h.buckets()) {
    const double c = static_cast<double>(b.count);
    if (below + c >= rank) {
      const double upper = static_cast<double>(b.upper_bound);
      return lower + (upper - lower) * (rank - below) / c;
    }
    below += c;
    lower = static_cast<double>(b.upper_bound);
  }
  return static_cast<double>(h.max());
}

/// Modelled totals over the cells under study.
struct Study {
  std::uint64_t offered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delivered = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t cold = 0;
  std::uint64_t cross_np_ooo = 0;
  laps::Histogram latency;

  void add(const laps::SimReport& r) {
    offered += r.offered;
    dropped += r.dropped;
    delivered += r.delivered;
    out_of_order += r.out_of_order;
    cold += r.cold_cache_events;
    latency.merge(r.latency_ns);
  }
  void add(const laps::ClusterReport& r) {
    offered += r.offered;
    dropped += r.dropped;
    delivered += r.delivered;
    out_of_order += r.cluster_out_of_order;
    cross_np_ooo += r.cross_np_out_of_order;
    for (const laps::SimReport& shard : r.shards) {
      cold += shard.cold_cache_events;
      latency.merge(shard.latency_ns);
    }
  }
};

/// What one timed repetition produced.
struct RepOutcome {
  double wall_s = 0.0;
  std::uint64_t offered = 0;  ///< packets offered, all cells
  /// Per cell: label and digest of its report, in plan order.
  std::vector<std::pair<std::string, std::uint64_t>> cells;
  /// Cells that failed a conservation or theorem check, with the reason.
  std::vector<std::string> failures;
  Study study;
  /// Digest of the whole-grid artifact (paper-grid only).
  std::uint64_t artifact_digest = 0;
};

/// Conservation check shared by every cell: every offered packet was
/// delivered or dropped and nothing was left in flight.
bool conserved(const laps::SimReport& r) {
  return r.offered == r.delivered + r.dropped && r.in_flight_at_end == 0;
}

void record_cell(RepOutcome& out, const std::string& label,
                 const std::string& report_json, bool ok,
                 const std::string& why) {
  out.cells.emplace_back(label, fnv1a(kFnvBasis, report_json));
  if (!ok) out.failures.push_back(label + ": " + why);
}

/// Counters of one traced run, kept apart for set-up and timed phases, and
/// per-cell tallies that grid workers add under a lock.
struct Ctx {
  explicit Ctx(const BenchOptions& o) : opt(o), tracer(o.trace) {}

  const BenchOptions& opt;
  Tracer tracer;
  Tracer untraced{false};
  /// Grid workers.
  std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  CounterPool setup_pool;
  CounterPool rep_pool;

  std::mutex tally_mutex;
  std::map<std::string, double> tally;  ///< summed over traced reps
  void add(const std::string& key, double v) {
    std::lock_guard<std::mutex> lock(tally_mutex);
    tally[key] += v;
  }
  /// The span log for a repetition: untraced repetitions record none.
  Tracer& spans(bool traced) { return traced ? tracer : untraced; }
  double get(const std::string& key) {
    std::lock_guard<std::mutex> lock(tally_mutex);
    const auto it = tally.find(key);
    return it == tally.end() ? 0.0 : it->second;
  }
};

/// Per-layer values a workload measured, keyed by metric name.
using Layers = std::map<std::string, double>;

class Workload {
 public:
  explicit Workload(Ctx& ctx) : ctx_(ctx) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// One set-up (run setup_count() times; the last one's state is used).
  virtual void setup(bool traced, int span) = 0;
  /// One timed repetition.
  virtual RepOutcome rep(bool traced, int span) = 0;
  /// Per-layer values after all repetitions (traced runs only).
  virtual void layers(Layers& out, int traced_reps, double clock_ns) = 0;
  /// Set-ups per run; setup_s is their median.
  virtual int setup_count() const { return 5; }
  virtual bool reports_cold() const { return false; }
  virtual bool reports_cross_np() const { return false; }

 protected:
  Ctx& ctx_;
};

// --- shared helpers -------------------------------------------------------

/// Reproduces run_scenario (no faults) with the traffic generator and the
/// report probe wrapped; counters go to the rep pool and the probe's
/// arrival and completion counts to the run's tallies.
laps::SimReport simulate_traced(const laps::ScenarioConfig& cfg,
                                laps::Scheduler& scheduler, Ctx& ctx) {
  for (const laps::ServiceTraffic& s : cfg.services) s.trace->reset();
  laps::PacketGenerator generator(cfg.services, cfg.seed, cfg.seconds);
  TimedArrivals arrivals(generator, ctx.rep_pool.make("traffic.next"));
  laps::SimEngineConfig ec;
  ec.num_cores = cfg.num_cores;
  ec.queue_capacity = cfg.queue_capacity;
  ec.delay = cfg.delay;
  ec.restore_order = cfg.restore_order;
  ec.event_queue = cfg.event_queue;
  laps::ReportProbe report;
  TimedProbe timed_report(report, ctx.rep_pool.make("probe.report"));
  laps::SimEngine engine(ec, scheduler, {&timed_report});
  engine.run(arrivals, cfg.name);
  ctx.add("probe_arrivals", static_cast<double>(timed_report.arrivals()));
  ctx.add("completions", static_cast<double>(timed_report.completions()));
  return report.take_report();
}

/// Layer counter name for a registry scheduler spec.
std::string schedule_layer(const std::string& spec) {
  return "schedule." + spec.substr(0, spec.find(':'));
}

/// What the wrapped calls of `layer` added to the span around them: their
/// raw time plus the second clock read each call adds.
double charged_ns(const LayerTotals& t, const std::string& layer,
                  double clock_ns) {
  const auto it = t.all().find(layer);
  if (it == t.all().end()) return 0.0;
  return static_cast<double>(it->second.raw_ns) +
         clock_ns * static_cast<double>(it->second.calls);
}

double span_total_s(const Tracer& tracer, const std::string& name) {
  const auto summary = tracer.summarize();
  const auto it = summary.find(name);
  return it == summary.end() ? 0.0 : it->second.total_s;
}

double span_mean_s(const Tracer& tracer, const std::string& name) {
  const auto summary = tracer.summarize();
  const auto it = summary.find(name);
  return it == summary.end() || it->second.count == 0
             ? 0.0
             : it->second.total_s / static_cast<double>(it->second.count);
}

/// Trace and traffic layer values common to every workload.
void trace_traffic_layers(Layers& out, const LayerTotals& t, double clock_ns,
                          double materialize_divisor) {
  const double trace_net = t.net_ns("trace.next", clock_ns);
  out["trace.ns_per_record"] = t.ns_per_call("trace.next", clock_ns);
  out["trace.materialize_s"] =
      materialize_divisor > 0 ? trace_net * 1e-9 / materialize_divisor : 0.0;
  const std::uint64_t pkts = t.calls("traffic.next");
  if (pkts > 0) {
    const double self = t.net_ns("traffic.next", clock_ns) -
                        charged_ns(t, "trace.next", clock_ns);
    out["traffic.ns_per_pkt"] =
        std::max(0.0, self) / static_cast<double>(pkts);
  }
}

/// Scheduler layer values from the rep counters.
void scheduler_layers(Layers& out, const LayerTotals& t,
                      double clock_ns) {
  const auto per_call = [&](const char* layer) {
    return t.ns_per_call(layer, clock_ns);
  };
  out["core.laps_schedule_ns"] = per_call("schedule.laps");
  out["baselines.fcfs_schedule_ns"] = per_call("schedule.fcfs");
  out["baselines.afs_schedule_ns"] = per_call("schedule.afs");
  out["baselines.hash_schedule_ns"] = per_call("schedule.hash");
}

/// Engine layer values per offered packet: the simulate time `run_ns`
/// minus what the wrapped `inside` layers were charged in it, and the
/// report probe's own time.
void engine_layers(Layers& out, const LayerTotals& t, double clock_ns,
                   double run_ns, double offered,
                   std::initializer_list<const char*> inside) {
  if (offered <= 0) return;
  double self = run_ns;
  for (const char* layer : inside) self -= charged_ns(t, layer, clock_ns);
  out["sim.engine_self_ns_per_pkt"] = std::max(0.0, self) / offered;
  out["sim.report_probe_ns_per_pkt"] =
      t.net_ns("probe.report", clock_ns) / offered;
}

/// Adds a traced LAPS scheduler's AFD and migration counts to the tallies.
void tally_laps(Ctx& ctx, const TimedScheduler& sched) {
  const laps::SchedTelemetry tel = sched.telemetry_sample();
  ctx.add("afd_hits", static_cast<double>(tel.afd_hits));
  ctx.add("afd_evictions", static_cast<double>(tel.afd_evictions));
  ctx.add("migrations", static_cast<double>(sched.migrations()));
  ctx.add("core_grants", static_cast<double>(sched.core_grants()));
}

/// LAPS core values from the tallies, per LAPS call or per repetition.
void core_layers(Layers& out, const LayerTotals& t, Ctx& ctx, double reps) {
  const double calls = static_cast<double>(t.calls("schedule.laps"));
  if (calls > 0) {
    out["core.afd_hit_ratio"] = ctx.get("afd_hits") / calls;
    out["core.afd_evictions_per_kpkt"] =
        1000.0 * ctx.get("afd_evictions") / calls;
  }
  out["core.migrations"] = ctx.get("migrations") / reps;
  out["core.core_grants"] = ctx.get("core_grants") / reps;
}

// --- paper-grid -----------------------------------------------------------

/// Table VI T1-T8 x {fcfs, afs, laps}: what fig7_scheduler_comparison runs,
/// with trace generation, simulation, aggregation and the artifact write on
/// the clock.
class PaperGrid final : public Workload {
 public:
  explicit PaperGrid(Ctx& ctx) : Workload(ctx) {}

  void setup(bool traced, int span) override {
    // What a grid builds before its first packet: the eight calibrated
    // scenarios over a fresh shared trace store.
    auto store = std::make_shared<laps::TraceStore>();
    const laps::ScenarioOptions o =
        options(store, traced ? &ctx_.setup_pool : nullptr);
    for (const std::string& id : laps::paper_scenario_ids()) {
      Span s(ctx_.tracer, "calibrate", span);
      (void)laps::make_paper_scenario(id, o);
    }
  }

  RepOutcome rep(bool traced, int span) override {
    RepOutcome out;
    auto store = std::make_shared<laps::TraceStore>();
    laps::ExperimentPlan plan(ctx_.opt.seed);
    const std::vector<std::string> ids = laps::paper_scenario_ids();
    if (traced) {
      add_traced_cells(plan, store, span);
    } else {
      std::vector<laps::SchedulerSpec> specs;
      for (const char* s : kSpecs) {
        specs.push_back(laps::make_scheduler_spec(s));
      }
      const laps::ScenarioOptions o = options(store, nullptr);
      plan.add_grid(ids, specs, {ctx_.opt.seed},
                    [o](const std::string& id, std::uint64_t seed) {
                      laps::ScenarioOptions with_seed = o;
                      with_seed.seed = seed;
                      return laps::make_paper_scenario(id, with_seed);
                    });
    }
    const std::string path = ctx_.opt.out_dir + "/paper-grid.artifact.json";
    laps::ParallelRunner runner(
        std::min<std::size_t>(ctx_.threads, plan.size()));
    const std::int64_t t0 = now_ns();
    std::vector<laps::JobResult> results;
    {
      Span s(ctx_.spans(traced), "runner", span);
      results = runner.run(plan);
    }
    laps::Table fig({"scenario", "scheduler", "offered", "dropped", "drop%",
                     "cold%", "ooo", "ooo%", "migrations", "thru Mpps"});
    {
      Span s(ctx_.spans(traced), "aggregate", span);
      for (const laps::JobResult& res : results) {
        const laps::SimReport& r = res.report;
        fig.add_row({res.scenario, res.scheduler,
                     laps::Table::num(static_cast<std::int64_t>(r.offered)),
                     laps::Table::num(static_cast<std::int64_t>(r.dropped)),
                     laps::Table::pct(r.drop_ratio()),
                     laps::Table::pct(r.cold_cache_ratio()),
                     laps::Table::num(
                         static_cast<std::int64_t>(r.out_of_order)),
                     laps::Table::pct(r.ooo_ratio(), 4),
                     laps::Table::num(
                         static_cast<std::int64_t>(r.flow_migrations)),
                     laps::Table::num(r.throughput_mpps(), 3)});
      }
    }
    const std::int64_t tw = now_ns();
    {
      Span s(ctx_.spans(traced), "artifact", span);
      laps::write_json_artifact(path, "fig7_scheduler_comparison", results,
                                {{"fig7", &fig}});
    }
    const std::int64_t t1 = now_ns();
    out.wall_s = seconds_between(t0, t1);

    // Outside the clock: checks and modelled totals.
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    out.artifact_digest = fnv1a(kFnvBasis, bytes);
    std::vector<double> cell_s;
    for (const laps::JobResult& res : results) {
      const std::string label = res.scenario + "/" + res.scheduler;
      cell_s.push_back(res.wall_seconds);
      if (!res.ok()) {
        record_cell(out, label, "", false,
                    res.error->kind + ": " + res.error->message);
        continue;
      }
      out.offered += res.report.offered;
      record_cell(out, label, laps::report_to_json(res.report),
                  conserved(res.report),
                  "offered != delivered + dropped or packets left in flight");
      if (res.scheduler == "LAPS") out.study.add(res.report);
    }
    if (traced) {
      const laps::RunnerStats& st = runner.stats();
      ctx_.add("exp.cell_s.p50", median(cell_s));
      ctx_.add("exp.cell_s.max",
               cell_s.empty()
                   ? 0.0
                   : *std::max_element(cell_s.begin(), cell_s.end()));
      ctx_.add("exp.worker_busy_pct",
               st.wall_seconds > 0 && st.jobs_used > 0
                   ? 100.0 * st.job_seconds /
                         (st.wall_seconds * static_cast<double>(st.jobs_used))
                   : 0.0);
      ctx_.add("exp.artifact_write_s", seconds_between(tw, t1));
      ctx_.add("offered", static_cast<double>(out.offered));
    }
    return out;
  }

  void layers(Layers& out, int traced_reps, double clock_ns) override {
    LayerTotals t;
    ctx_.rep_pool.collect(t);
    const double reps = std::max(1, traced_reps);
    trace_traffic_layers(out, t, clock_ns, reps);
    out["traffic.calibrate_s"] = span_mean_s(ctx_.tracer, "calibrate");
    scheduler_layers(out, t, clock_ns);
    engine_layers(out, t, clock_ns,
                  span_total_s(ctx_.tracer, "simulate") * 1e9,
                  ctx_.get("offered"),
                  {"schedule.fcfs", "schedule.afs", "schedule.laps",
                   "probe.report", "traffic.next"});
    out["sim.completions"] = ctx_.get("completions") / reps;
    core_layers(out, t, ctx_, reps);
    for (const char* key : {"exp.cell_s.p50", "exp.cell_s.max",
                            "exp.worker_busy_pct", "exp.artifact_write_s"}) {
      out[key] = ctx_.get(key) / reps;
    }
  }

  // A grid set-up takes tens of milliseconds, so more of them are cheap
  // and steady the median.
  int setup_count() const override { return 9; }
  bool reports_cold() const override { return true; }

 private:
  static constexpr const char* kSpecs[] = {"fcfs", "afs", "laps"};

  laps::ScenarioOptions options(const std::shared_ptr<laps::TraceStore>& store,
                                CounterPool* pool) const {
    laps::ScenarioOptions o;
    o.seconds = ctx_.opt.grid_seconds;
    o.seed = ctx_.opt.seed;
    o.num_cores = 16;
    if (pool == nullptr) {
      o.trace_factory = store->factory();
    } else {
      o.trace_factory = [store, pool](const std::string& name) {
        return std::shared_ptr<laps::TraceSource>(std::make_shared<TimedTrace>(
            store->open(name), pool->make("trace.next")));
      };
    }
    return o;
  }

  /// The traced grid: the same cells in the same order as add_grid, with
  /// per-cell spans and wrapped layers.
  void add_traced_cells(laps::ExperimentPlan& plan,
                        const std::shared_ptr<laps::TraceStore>& store,
                        int rep_span) {
    const laps::ScenarioOptions o = options(store, &ctx_.rep_pool);
    int cell = 0;
    for (const std::string& id : laps::paper_scenario_ids()) {
      for (const char* spec_c : kSpecs) {
        const std::string spec = spec_c;
        const std::string display = laps::make_scheduler_spec(spec).name;
        const std::uint64_t seed = ctx_.opt.seed;
        Ctx* ctx = &ctx_;
        plan.add(id, display, seed, [=]() -> laps::SimReport {
          Span cell_span(ctx->tracer, "cell", rep_span, cell);
          laps::ScenarioOptions with_seed = o;
          with_seed.seed = seed;
          laps::ScenarioConfig cfg;
          {
            Span s(ctx->tracer, "calibrate", cell_span.id(), cell);
            cfg = laps::make_paper_scenario(id, with_seed);
          }
          TimedScheduler sched(laps::make_scheduler(spec),
                               ctx->rep_pool.make(schedule_layer(spec)));
          laps::SimReport report;
          {
            Span s(ctx->tracer, "simulate", cell_span.id(), cell);
            report = simulate_traced(cfg, sched, *ctx);
          }
          if (spec == "laps") tally_laps(*ctx, sched);
          return report;
        });
        ++cell;
      }
    }
  }
};

// --- recorded caida1 replay (laps-fastpath, observed-replay, cluster) -----

/// Single-service IP forwarding on caida1 at 1.05x the capacity of 16
/// cores, recorded once per set-up into a ReplayStream.
class ReplayWorkload : public Workload {
 public:
  using Workload::Workload;

  void setup(bool traced, int span) override {
    laps::ScenarioOptions o;
    o.seconds = ctx_.opt.replay_seconds;
    o.seed = ctx_.opt.seed;
    o.num_cores = 16;
    if (traced) {
      CounterPool* pool = &ctx_.setup_pool;
      o.trace_factory = [pool](const std::string& name) {
        return std::shared_ptr<laps::TraceSource>(std::make_shared<TimedTrace>(
            laps::make_trace(name), pool->make("trace.next")));
      };
    }
    {
      Span s(ctx_.tracer, "calibrate", span);
      config_ = laps::make_single_service_scenario("caida1", o, 1.05);
    }
    Span s(ctx_.tracer, "record", span);
    for (const laps::ServiceTraffic& svc : config_.services) svc.trace->reset();
    laps::PacketGenerator generator(config_.services, config_.seed,
                                    config_.seconds);
    if (traced) {
      TimedArrivals arrivals(generator, ctx_.setup_pool.make("traffic.next"));
      replay_ = laps::ReplayStream::record(arrivals);
    } else {
      replay_ = laps::ReplayStream::record(generator);
    }
    ++setups_;
  }

 protected:
  laps::SimEngineConfig engine_config() const {
    laps::SimEngineConfig ec;
    ec.num_cores = config_.num_cores;
    ec.queue_capacity = config_.queue_capacity;
    ec.delay = config_.delay;
    return ec;
  }

  std::unique_ptr<laps::Scheduler> scheduler(const std::string& spec,
                                             bool traced, CounterPool& pool) {
    auto inner = laps::make_scheduler(spec);
    if (!traced) return inner;
    return std::make_unique<TimedScheduler>(std::move(inner),
                                            pool.make(schedule_layer(spec)));
  }

  /// Records a conserved cell whose offered count must equal the replay.
  void check_replay_cell(RepOutcome& out, const std::string& label,
                         const laps::SimReport& r) {
    out.offered += r.offered;
    record_cell(out, label, laps::report_to_json(r),
                conserved(r) && r.offered == replay_.size(),
                "offered != replayed, or offered != delivered + dropped, or "
                "packets left in flight");
  }

  /// Setup-phase trace/traffic values plus the micro passes over the
  /// recorded keys: Afd::access (paper config), CRC16 and Toeplitz.
  void replay_layers(Layers& out, double clock_ns) {
    LayerTotals setup;
    ctx_.setup_pool.collect(setup);
    trace_traffic_layers(out, setup, clock_ns, std::max(1, setups_));
    out["traffic.calibrate_s"] = span_mean_s(ctx_.tracer, "calibrate");

    const std::size_t n = std::min<std::size_t>(replay_.size(), 1u << 20);
    std::vector<laps::FiveTuple> tuples;
    tuples.reserve(n);
    laps::ReplayStream cursor = replay_.fork();
    while (tuples.size() < n) {
      const auto pkt = cursor.next();
      if (!pkt) break;
      tuples.push_back(pkt->record.tuple);
    }
    if (tuples.empty()) return;
    // One timed region per pass over the keys, net of one clock cost.
    const auto per_key = [&](std::int64_t t0) {
      const double ns = static_cast<double>(now_ns() - t0) - clock_ns;
      return std::max(0.0, ns) / static_cast<double>(tuples.size());
    };
    std::uint64_t sink = 0;
    {
      laps::Afd afd{laps::AfdConfig{}};
      const std::int64_t t0 = now_ns();
      for (const laps::FiveTuple& t : tuples) afd.access(t.key64());
      out["cache.afd_access_ns"] = per_key(t0);
      sink += afd.afc_size();
    }
    {
      const std::int64_t t0 = now_ns();
      for (const laps::FiveTuple& t : tuples) sink += t.crc16();
      out["util.crc16_ns"] = per_key(t0);
    }
    {
      const laps::ToeplitzHash hash;
      const std::int64_t t0 = now_ns();
      for (const laps::FiveTuple& t : tuples) sink += hash.hash(t);
      out["util.toeplitz_ns"] = per_key(t0);
    }
    volatile std::uint64_t keep = sink;
    (void)keep;
  }

  laps::ScenarioConfig config_;
  laps::ReplayStream replay_;
  int setups_ = 0;
};

/// The recording through `laps:services=1` with only a ReportProbe: LAPS's
/// per-packet mechanisms dominate host time.
class LapsFastpath final : public ReplayWorkload {
 public:
  using ReplayWorkload::ReplayWorkload;

  RepOutcome rep(bool traced, int span) override {
    RepOutcome out;
    Span cell(ctx_.spans(traced), "cell", span, 0);
    auto sched = scheduler(kSpec, traced, ctx_.rep_pool);
    laps::ReportProbe report;
    std::optional<TimedProbe> timed_report;
    laps::ProbeSet probes;
    if (traced) {
      timed_report.emplace(report, ctx_.rep_pool.make("probe.report"));
      probes.add(&*timed_report);
    } else {
      probes.add(&report);
    }
    laps::ReplayStream stream = replay_.fork();
    const std::int64_t t0 = now_ns();
    {
      Span s(ctx_.spans(traced), "simulate", cell.id(), 0);
      laps::SimEngine engine(engine_config(), *sched, probes);
      engine.run(stream, config_.name);
    }
    out.wall_s = seconds_between(t0, now_ns());
    const laps::SimReport r = report.take_report();
    check_replay_cell(out, "laps", r);
    out.study.add(r);
    if (traced) {
      tally_laps(ctx_, static_cast<const TimedScheduler&>(*sched));
      ctx_.add("offered", static_cast<double>(r.offered));
      ctx_.add("completions", static_cast<double>(timed_report->completions()));
      ctx_.add("probe_arrivals", static_cast<double>(timed_report->arrivals()));
    }
    return out;
  }

  void layers(Layers& out, int traced_reps, double clock_ns) override {
    replay_layers(out, clock_ns);
    LayerTotals t;
    ctx_.rep_pool.collect(t);
    const double reps = std::max(1, traced_reps);
    scheduler_layers(out, t, clock_ns);
    engine_layers(out, t, clock_ns,
                  span_total_s(ctx_.tracer, "simulate") * 1e9,
                  ctx_.get("offered"), {"schedule.laps", "probe.report"});
    out["sim.completions"] = ctx_.get("completions") / reps;
    core_layers(out, t, ctx_, reps);
  }

 private:
  static constexpr const char* kSpec = "laps:services=1";
};

/// The recording through the cheap `hash` scheduler under the full
/// diagnosis probe stack on 100 us epochs: engine and probes dominate.
class ObservedReplay final : public ReplayWorkload {
 public:
  using ReplayWorkload::ReplayWorkload;

  RepOutcome rep(bool traced, int span) override {
    RepOutcome out;
    Span cell(ctx_.spans(traced), "cell", span, 0);
    auto sched = scheduler("hash", traced, ctx_.rep_pool);
    laps::telemetry::TelemetryConfig telem_cfg;
    laps::ReportProbe report;
    laps::telemetry::TelemetryProbe telem(telem_cfg, sched.get());
    laps::FlowAuditProbe audit;
    laps::FlightRecorderProbe flight;
    std::vector<std::unique_ptr<TimedProbe>> timed;
    laps::ProbeSet probes;
    const std::pair<laps::SimProbe*, const char*> stack[] = {
        {&report, "probe.report"},
        {&telem, "probe.telemetry"},
        {&audit, "probe.audit"},
        {&flight, "probe.flight"}};
    for (const auto& [probe, layer] : stack) {
      if (traced) {
        timed.push_back(
            std::make_unique<TimedProbe>(*probe, ctx_.rep_pool.make(layer)));
        probes.add(timed.back().get());
      } else {
        probes.add(probe);
      }
    }
    laps::SimEngineConfig ec = engine_config();
    ec.epoch_ns = telem_cfg.interval;
    laps::ReplayStream stream = replay_.fork();
    const std::int64_t t0 = now_ns();
    {
      Span s(ctx_.spans(traced), "simulate", cell.id(), 0);
      laps::SimEngine engine(ec, *sched, probes);
      engine.run(stream, config_.name);
    }
    out.wall_s = seconds_between(t0, now_ns());
    const laps::SimReport r = report.take_report();
    check_replay_cell(out, "hash+probes", r);
    out.study.add(r);
    if (traced) {
      ctx_.add("offered", static_cast<double>(r.offered));
      ctx_.add("completions", static_cast<double>(timed[0]->completions()));
      ctx_.add("probe_arrivals", static_cast<double>(timed[0]->arrivals()));
    }
    return out;
  }

  void layers(Layers& out, int traced_reps, double clock_ns) override {
    replay_layers(out, clock_ns);
    LayerTotals t;
    ctx_.rep_pool.collect(t);
    scheduler_layers(out, t, clock_ns);
    const double offered = ctx_.get("offered");
    engine_layers(out, t, clock_ns,
                  span_total_s(ctx_.tracer, "simulate") * 1e9, offered,
                  {"schedule.hash", "probe.report", "probe.telemetry",
                   "probe.audit", "probe.flight"});
    if (offered > 0) {
      out["sim.audit_probe_ns_per_pkt"] =
          t.net_ns("probe.audit", clock_ns) / offered;
      out["sim.flight_probe_ns_per_pkt"] =
          t.net_ns("probe.flight", clock_ns) / offered;
      out["telemetry.probe_ns_per_pkt"] =
          t.net_ns("probe.telemetry", clock_ns) / offered;
    }
    out["sim.completions"] = ctx_.get("completions") / std::max(1, traced_reps);
  }
};

/// The recording through run_cluster: 4 shards x 4 cores of `afs` behind
/// rss and affinity, a 1-shard pass row, and a core down/up fault in one
/// shard behind Flow Director.
class ClusterFabric final : public ReplayWorkload {
 public:
  using ReplayWorkload::ReplayWorkload;

  RepOutcome rep(bool traced, int span) override {
    RepOutcome out;
    const std::string faults = fault_spec();
    const laps::FaultPlan plan = laps::parse_fault_plan(faults);
    auto shared_plan = std::make_shared<const laps::FaultPlan>(plan);
    struct Row {
      const char* label;
      const char* dispatch;
      std::size_t shards;
      bool fault;
    };
    const Row rows[] = {{"rss", "rss", 4, false},
                        {"affinity", "affinity", 4, false},
                        {"pass", "pass", 1, false},
                        {"fault", "fdir", 4, true}};
    int cell = 0;
    for (const Row& row : rows) {
      Span cell_span(ctx_.spans(traced), "cell", span, cell);
      laps::ClusterConfig cc;
      cc.name = config_.name;
      cc.num_shards = row.shards;
      cc.cores_per_shard = config_.num_cores / row.shards;
      cc.queue_capacity = config_.queue_capacity;
      cc.delay = config_.delay;
      // Lockstep: bit-identical to the threaded executor and no slower on
      // a 4-vCPU host, while a barrier every sync window makes threaded
      // runs swing with every descheduled vCPU (1.8 to 3.4 Mpkt/s between
      // runs of the same build).
      cc.threads = 1;
      if (row.fault) {
        cc.shard_faults.assign(row.shards, nullptr);
        cc.shard_faults[1] = shared_plan;
      }
      CounterPool* pool = &ctx_.rep_pool;
      if (traced) {
        cc.make_scheduler = [pool]() -> std::unique_ptr<laps::Scheduler> {
          return std::make_unique<TimedScheduler>(
              laps::make_scheduler("afs"), pool->make("schedule.afs"));
        };
      } else {
        cc.make_scheduler = [] { return laps::make_scheduler("afs"); };
      }
      std::unique_ptr<laps::Dispatcher> dispatcher =
          laps::make_dispatcher(row.dispatch);
      if (traced) {
        dispatcher = std::make_unique<TimedDispatcher>(
            std::move(dispatcher), pool->make("cluster.pick"),
            pool->make("cluster.on_sync"));
      }
      laps::ReplayStream stream = replay_.fork();
      const std::int64_t t0 = now_ns();
      laps::ClusterReport r;
      {
        Span s(ctx_.spans(traced), "simulate", cell_span.id(), cell);
        r = laps::run_cluster(cc, stream, *dispatcher);
      }
      out.wall_s += seconds_between(t0, now_ns());
      out.offered += r.offered;
      bool ok = r.offered == replay_.size() &&
                r.offered == r.delivered + r.dropped;
      for (const laps::SimReport& shard : r.shards) ok = ok && conserved(shard);
      std::string why =
          "offered != replayed, or offered != delivered + dropped, or "
          "packets left in flight";
      // The cluster theorems: RSS never moves a flow, and drain-gated
      // affinity moves one only with nothing in flight, so neither can
      // reorder across NPs.
      if (!row.fault && row.shards > 1 && r.cross_np_out_of_order != 0) {
        ok = false;
        why = "cross-NP out-of-order packets under " +
              std::string(row.dispatch);
      }
      // A traced repetition also runs the plain engine over the same
      // replay, off the clock: the 1-shard pass shard must match its report
      // byte for byte.
      if (traced && row.shards == 1 &&
          (r.shards.empty() ||
           laps::report_to_json(r.shards[0]) != plain_engine_json())) {
        ok = false;
        why = "1-shard cluster report differs from the plain engine's";
      }
      record_cell(out, row.label, laps::cluster_report_to_json(r), ok, why);
      out.study.add(r);
      if (traced) {
        ctx_.add("cross_np_migrations",
                 static_cast<double>(r.cross_np_migrations));
        ctx_.add("offered", static_cast<double>(r.offered));
      }
      ++cell;
    }
    return out;
  }

  void layers(Layers& out, int traced_reps, double clock_ns) override {
    replay_layers(out, clock_ns);
    LayerTotals t;
    ctx_.rep_pool.collect(t);
    const double reps = std::max(1, traced_reps);
    scheduler_layers(out, t, clock_ns);
    out["cluster.pick_ns"] = t.ns_per_call("cluster.pick", clock_ns);
    out["cluster.on_sync_ns"] =
        t.ns_per_call("cluster.on_sync", clock_ns);
    out["cluster.shard_schedule_ns"] =
        t.ns_per_call("schedule.afs", clock_ns);
    out["cluster.barriers"] =
        static_cast<double>(t.calls("cluster.on_sync")) / reps;
    out["cluster.cross_np_migrations"] = ctx_.get("cross_np_migrations") / reps;
    fabric_layers(out, clock_ns);
  }

  bool reports_cross_np() const override { return true; }

 private:
  /// Core 1 of shard 1 fails at a quarter of the horizon and recovers at
  /// half of it.
  std::string fault_spec() const {
    const long long quarter_us =
        static_cast<long long>(ctx_.opt.replay_seconds * 1e6 / 4);
    return "down:1@" + std::to_string(quarter_us) + "us;up:1@" +
           std::to_string(2 * quarter_us) + "us";
  }

  /// Report of a plain, untraced SimEngine running `afs` over the replay.
  std::string plain_engine_json() {
    auto sched = laps::make_scheduler("afs");
    laps::ReportProbe report;
    laps::ReplayStream stream = replay_.fork();
    laps::SimEngine engine(engine_config(), *sched, {&report});
    engine.run(stream, config_.name);
    return laps::report_to_json(report.report());
  }

  /// The fabric tax (1-shard pass cluster vs a plain SimEngine over the
  /// same replay, both untraced, median of paired runs) and the engine
  /// layer values from one traced plain run.
  void fabric_layers(Layers& out, double clock_ns) {
    constexpr int kPairs = 3;
    std::vector<double> ratios;
    for (int i = 0; i < kPairs; ++i) {
      laps::ClusterConfig cc;
      cc.name = config_.name;
      cc.num_shards = 1;
      cc.cores_per_shard = config_.num_cores;
      cc.queue_capacity = config_.queue_capacity;
      cc.delay = config_.delay;
      cc.make_scheduler = [] { return laps::make_scheduler("afs"); };
      auto pass = laps::make_dispatcher("pass");
      laps::ReplayStream s1 = replay_.fork();
      std::int64_t t0 = now_ns();
      (void)laps::run_cluster(cc, s1, *pass);
      const double cluster_s = seconds_between(t0, now_ns());

      auto sched = laps::make_scheduler("afs");
      laps::ReportProbe report;
      laps::ReplayStream s2 = replay_.fork();
      t0 = now_ns();
      {
        laps::SimEngine engine(engine_config(), *sched, {&report});
        engine.run(s2, config_.name);
      }
      const double plain_s = seconds_between(t0, now_ns());
      ratios.push_back(plain_s > 0 ? cluster_s / plain_s - 1.0 : 0.0);
    }
    out["cluster.fabric_tax"] = median(ratios);

    CounterPool pool;
    TimedScheduler sched(laps::make_scheduler("afs"),
                         pool.make("schedule.afs"));
    laps::ReportProbe report;
    TimedProbe timed_report(report, pool.make("probe.report"));
    laps::ReplayStream stream = replay_.fork();
    const std::int64_t t0 = now_ns();
    {
      laps::SimEngine engine(engine_config(), sched, {&timed_report});
      engine.run(stream, config_.name);
    }
    const double run_ns = static_cast<double>(now_ns() - t0);
    LayerTotals t;
    pool.collect(t);
    engine_layers(out, t, clock_ns, run_ns,
                  static_cast<double>(report.report().offered),
                  {"schedule.afs", "probe.report"});
    out["sim.completions"] = static_cast<double>(timed_report.completions());
  }
};

std::unique_ptr<Workload> make_workload(Ctx& ctx) {
  const std::string& name = ctx.opt.workload;
  if (name == "paper-grid") return std::make_unique<PaperGrid>(ctx);
  if (name == "laps-fastpath") return std::make_unique<LapsFastpath>(ctx);
  if (name == "observed-replay") return std::make_unique<ObservedReplay>(ctx);
  if (name == "cluster-fabric") return std::make_unique<ClusterFabric>(ctx);
  std::string known;
  for (const std::string& w : workload_names()) known += " " + w;
  throw std::invalid_argument("unknown workload '" + name + "' (known:" +
                              known + ")");
}

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

/// Per-layer metric names and units, in output order.
const std::vector<std::pair<std::string, std::string>>& layer_table() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"trace.ns_per_record", "ns"},
      {"trace.materialize_s", "s"},
      {"traffic.ns_per_pkt", "ns"},
      {"traffic.calibrate_s", "s"},
      {"sim.engine_self_ns_per_pkt", "ns"},
      {"sim.completions", "count"},
      {"sim.report_probe_ns_per_pkt", "ns"},
      {"sim.audit_probe_ns_per_pkt", "ns"},
      {"sim.flight_probe_ns_per_pkt", "ns"},
      {"telemetry.probe_ns_per_pkt", "ns"},
      {"core.laps_schedule_ns", "ns"},
      {"core.afd_hit_ratio", "ratio"},
      {"core.afd_evictions_per_kpkt", "1/kpkt"},
      {"core.migrations", "count"},
      {"core.core_grants", "count"},
      {"cache.afd_access_ns", "ns"},
      {"baselines.fcfs_schedule_ns", "ns"},
      {"baselines.afs_schedule_ns", "ns"},
      {"baselines.hash_schedule_ns", "ns"},
      {"util.crc16_ns", "ns"},
      {"util.toeplitz_ns", "ns"},
      {"exp.cell_s.p50", "s"},
      {"exp.cell_s.max", "s"},
      {"exp.worker_busy_pct", "%"},
      {"exp.artifact_write_s", "s"},
      {"cluster.pick_ns", "ns"},
      {"cluster.on_sync_ns", "ns"},
      {"cluster.shard_schedule_ns", "ns"},
      {"cluster.fabric_tax", "ratio"},
      {"cluster.barriers", "count"},
      {"cluster.cross_np_migrations", "count"},
      {"drop_pct", "%"},
      {"ooo_pct", "%"},
      {"cold_pct", "%"},
      {"cross_np_ooo_pct", "%"},
      {"tracing.overhead_pct", "%"},
      {"tracing.clock_ns", "ns"},
  };
  return table;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

const std::vector<std::string>& gated_metric_names() {
  static const std::vector<std::string> names = {
      "sim_mpps", "setup_s", "peak_rss_mb", "latency_p99_us"};
  return names;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper-grid", "laps-fastpath", "cluster-fabric", "observed-replay"};
  return names;
}

BenchResult run_workload(const BenchOptions& opt) {
  Ctx ctx(opt);
  std::unique_ptr<Workload> workload = make_workload(ctx);
  BenchResult res;
  res.workload = opt.workload;
  const double clock_ns = opt.trace ? calibrate_clock_ns() : 0.0;

  std::vector<double> setup_s;
  for (int i = 0; i < workload->setup_count(); ++i) {
    Span span(ctx.tracer, "setup");
    const std::int64_t t0 = now_ns();
    workload->setup(opt.trace, span.id());
    setup_s.push_back(seconds_between(t0, now_ns()));
  }

  // Timed repetitions until the budget is spent; a traced run alternates
  // untraced and traced repetitions so both see the same host conditions.
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::vector<std::pair<std::string, std::uint64_t>> first_cells;
  std::uint64_t first_artifact = 0;
  Study study;
  int traced_reps = 0;
  int untraced_reps = 0;
  for (int i = 0;; ++i) {
    const bool enough = untraced_reps >= kMinReps &&
                        (!opt.trace || traced_reps >= kMinReps);
    if (enough && now_ns() >= deadline) break;
    const bool traced = opt.trace && i % 2 == 1;
    Span span(ctx.spans(traced), "rep");
    RepOutcome rep = workload->rep(traced, span.id());
    (traced ? traced_reps : untraced_reps) += 1;
    (traced ? res.traced_mpps : res.untraced_mpps)
        .push_back(rep.wall_s > 0
                       ? static_cast<double>(rep.offered) / rep.wall_s / 1e6
                       : 0.0);
    res.attempted += rep.cells.size();
    std::uint64_t failed = rep.failures.size();
    for (const std::string& f : rep.failures) res.failures.push_back(f);
    if (i == 0) {
      first_cells = rep.cells;
      first_artifact = rep.artifact_digest;
      study = rep.study;
      res.counts["offered"] = rep.offered;
    } else {
      // Same cells, same reports, same artifact, traced or not.
      for (std::size_t c = 0; c < rep.cells.size(); ++c) {
        if (c >= first_cells.size() || rep.cells[c] != first_cells[c]) {
          ++failed;
          res.failures.push_back(rep.cells[c].first +
                                 ": report differs from repetition 1");
        }
      }
      if (rep.artifact_digest != first_artifact) {
        // The artifact holds every cell of the repetition.
        failed = rep.cells.size();
        res.failures.push_back("grid artifact differs from repetition 1");
      }
    }
    res.failed += std::min<std::uint64_t>(failed, rep.cells.size());
  }
  res.digest = kFnvBasis;
  for (const auto& [label, digest] : first_cells) {
    res.digest = fnv1a(res.digest, label + std::to_string(digest));
  }
  const double mpps = median(res.untraced_mpps);
  auto& e2e = res.end_to_end;
  e2e.emplace_back("sim_mpps", Metric{mpps, "Mpkt/s"});
  e2e.emplace_back("setup_s", Metric{median(setup_s), "s"});
  e2e.emplace_back("peak_rss_mb", Metric{peak_rss_mb(), "MB"});
  e2e.emplace_back("failed_cells_pct",
                   Metric{pct(res.failed, res.attempted), "%"});
  e2e.emplace_back("drop_pct", Metric{pct(study.dropped, study.offered), "%"});
  e2e.emplace_back("ooo_pct",
                   Metric{pct(study.out_of_order, study.delivered), "%"});
  e2e.emplace_back("latency_p99_us",
                   Metric{quantile_interpolated(study.latency, 0.99) / 1e3,
                          "us"});
  if (workload->reports_cold()) {
    e2e.emplace_back("cold_pct", Metric{pct(study.cold, study.delivered), "%"});
  }
  if (workload->reports_cross_np()) {
    e2e.emplace_back("cross_np_ooo_pct",
                     Metric{pct(study.cross_np_ooo, study.delivered), "%"});
  }

  if (opt.trace) {
    Layers layers;
    workload->layers(layers, traced_reps, clock_ns);
    layers["drop_pct"] = pct(study.dropped, study.offered);
    layers["ooo_pct"] = pct(study.out_of_order, study.delivered);
    layers["cold_pct"] = pct(study.cold, study.delivered);
    layers["cross_np_ooo_pct"] = pct(study.cross_np_ooo, study.delivered);
    const double traced_mpps = median(res.traced_mpps);
    layers["tracing.overhead_pct"] =
        traced_mpps > 0 ? 100.0 * (mpps / traced_mpps - 1.0) : 0.0;
    layers["tracing.clock_ns"] = clock_ns;
    for (const auto& [name, unit] : layer_table()) {
      const auto it = layers.find(name);
      res.per_layer.emplace_back(
          name, Metric{it == layers.end() ? 0.0 : it->second, unit});
    }
    LayerTotals t;
    ctx.rep_pool.collect(t);
    std::uint64_t sched_calls = 0;
    for (const auto& [layer, counter] : t.all()) {
      if (layer.rfind("schedule.", 0) == 0) sched_calls += counter.calls;
    }
    res.counts["traced_reps"] = static_cast<std::uint64_t>(traced_reps);
    res.counts["scheduler_calls"] = sched_calls;
    res.counts["probe_arrivals"] =
        static_cast<std::uint64_t>(ctx.get("probe_arrivals"));
    res.counts["pick_calls"] = t.calls("cluster.pick");
    res.counts["traced_offered"] =
        static_cast<std::uint64_t>(ctx.get("offered"));
    res.spans = ctx.tracer.spans();
  }
  return res;
}

}  // namespace lapsbench
