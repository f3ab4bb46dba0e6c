#include "exp/scheduler_registry.h"

#include <sstream>

#include "baselines/adaptive_hash.h"
#include "baselines/afs.h"
#include "baselines/batch.h"
#include "baselines/fcfs.h"
#include "baselines/hybrids.h"
#include "baselines/oracle_topk.h"
#include "baselines/static_hash.h"
#include "core/laps.h"
#include "exp/spec_lang.h"

namespace laps {
namespace {

// The grammar machinery (spec parsing, typed parameter accessors, the
// canonical printer) is shared with the dispatcher registry — see
// exp/spec_lang.h. These aliases bind it to this registry's error type and
// "scheduler" message prefix; the error text is byte-identical to the
// pre-hoist registry (asserted by registry_test).

using ParsedSpec = spec::ParsedSpec;
using SpecPrinter = spec::SpecPrinter;

ParsedSpec parse_spec(const std::string& s) {
  return spec::parse_spec<SchedulerSpecError>(s, "scheduler");
}

class Params : public spec::Params<SchedulerSpecError> {
 public:
  Params(std::string scheduler, spec::ParamMap params)
      : spec::Params<SchedulerSpecError>("scheduler", std::move(scheduler),
                                        std::move(params)) {}
};

// --------------------------------------------- per-scheduler config logic
//
// Each scheduler contributes a parse (Params -> config struct) used by both
// the factory and the canonicalizer, so the two can never disagree about a
// spec's meaning.

std::size_t parse_plain(Params& p) {  // fcfs, batch-less schedulers
  p.finish();
  return 0;
}

std::size_t parse_hash(Params& p) {
  const std::size_t buckets = p.get_size("buckets", 0);
  p.finish();
  return buckets;
}

struct AfsParams {
  std::uint32_t high_th = 24;
  std::size_t buckets = 0;
  std::uint64_t cooldown = 2048;
};

AfsParams parse_afs(Params& p) {
  AfsParams cfg;
  cfg.high_th = p.get_u32("high_th", cfg.high_th);
  cfg.buckets = p.get_size("buckets", cfg.buckets);
  cfg.cooldown = p.get_u64("cooldown", cfg.cooldown);
  p.finish();
  return cfg;
}

AdaptiveHashScheduler::Options parse_adaptive(Params& p) {
  AdaptiveHashScheduler::Options cfg;
  cfg.period = p.get_u64("period", cfg.period);
  cfg.slack = p.get_double("slack", cfg.slack);
  cfg.max_moves_per_period = p.get_size("moves", cfg.max_moves_per_period);
  cfg.num_buckets = p.get_size("buckets", cfg.num_buckets);
  return cfg;  // caller finishes (adaptive-afd layers more keys on top)
}

void canon_adaptive(SpecPrinter& out, const AdaptiveHashScheduler::Options& c,
                    const AdaptiveHashScheduler::Options& d) {
  out.add_u64("period", c.period, d.period);
  out.add_double("slack", c.slack, d.slack);
  out.add_size("moves", c.max_moves_per_period, d.max_moves_per_period);
  out.add_size("buckets", c.num_buckets, d.num_buckets);
}

// Bound on the hardware-table sizes a spec may ask for (afc, annex, pins).
// The tables are allocated in full at construction, so an unbounded value
// would be an allocation bomb; 2^20 entries is 1024x the paper's largest
// annex and still only tens of MB.
constexpr std::size_t kMaxTableEntries = std::size_t{1} << 20;

std::size_t get_table_size(Params& p, const char* key, std::size_t def) {
  return p.get_size(key, def, 1, kMaxTableEntries);
}

void parse_afd(Params& p, AfdConfig& cfg) {
  cfg.afc_entries = get_table_size(p, "afc", cfg.afc_entries);
  cfg.annex_entries = get_table_size(p, "annex", cfg.annex_entries);
  cfg.promote_threshold = p.get_u64("promote", cfg.promote_threshold);
  cfg.sample_probability = p.get_double("sample", cfg.sample_probability);
  cfg.aging_period = p.get_u64("aging", cfg.aging_period);
  cfg.require_beat_afc_min = p.get_bool("beat_min", cfg.require_beat_afc_min);
}

void canon_afd(SpecPrinter& out, const AfdConfig& c, const AfdConfig& d) {
  out.add_size("afc", c.afc_entries, d.afc_entries);
  out.add_size("annex", c.annex_entries, d.annex_entries);
  out.add_u64("promote", c.promote_threshold, d.promote_threshold);
  out.add_double("sample", c.sample_probability, d.sample_probability);
  out.add_u64("aging", c.aging_period, d.aging_period);
  out.add_bool("beat_min", c.require_beat_afc_min, d.require_beat_afc_min);
}

CombinedAdaptiveScheduler::CombinedOptions parse_adaptive_afd(Params& p) {
  CombinedAdaptiveScheduler::CombinedOptions cfg;
  cfg.adaptive = parse_adaptive(p);
  parse_afd(p, cfg.afd);
  cfg.high_thresh = p.get_u32("high_th", cfg.high_thresh);
  cfg.migration_table_capacity =
      get_table_size(p, "pins", cfg.migration_table_capacity);
  p.finish();
  return cfg;
}

struct OracleParams {
  std::size_t k = 16;
  std::uint32_t high_th = 24;
  std::uint64_t refresh = 8192;
  std::size_t buckets = 0;
};

OracleParams parse_oracle(Params& p) {
  OracleParams cfg;
  cfg.k = p.get_size("k", cfg.k);
  cfg.high_th = p.get_u32("high_th", cfg.high_th);
  cfg.refresh = p.get_u64("refresh", cfg.refresh);
  cfg.buckets = p.get_size("buckets", cfg.buckets);
  p.finish();
  return cfg;
}

std::uint32_t parse_batch(Params& p) {
  const std::uint32_t batch = p.get_u32("batch", 32);
  p.finish();
  return batch;
}

LapsConfig parse_laps(Params& p) {
  LapsConfig cfg;
  cfg.num_services = p.get_size("services", cfg.num_services);
  cfg.high_thresh = p.get_u32("high_th", cfg.high_thresh);
  cfg.idle_th = p.get_duration("idle_th", cfg.idle_th);
  cfg.migration_table_capacity =
      get_table_size(p, "pins", cfg.migration_table_capacity);
  cfg.min_cores_per_service =
      p.get_size("min_cores", cfg.min_cores_per_service);
  cfg.power_gating = p.get_bool("power", cfg.power_gating);
  cfg.sleep_after = p.get_duration("sleep_after", cfg.sleep_after);
  cfg.wake_watermark = p.get_u32("wake_wm", cfg.wake_watermark);
  cfg.consolidate_window =
      p.get_u64("consolidate_window", cfg.consolidate_window);
  cfg.consolidate_watermark =
      p.get_u32("consolidate_wm", cfg.consolidate_watermark);
  cfg.consolidate_backoff =
      p.get_duration("consolidate_backoff", cfg.consolidate_backoff);
  cfg.entries_per_core = p.get_size("entries", cfg.entries_per_core);
  parse_afd(p, cfg.afd);
  p.finish();
  return cfg;
}

std::string canon_laps(const LapsConfig& c) {
  const LapsConfig d;
  SpecPrinter out("laps");
  out.add_size("services", c.num_services, d.num_services);
  out.add_u32("high_th", c.high_thresh, d.high_thresh);
  out.add_duration("idle_th", c.idle_th, d.idle_th);
  out.add_size("pins", c.migration_table_capacity,
               d.migration_table_capacity);
  out.add_size("min_cores", c.min_cores_per_service, d.min_cores_per_service);
  out.add_bool("power", c.power_gating, d.power_gating);
  out.add_duration("sleep_after", c.sleep_after, d.sleep_after);
  out.add_u32("wake_wm", c.wake_watermark, d.wake_watermark);
  out.add_u64("consolidate_window", c.consolidate_window,
              d.consolidate_window);
  out.add_u32("consolidate_wm", c.consolidate_watermark,
              d.consolidate_watermark);
  out.add_duration("consolidate_backoff", c.consolidate_backoff,
                   d.consolidate_backoff);
  out.add_size("entries", c.entries_per_core, d.entries_per_core);
  canon_afd(out, c.afd, d.afd);
  return out.str();
}

HashMigrateScheduler::Options parse_hash_migrate(Params& p) {
  HashMigrateScheduler::Options cfg;
  cfg.num_buckets = p.get_size("buckets", cfg.num_buckets);
  parse_afd(p, cfg.afd);
  cfg.high_thresh = p.get_u32("high_th", cfg.high_thresh);
  cfg.migration_table_capacity =
      get_table_size(p, "pins", cfg.migration_table_capacity);
  p.finish();
  return cfg;
}

AfsPowerScheduler::Options parse_afs_power(Params& p) {
  AfsPowerScheduler::Options cfg;
  cfg.high_thresh = p.get_u32("high_th", cfg.high_thresh);
  cfg.num_buckets = p.get_size("buckets", cfg.num_buckets);
  cfg.shift_cooldown = p.get_u64("cooldown", cfg.shift_cooldown);
  cfg.idle_th = p.get_duration("idle_th", cfg.idle_th);
  cfg.wake_watermark = p.get_u32("wake_wm", cfg.wake_watermark);
  cfg.power.sleep_after = p.get_duration("sleep_after", cfg.power.sleep_after);
  cfg.power.consolidate_window =
      p.get_u64("consolidate_window", cfg.power.consolidate_window);
  cfg.power.consolidate_watermark =
      p.get_u32("consolidate_wm", cfg.power.consolidate_watermark);
  cfg.power.consolidate_backoff =
      p.get_duration("consolidate_backoff", cfg.power.consolidate_backoff);
  cfg.power.min_unparked = p.get_size("min_unparked", cfg.power.min_unparked);
  p.finish();
  return cfg;
}

// ---------------------------------------------------------------- registry

struct Entry {
  const char* name;
  const char* params;  // help text: parameter list (or "-")
  std::unique_ptr<Scheduler> (*make)(Params&);
  std::string (*canon)(Params&);
};

const Entry kRegistry[] = {
    {"fcfs", "-",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       parse_plain(p);
       return std::make_unique<FcfsScheduler>();
     },
     [](Params& p) -> std::string {
       parse_plain(p);
       return "fcfs";
     }},
    {"hash", "buckets",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       return std::make_unique<StaticHashScheduler>(parse_hash(p));
     },
     [](Params& p) -> std::string {
       SpecPrinter out("hash");
       out.add_size("buckets", parse_hash(p), 0);
       return out.str();
     }},
    {"afs", "high_th, buckets, cooldown",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       const AfsParams c = parse_afs(p);
       return std::make_unique<AfsScheduler>(c.high_th, c.buckets,
                                             c.cooldown);
     },
     [](Params& p) -> std::string {
       const AfsParams c = parse_afs(p);
       const AfsParams d;
       SpecPrinter out("afs");
       out.add_u32("high_th", c.high_th, d.high_th);
       out.add_size("buckets", c.buckets, d.buckets);
       out.add_u64("cooldown", c.cooldown, d.cooldown);
       return out.str();
     }},
    {"adaptive", "period, slack, moves, buckets",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       const auto c = parse_adaptive(p);
       p.finish();
       return std::make_unique<AdaptiveHashScheduler>(c);
     },
     [](Params& p) -> std::string {
       const auto c = parse_adaptive(p);
       p.finish();
       SpecPrinter out("adaptive");
       canon_adaptive(out, c, AdaptiveHashScheduler::Options{});
       return out.str();
     }},
    {"adaptive-afd",
     "period, slack, moves, buckets, afc, annex, promote, sample, aging, "
     "beat_min, high_th, pins",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       return std::make_unique<CombinedAdaptiveScheduler>(
           parse_adaptive_afd(p));
     },
     [](Params& p) -> std::string {
       const auto c = parse_adaptive_afd(p);
       const CombinedAdaptiveScheduler::CombinedOptions d;
       SpecPrinter out("adaptive-afd");
       canon_adaptive(out, c.adaptive, d.adaptive);
       canon_afd(out, c.afd, d.afd);
       out.add_u32("high_th", c.high_thresh, d.high_thresh);
       out.add_size("pins", c.migration_table_capacity,
                    d.migration_table_capacity);
       return out.str();
     }},
    {"batch", "batch",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       return std::make_unique<BatchScheduler>(parse_batch(p));
     },
     [](Params& p) -> std::string {
       SpecPrinter out("batch");
       out.add_u32("batch", parse_batch(p), 32);
       return out.str();
     }},
    {"oracle", "k, high_th, refresh, buckets",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       const OracleParams c = parse_oracle(p);
       return std::make_unique<OracleTopKScheduler>(c.k, c.high_th, c.refresh,
                                                    c.buckets);
     },
     [](Params& p) -> std::string {
       const OracleParams c = parse_oracle(p);
       const OracleParams d;
       SpecPrinter out("oracle");
       out.add_size("k", c.k, d.k);
       out.add_u32("high_th", c.high_th, d.high_th);
       out.add_u64("refresh", c.refresh, d.refresh);
       out.add_size("buckets", c.buckets, d.buckets);
       return out.str();
     }},
    {"laps",
     "services, high_th, idle_th, pins, min_cores, power, sleep_after, "
     "wake_wm, consolidate_window, consolidate_wm, consolidate_backoff, "
     "entries, afc, annex, promote, sample, aging, beat_min",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       return std::make_unique<LapsScheduler>(parse_laps(p));
     },
     [](Params& p) -> std::string { return canon_laps(parse_laps(p)); }},
    {"hash-migrate",
     "buckets, afc, annex, promote, sample, aging, beat_min, high_th, pins",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       return std::make_unique<HashMigrateScheduler>(parse_hash_migrate(p));
     },
     [](Params& p) -> std::string {
       const auto c = parse_hash_migrate(p);
       const HashMigrateScheduler::Options d;
       SpecPrinter out("hash-migrate");
       out.add_size("buckets", c.num_buckets, d.num_buckets);
       canon_afd(out, c.afd, d.afd);
       out.add_u32("high_th", c.high_thresh, d.high_thresh);
       out.add_size("pins", c.migration_table_capacity,
                    d.migration_table_capacity);
       return out.str();
     }},
    {"afs-power",
     "high_th, buckets, cooldown, idle_th, wake_wm, sleep_after, "
     "consolidate_window, consolidate_wm, consolidate_backoff, min_unparked",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       return std::make_unique<AfsPowerScheduler>(parse_afs_power(p));
     },
     [](Params& p) -> std::string {
       const auto c = parse_afs_power(p);
       const AfsPowerScheduler::Options d;
       SpecPrinter out("afs-power");
       out.add_u32("high_th", c.high_thresh, d.high_thresh);
       out.add_size("buckets", c.num_buckets, d.num_buckets);
       out.add_u64("cooldown", c.shift_cooldown, d.shift_cooldown);
       out.add_duration("idle_th", c.idle_th, d.idle_th);
       out.add_u32("wake_wm", c.wake_watermark, d.wake_watermark);
       out.add_duration("sleep_after", c.power.sleep_after,
                        d.power.sleep_after);
       out.add_u64("consolidate_window", c.power.consolidate_window,
                   d.power.consolidate_window);
       out.add_u32("consolidate_wm", c.power.consolidate_watermark,
                   d.power.consolidate_watermark);
       out.add_duration("consolidate_backoff", c.power.consolidate_backoff,
                        d.power.consolidate_backoff);
       out.add_size("min_unparked", c.power.min_unparked,
                    d.power.min_unparked);
       return out.str();
     }},
};

const Entry& find_entry(const std::string& name, const std::string& spec) {
  for (const Entry& entry : kRegistry) {
    if (name == entry.name) return entry;
  }
  std::ostringstream msg;
  msg << "unknown scheduler '" << name << "' in spec '" << spec
      << "'; valid schedulers:";
  for (const Entry& entry : kRegistry) msg << ' ' << entry.name;
  throw SchedulerSpecError(msg.str());
}

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(const std::string& spec) {
  ParsedSpec parsed = parse_spec(spec);
  const Entry& entry = find_entry(parsed.name, spec);
  Params params(parsed.name, std::move(parsed.params));
  return entry.make(params);
}

std::string canonical_scheduler_spec(const std::string& spec) {
  ParsedSpec parsed = parse_spec(spec);
  const Entry& entry = find_entry(parsed.name, spec);
  Params params(parsed.name, std::move(parsed.params));
  return entry.canon(params);
}

std::vector<std::string> scheduler_names() {
  std::vector<std::string> names;
  for (const Entry& entry : kRegistry) names.emplace_back(entry.name);
  return names;
}

std::string scheduler_spec_help() {
  std::ostringstream out;
  out << "scheduler specs: name[:key=value,...]  (durations take ns/us/ms/s "
         "suffixes)\n";
  for (const Entry& entry : kRegistry) {
    // A throwaway instance supplies the display name shown in tables.
    Params probe(entry.name, {});
    const auto instance = entry.make(probe);
    out << "  " << entry.name << " (" << instance->name()
        << "): " << entry.params << "\n";
  }
  return out.str();
}

SchedulerSpec make_scheduler_spec(const std::string& spec,
                                  std::string display) {
  // Parse eagerly so a bad spec fails at table-build time, not mid-grid on
  // a worker thread.
  const std::string canonical = canonical_scheduler_spec(spec);
  if (display.empty()) display = make_scheduler(spec)->name();
  return SchedulerSpec{
      std::move(display),
      [canonical]() { return make_scheduler(canonical); },
  };
}

std::vector<SchedulerSpec> parse_scheduler_list(const std::string& list) {
  std::vector<SchedulerSpec> specs;
  if (list.empty()) return specs;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t semi = list.find(';', pos);
    if (semi == std::string::npos) semi = list.size();
    const std::string spec = list.substr(pos, semi - pos);
    if (spec.empty()) {
      throw SchedulerSpecError(
          "empty scheduler spec in list '" + list +
          "' (specs are separated by ';', e.g. 'fcfs;laps:afc=64')");
    }
    specs.push_back(make_scheduler_spec(spec));
    pos = semi + 1;
  }
  return specs;
}

}  // namespace laps
