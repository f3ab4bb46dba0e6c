#include "sim/runner.h"

#include <stdexcept>

#include "sim/fault.h"
#include "sim/probes.h"

namespace laps {

namespace {

PacketGenerator make_generator(const ScenarioConfig& config) {
  if (config.services.empty()) {
    throw std::invalid_argument("run_scenario: no services");
  }
  for (const ServiceTraffic& s : config.services) {
    if (!s.trace) throw std::invalid_argument("run_scenario: null trace");
    s.trace->reset();
  }
  return PacketGenerator(config.services, config.seed, config.seconds);
}

}  // namespace

SimReport run_scenario(const ScenarioConfig& config, Scheduler& scheduler) {
  return run_scenario(config, scheduler, ProbeSet{});
}

SimReport run_scenario(const ScenarioConfig& config, Scheduler& scheduler,
                       const ProbeSet& extra_probes, TimeNs epoch_ns) {
  PacketGenerator generator = make_generator(config);
  SimEngineConfig engine_config;
  engine_config.num_cores = config.num_cores;
  engine_config.queue_capacity = config.queue_capacity;
  engine_config.delay = config.delay;
  engine_config.restore_order = config.restore_order;
  engine_config.epoch_ns = epoch_ns;

  const bool faulted = config.faults != nullptr && !config.faults->empty();
  if (faulted) engine_config.faults = config.faults.get();

  ReportProbe report;
  ProbeSet probes;
  probes.add(&report);
  for (SimProbe* p : extra_probes.probes()) probes.add(p);

  SimEngine engine(engine_config, scheduler, probes);
  if (faulted) {
    FaultTrafficStream stream(generator, *config.faults);
    engine.run(stream, config.name);
  } else {
    engine.run(generator, config.name);
  }
  return report.take_report();
}

SimReport run_scenario_reference(const ScenarioConfig& config,
                                 Scheduler& scheduler) {
  if (config.faults != nullptr && !config.faults->empty()) {
    // The retained seed kernel predates fault injection and exists only as
    // a differential oracle for fault-free physics.
    throw std::invalid_argument(
        "run_scenario_reference: fault plans are not supported by the "
        "reference Npu kernel");
  }
  PacketGenerator generator = make_generator(config);
  NpuConfig npu_config;
  npu_config.num_cores = config.num_cores;
  npu_config.queue_capacity = config.queue_capacity;
  npu_config.delay = config.delay;
  npu_config.restore_order = config.restore_order;
  Npu npu(npu_config, scheduler);
  return npu.run(generator, config.name);
}

}  // namespace laps
