#include "workloads.h"

#include <stdexcept>

#include "util/sim_time.h"

namespace perfbench {
namespace {

using namespace mca;

constexpr std::size_t kFleetUsers = 500'000;
constexpr std::size_t kFleetShards = 16;
constexpr std::size_t kFleetSlots = 4;
constexpr std::size_t kPaperReplications = 8;

// The fleet_scale headline spec (bench/fleet_scale.cpp fleet_scale_spec):
// sparse open-loop Poisson traffic from a large population against four
// acceleration groups on wide EC2 tiers, no background load.  Restated
// here because the bench keeps it file-local; the fingerprint printed
// beside the metrics (ab9adbd2f6dc8f3f at the default seed) shows the two
// copies agree.
exp::scenario_spec fleet_spec(std::size_t users, std::size_t shards) {
  exp::scenario_spec spec;
  spec.name = "fleet_scale";
  spec.base_seed = 500'000;
  spec.user_count = users;
  spec.duration = util::hours(1.0);
  spec.slot_length = spec.duration / static_cast<double>(kFleetSlots);
  spec.tasks = exp::task_mix::static_minimax;
  spec.gaps = exp::gap_model::exponential;
  spec.arrival_rate_hz = 0.0005;
  spec.background_requests_per_burst = 0;
  spec.promotion_probability = 1.0 / 50.0;
  spec.groups = {
      {1, "t2.medium", 3, 280.0},    {1, "t2.large", 3, 600.0},
      {1, "m4.4xlarge", 0, 2400.0},  {2, "t2.large", 1, 500.0},
      {2, "m4.4xlarge", 1, 1600.0},  {2, "m4.10xlarge", 0, 4000.0},
      {3, "m4.4xlarge", 1, 1200.0},  {3, "m4.10xlarge", 0, 2400.0},
      {3, "c4.8xlarge", 0, 2000.0},  {4, "m4.10xlarge", 1, 2000.0},
      {4, "c4.8xlarge", 0, 1800.0},
  };
  spec.max_total_instances = 4096;
  spec.fleet_max_total_instances = 4096;
  spec.fleet_shards = shards;
  return spec;
}

// fleet_scale --faults' program (faulted_fleet_spec at hazard x1): spot
// hazards on groups 1, 3 and 4, a group-2 outage strictly inside slot 1,
// cold starts, 30 s timeouts, two capped-backoff retries, local fallback.
exp::scenario_spec faulted(exp::scenario_spec spec) {
  spec.name = "fleet_scale_faults";
  spec.faults.enabled = true;
  spec.faults.preempt_hazard_per_hour = {0.0, 6.0, 0.0, 6.0, 6.0};
  spec.faults.outages = {{2, spec.slot_length * 1.05, spec.slot_length * 1.9}};
  spec.faults.cold_start_mean_ms = 2'000.0;
  spec.faults.max_retries = 2;
  spec.faults.request_timeout_ms = 30'000.0;
  spec.faults.retry_backoff_base_ms = 100.0;
  spec.faults.retry_backoff_cap_ms = 1'000.0;
  spec.faults.local_fallback = true;
  return spec;
}

exp::scenario_spec builtin(std::string_view name) {
  for (exp::scenario_spec& spec : exp::builtin_scenarios()) {
    if (spec.name == name) return spec;
  }
  throw std::logic_error{"perfbench: builtin scenario missing"};
}

std::size_t or_default(std::size_t value, std::size_t fallback) {
  return value != 0 ? value : fallback;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"fleet_500k", "fleet_faults",
                                              "paper_closed_loop"};
  return names;
}

workload make_workload(std::string_view name,
                       std::optional<std::uint64_t> seed, const scale& at) {
  workload w;
  w.name = std::string{name};
  if (name == "fleet_500k" || name == "fleet_faults") {
    w.entry = entry_point::run_fleet;
    w.shards = or_default(at.shards, kFleetShards);
    w.spec = fleet_spec(or_default(at.users, kFleetUsers), w.shards);
    if (name == "fleet_faults") w.spec = faulted(w.spec);
  } else if (name == "paper_closed_loop") {
    w.entry = entry_point::run_scenario;
    w.replications = or_default(at.replications, kPaperReplications);
    w.spec = builtin("fig9_closed_loop");
    if (at.users != 0) w.spec.user_count = at.users;
  } else {
    throw std::invalid_argument{"unknown workload '" + w.name + "'"};
  }
  if (seed) w.spec.base_seed = *seed;
  return w;
}

}  // namespace perfbench
