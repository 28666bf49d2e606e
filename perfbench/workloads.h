// The benchmark's three workloads: which spec each runs, through which
// public entry point, at which scale.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/scenario.h"

namespace perfbench {

/// The public entry point a workload is timed through.
enum class entry_point {
  run_fleet,     ///< fleet::run_fleet, `shards` shards
  run_scenario,  ///< exp::run_scenario, `replications` replications
};

/// One benchmark workload, fully materialized.
struct workload {
  std::string name;
  entry_point entry = entry_point::run_fleet;
  mca::exp::scenario_spec spec;
  std::size_t shards = 1;        ///< run_fleet only
  std::size_t replications = 1;  ///< run_scenario only

  /// Simulated users one call covers: population x replications.
  std::size_t simulated_users() const noexcept {
    return spec.user_count *
           (entry == entry_point::run_scenario ? replications : 1);
  }
};

/// Overrides for the self-test's tiny configurations; 0 keeps the
/// workload's default.
struct scale {
  std::size_t users = 0;
  std::size_t shards = 0;
  std::size_t replications = 0;
};

/// fleet_500k, fleet_faults, paper_closed_loop.
const std::vector<std::string>& workload_names();

/// Builds workload `name` with its spec's default seed, or `seed` when
/// given.  Throws std::invalid_argument on an unknown name.
workload make_workload(std::string_view name,
                       std::optional<std::uint64_t> seed, const scale& at);

}  // namespace perfbench
