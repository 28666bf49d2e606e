// Perf harness for the control-path hot spots: event-engine throughput,
// simplex pivot rate, end-to-end allocate_ilp latency, and the slot
// distance, each measured against the frozen pre-refactor implementation
// (legacy_baseline.h) or, for the slot distance, the two-row DP, in the
// same binary.  Emits machine-readable BENCH_micro_ops.json (path
// overridable via argv[1]) so the perf trajectory is tracked PR over PR.
//
// Usage: micro_ops [output.json]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cloud/instance.h"
#include "core/allocator.h"
#include "exp/bench_clock.h"
#include "ilp/simplex.h"
#include "legacy_baseline.h"
#include "sim/simulation.h"
#include "trace/edit_distance.h"
#include "trace/time_slot.h"
#include "util/rng.h"

namespace {

using namespace mca;
using exp::best_seconds;

/// Deterministic 64-bit mix so both engines see identical event times.
std::uint64_t splitmix(std::uint64_t& state) {
  return util::splitmix64(state);
}

constexpr int kEventCount = 200'000;
constexpr int kTrials = 5;

/// Steady-state event loop, the shape the simulators actually produce: a
/// fixed population of pending events (completions, timers) where every
/// fired event schedules a successor at a pseudo-random future time.
template <typename Sim>
std::size_t event_steady_state_workload() {
  Sim sim;
  constexpr int kPopulation = 16'384;
  std::uint64_t seed = 42;
  struct rearm {
    Sim& sim;
    std::uint64_t& seed;
    std::size_t remaining;
    void operator()() {
      if (remaining == 0) return;
      const double delta = 1.0 + static_cast<double>(splitmix(seed) % 10'000u);
      sim.schedule_after(delta, rearm{sim, seed, remaining - 1});
    }
  };
  constexpr std::size_t kChain = kEventCount / kPopulation;
  for (int i = 0; i < kPopulation; ++i) {
    const double at = static_cast<double>(splitmix(seed) % 10'000u);
    sim.schedule_at(at, rearm{sim, seed, kChain});
  }
  sim.run();
  return sim.executed_events();
}

/// Worst-case burst: schedule kEventCount no-op events at pseudo-random
/// times, then drain the full heap.
template <typename Sim>
std::size_t event_burst_workload() {
  Sim sim;
  std::uint64_t seed = 42;
  for (int i = 0; i < kEventCount; ++i) {
    const double at = static_cast<double>(splitmix(seed) % 1'000'000u);
    sim.schedule_at(at, [] {});
  }
  sim.run();
  return sim.executed_events();
}

/// The closed-loop request pattern that dominates the paper's experiments:
/// every request schedules a completion plus a timeout timer, and the
/// completion cancels the timeout (requests finish before their deadline).
/// Per fired event: two schedules and one cancellation.
template <typename Sim, typename Handle>
std::size_t event_request_workload() {
  Sim sim;
  constexpr std::uint32_t kInFlight = 8'192;
  struct context {
    Sim& sim;
    std::uint64_t seed = 11;
    std::vector<Handle> timeouts;
  } ctx{sim, 11, std::vector<Handle>(kInFlight)};
  struct complete {
    context* c;
    std::uint32_t lane;
    std::uint32_t remaining;
    void operator()() const {
      c->sim.cancel(c->timeouts[lane]);  // finished before the deadline
      if (remaining == 0) return;
      const double service =
          1.0 + static_cast<double>(splitmix(c->seed) % 200u);
      c->sim.schedule_after(service, complete{c, lane, remaining - 1});
      c->timeouts[lane] = c->sim.schedule_after(service + 500.0, [] {});
    }
  };
  constexpr std::uint32_t kChain = kEventCount / kInFlight;
  for (std::uint32_t lane = 0; lane < kInFlight; ++lane) {
    const double at = 1.0 + static_cast<double>(splitmix(ctx.seed) % 200u);
    sim.schedule_at(at, complete{&ctx, lane, kChain});
    ctx.timeouts[lane] = sim.schedule_at(at + 500.0, [] {});
  }
  sim.run();
  return sim.executed_events();
}

/// Timer-churn pattern: every scheduled event displaces an older one, the
/// way RTT/keepalive timers are rearmed; half the handles get cancelled.
template <typename Sim, typename Handle>
std::size_t event_cancel_workload() {
  Sim sim;
  std::uint64_t seed = 7;
  std::vector<Handle> window(64);
  for (int i = 0; i < kEventCount; ++i) {
    const double at = static_cast<double>(splitmix(seed) % 1'000'000u);
    const std::size_t slot = static_cast<std::size_t>(i) % window.size();
    if (window[slot].valid()) sim.cancel(window[slot]);
    window[slot] = sim.schedule_at(at, [] {});
  }
  sim.run();
  // Almost every schedule is later cancelled; the interesting rate is
  // schedule+cancel ops, not the 64 surviving events.  The executed count
  // still cross-checks determinism because both engines must agree on it.
  return sim.executed_events() == window.size() ? kEventCount : 0;
}

/// Backend PS workload: a c5.xlarge-shaped server under a closed loop
/// (every completion resubmits) holding ~192 requests in flight — deep
/// enough that the legacy sweep's O(n) advance + min-scan + cancel/
/// re-insert per event dominates its cost.  (At shallow depths the sweep
/// vectorizes to near-free and the two legs are within host noise; the
/// series exists to track the asymptotic O(1)-vs-O(n) difference, so the
/// depth must make that difference the signal.)  Both legs run on the
/// current event engine with identical work and jitter streams, so the
/// series isolates the PS math.
constexpr int kBackendOps = 60'000;
constexpr int kBackendInFlight = 192;

cloud::instance_type backend_type() {
  cloud::instance_type t;
  t.name = "bench.backend";
  t.vcpus = 4.0;
  t.memory_gb = 64.0;
  t.cost_per_hour = 0.2;
  t.speed_factor = 1.0;
  t.jitter_sigma = 0.25;
  t.steal_max = 0.3;
  t.baseline_fraction = 1.0;
  return t;
}

template <typename Server>
void drive_backend(sim::simulation& sim, Server& server) {
  std::uint64_t seed = 99;
  std::uint64_t budget = kBackendOps;
  std::function<void(double, bool)> on_done = [&](double, bool) {
    if (budget == 0) return;
    --budget;
    const double work = 1.0 + static_cast<double>(splitmix(seed) % 200u);
    server.submit(work, on_done);
  };
  for (int i = 0; i < kBackendInFlight; ++i) {
    const double work = 1.0 + static_cast<double>(splitmix(seed) % 200u);
    server.submit(work, on_done);
  }
  sim.run();
}

struct backend_run {
  std::uint64_t completions = 0;
  double service_sum = 0.0;
};

backend_run backend_workload_new() {
  sim::simulation sim;
  cloud::instance server{sim, 1, backend_type(), util::rng{2024}};
  drive_backend(sim, server);
  return {server.completed(), server.service_stats().sum()};
}

backend_run backend_workload_legacy() {
  sim::simulation sim;
  legacy::ps_instance server{sim, backend_type(), util::rng{2024}};
  drive_backend(sim, server);
  return {server.completed(), server.service_sum()};
}

/// A mid-size allocation-shaped LP: 24 columns, capacity rows per group
/// plus a shared cap, fractional optimum.
ilp::problem make_lp() {
  ilp::problem p;
  std::vector<std::size_t> vars;
  for (int g = 0; g < 6; ++g) {
    for (int c = 0; c < 4; ++c) {
      const double cost = 0.05 + 0.11 * c + 0.015 * g;
      vars.push_back(p.add_variable(cost, 0.0, 30.0));
    }
  }
  for (int g = 0; g < 6; ++g) {
    std::vector<ilp::linear_term> terms;
    for (int c = 0; c < 4; ++c) {
      terms.push_back({vars[static_cast<std::size_t>(4 * g + c)],
                       7.0 + 9.0 * c + 1.3 * g});
    }
    p.add_constraint(std::move(terms), ilp::relation::greater_equal,
                     41.0 + 23.0 * g);
  }
  std::vector<ilp::linear_term> cap;
  for (const auto v : vars) cap.push_back({v, 1.0});
  p.add_constraint(std::move(cap), ilp::relation::less_equal, 120.0);
  return p;
}

/// The acceptance workload: 8 groups x 4 candidates under a shared cap.
core::allocation_request make_8x4_request() {
  core::allocation_request request;
  request.max_total_instances = 64;
  for (int g = 0; g < 8; ++g) {
    request.workload_per_group.push_back(22.0 + 13.0 * g);
    std::vector<core::allocation_candidate> candidates;
    for (int c = 0; c < 4; ++c) {
      core::allocation_candidate cand;
      cand.type_name = "type" + std::to_string(c) + ".g" + std::to_string(g);
      cand.capacity_per_instance = 9.0 + 17.0 * c + 1.7 * g;
      cand.cost_per_hour = 0.02 + 0.055 * c * c + 0.004 * g;
      candidates.push_back(cand);
    }
    request.candidates_per_group.push_back(std::move(candidates));
  }
  return request;
}

/// Fleet-scale allocation: 64 groups x 8 candidate tiers under one
/// account cap — 512 integer columns against a 65-row tableau (the
/// explicit-row formulation would need 577 rows).  Capacity tiers are 13
/// apart with tier 1 the best capacity-per-dollar everywhere; most groups'
/// demands sit on that tier's quantum (integral LP vertices, the common
/// case for a provisioned fleet) and every 16th group lands off-quantum,
/// so the solve still branches through warm-started dual re-optimizations
/// rather than finishing at the root.
core::allocation_request make_64x8_request() {
  core::allocation_request request;
  constexpr int kGroups = 64;
  request.max_total_instances = 8 * kGroups;
  for (int g = 0; g < kGroups; ++g) {
    const int quanta = 1 + (g % 5);
    double workload = 21.0 * quanta - 1.0;
    if (g % 16 == 0) workload += 9.0;
    request.workload_per_group.push_back(workload);
    std::vector<core::allocation_candidate> candidates;
    for (int c = 0; c < 8; ++c) {
      core::allocation_candidate cand;
      cand.type_name = "tier" + std::to_string(c);
      cand.capacity_per_instance = 8.0 + 13.0 * c;
      cand.cost_per_hour = (0.02 + 0.03 * c * c) * (1.0 + 0.02 * (g % 5));
      candidates.push_back(cand);
    }
    request.candidates_per_group.push_back(std::move(candidates));
  }
  return request;
}

using bench::series_entry;

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_micro_ops.json";
  std::vector<series_entry> series;
  bench::check_list checks;

  // ---- event engine ------------------------------------------------------
  // Four workloads: the gated primary is the closed-loop request pattern
  // (schedule + timeout + cancel per event), the shape §V's experiments
  // actually produce; the rest chart the engine from other angles.
  const auto event_series = [&](const char* title, const char* name,
                                std::size_t (*current_fn)(),
                                std::size_t (*legacy_fn)(), double gate) {
    bench::section(title);
    std::size_t executed_new = 0;
    std::size_t executed_old = 0;
    const double t_new =
        best_seconds(kTrials, [&] { executed_new = current_fn(); });
    const double t_old =
        best_seconds(kTrials, [&] { executed_old = legacy_fn(); });
    checks.expect(executed_new == executed_old,
                  std::string(name) + ": identical event counts",
                  bench::ratio_detail("executed",
                                      static_cast<double>(executed_new)));
    series_entry s;
    s.name = name;
    s.unit = "events/sec";
    s.current = static_cast<double>(executed_new) / t_new;
    s.legacy = static_cast<double>(executed_old) / t_old;
    s.speedup = s.current / s.legacy;
    std::printf("new:    %12.0f events/sec\nlegacy: %12.0f events/sec\n",
                s.current, s.legacy);
    if (gate > 0.0) {
      checks.expect(s.speedup >= gate,
                    std::string(name) + " >= " + std::to_string(gate).substr(0, 3) +
                        "x legacy",
                    bench::ratio_detail("speedup", s.speedup));
    }
    series.push_back(s);
  };

  event_series("event engine: request/timeout/cancel loop (primary)",
               "event_throughput",
               event_request_workload<sim::simulation, sim::event_handle>,
               event_request_workload<legacy::simulation, legacy::event_handle>,
               2.0);
  event_series("event engine: steady-state rearm, no cancels",
               "event_steady_state",
               event_steady_state_workload<sim::simulation>,
               event_steady_state_workload<legacy::simulation>, 0.0);
  event_series("event engine: burst schedule + full drain", "event_burst",
               event_burst_workload<sim::simulation>,
               event_burst_workload<legacy::simulation>, 0.0);
  event_series("event engine: cancellation churn (schedule+cancel ops)",
               "event_cancel_churn",
               event_cancel_workload<sim::simulation, sim::event_handle>,
               event_cancel_workload<legacy::simulation, legacy::event_handle>,
               2.0);

  // ---- processor-sharing backend -----------------------------------------
  bench::section("backend: PS event math (virtual-time vs legacy sweep)");
  {
    backend_run run_new;
    backend_run run_old;
    // Interleave the trials (new, legacy, new, legacy, ...) instead of
    // running each leg as one best-of-N block: a multi-second host-noise
    // window then degrades both legs' candidate timings equally rather
    // than cratering whichever block it happens to land on, so the ratio
    // below stays stable even when absolute ns/op swings.
    double t_new = std::numeric_limits<double>::infinity();
    double t_old = std::numeric_limits<double>::infinity();
    for (int trial = 0; trial < kTrials; ++trial) {
      t_new = std::min(
          t_new, exp::seconds_of([&] { run_new = backend_workload_new(); }));
      t_old = std::min(
          t_old, exp::seconds_of([&] { run_old = backend_workload_legacy(); }));
    }
    checks.expect(run_new.completions == run_old.completions,
                  "backend_event: identical completion counts",
                  bench::ratio_detail(
                      "completions", static_cast<double>(run_new.completions)));
    const double sum_scale =
        std::max(std::abs(run_new.service_sum), std::abs(run_old.service_sum));
    checks.expect(std::abs(run_new.service_sum - run_old.service_sum) <=
                      1e-6 * sum_scale,
                  "backend_event: service-time totals agree with legacy sweep",
                  bench::ratio_detail("sum_ms", run_new.service_sum));
    series_entry s;
    s.name = "backend_event";
    s.unit = "ns/op";
    s.current = 1e9 * t_new / static_cast<double>(run_new.completions);
    s.legacy = 1e9 * t_old / static_cast<double>(run_old.completions);
    s.speedup = s.legacy / s.current;  // ns/op: smaller is better
    std::printf("new:    %10.1f ns/op\nlegacy: %10.1f ns/op\n", s.current,
                s.legacy);
    checks.expect(s.speedup >= 1.5, "backend_event >= 1.5x legacy",
                  bench::ratio_detail("speedup", s.speedup));
    series.push_back(s);
  }

  // ---- simplex -----------------------------------------------------------
  bench::section("simplex: LP relaxation solves");
  const ilp::problem lp = make_lp();
  constexpr int kLpReps = 400;
  std::size_t pivots = 0;
  double objective_new = 0.0;
  double objective_old = 0.0;
  const double t_lp_new = best_seconds(kTrials, [&] {
    pivots = 0;
    for (int i = 0; i < kLpReps; ++i) {
      const auto sol = ilp::solve_lp(lp);
      pivots += sol.iterations;
      objective_new = sol.objective;
    }
  });
  const double t_lp_old = best_seconds(kTrials, [&] {
    for (int i = 0; i < kLpReps; ++i) {
      objective_old = legacy::solve_lp(lp).objective;
    }
  });
  checks.expect(std::abs(objective_new - objective_old) < 1e-6,
                "simplex objectives agree with legacy",
                bench::ratio_detail("objective", objective_new));
  {
    series_entry s;
    s.name = "simplex_solves";
    s.unit = "solves/sec";
    s.current = kLpReps / t_lp_new;
    s.legacy = kLpReps / t_lp_old;
    s.speedup = s.current / s.legacy;
    std::printf("new:    %12.0f solves/sec  (%.0f pivots/sec)\n", s.current,
                static_cast<double>(pivots) / t_lp_new);
    std::printf("legacy: %12.0f solves/sec\n", s.legacy);
    series.push_back(s);

    series_entry sp;
    sp.name = "simplex_pivots";
    sp.unit = "pivots/sec";
    sp.current = static_cast<double>(pivots) / t_lp_new;
    series.push_back(sp);
  }

  // ---- allocator ---------------------------------------------------------
  bench::section("allocate_ilp: 8 groups x 4 candidates");
  const core::allocation_request request = make_8x4_request();
  constexpr int kIlpReps = 60;
  double cost_new = 0.0;
  double cost_old = 0.0;
  const double t_ilp_new = best_seconds(kTrials, [&] {
    for (int i = 0; i < kIlpReps; ++i) {
      cost_new = core::allocate_ilp(request).total_cost_per_hour;
    }
  });
  const double t_ilp_old = best_seconds(kTrials, [&] {
    for (int i = 0; i < kIlpReps; ++i) {
      cost_old = legacy::allocate_ilp(request).total_cost_per_hour;
    }
  });
  checks.expect(std::abs(cost_new - cost_old) < 1e-6,
                "allocator plans cost the same as legacy",
                bench::ratio_detail("cost/hour", cost_new));
  {
    series_entry s;
    s.name = "allocate_ilp_8x4";
    s.unit = "solves/sec";
    s.current = kIlpReps / t_ilp_new;
    s.legacy = kIlpReps / t_ilp_old;
    s.speedup = s.current / s.legacy;
    std::printf("new:    %10.1f solves/sec (%.2f ms/solve)\n", s.current,
                1e3 * t_ilp_new / kIlpReps);
    std::printf("legacy: %10.1f solves/sec (%.2f ms/solve)\n", s.legacy,
                1e3 * t_ilp_old / kIlpReps);
    checks.expect(s.speedup >= 1.5, "allocate_ilp >= 1.5x legacy",
                  bench::ratio_detail("speedup", s.speedup));
    series.push_back(s);
  }

  // ---- allocator at fleet scale ------------------------------------------
  bench::section("allocate_ilp: 64 groups x 8 candidates (fleet scale)");
  const core::allocation_request fleet = make_64x8_request();
  constexpr int kFleetReps = 10;
  core::allocation_plan fleet_plan;
  const double t_fleet = best_seconds(kTrials, [&] {
    for (int i = 0; i < kFleetReps; ++i) {
      fleet_plan = core::allocate_ilp(fleet);
    }
  });
  // No legacy leg: the explicit-row tableau needs minutes per solve at
  // this size, which is the point of the bounded-variable formulation.
  checks.expect(fleet_plan.status == ilp::solve_status::optimal,
                "allocate_ilp 64x8 solves to optimality in the default "
                "node budget",
                std::string("status = ") + ilp::to_string(fleet_plan.status));
  const double greedy_cost =
      core::allocate_greedy(fleet).total_cost_per_hour;
  checks.expect(
      fleet_plan.total_cost_per_hour <= greedy_cost + 1e-6,
      "allocate_ilp 64x8 plan no costlier than greedy",
      bench::ratio_detail("cost/hour", fleet_plan.total_cost_per_hour));
  {
    series_entry s;
    s.name = "allocate_ilp_64x8";
    s.unit = "solves/sec";
    s.current = kFleetReps / t_fleet;
    std::printf("new:    %10.1f solves/sec (%.2f ms/solve, $%.3f/h plan)\n",
                s.current, 1e3 * t_fleet / kFleetReps,
                fleet_plan.total_cost_per_hour);
    series.push_back(s);
  }

  // ---- slot distance ----------------------------------------------------
  // fleet_500k's shards hold ~31k users, each active in a 15-min slot with
  // probability ~36%: a group's slot list is ~11k users out of the shard.
  // Here two independent ~36% draws from an 11.3k-user universe give ~4k
  // users a side, small enough for the O(n·m) DP to run a few times.
  bench::section("slot distance: sparse chain DP vs two-row DP (~4k users)");
  {
    util::rng rng{4096};
    std::vector<user_id> users_a;
    std::vector<user_id> users_b;
    for (user_id u = 0; u < 11'300; ++u) {
      if (rng.bernoulli(0.36)) users_a.push_back(u);
      if (rng.bernoulli(0.36)) users_b.push_back(u);
    }
    const auto slot_a = trace::time_slot::from_group_users({users_a});
    const auto slot_b = trace::time_slot::from_group_users({users_b});
    constexpr int kSparseReps = 200;
    std::size_t sparse = 0;
    std::size_t dp = 0;
    const double t_sparse = best_seconds(kTrials, [&] {
      for (int i = 0; i < kSparseReps; ++i) {
        sparse = trace::group_distance(slot_a, slot_b, 0);
      }
    });
    const double t_dp = best_seconds(
        kTrials, [&] { dp = trace::edit_distance(users_a, users_b); });
    checks.expect(sparse == dp, "slot_distance: sparse chain DP equals DP",
                  bench::ratio_detail("distance", static_cast<double>(sparse)));
    series_entry s;
    s.name = "slot_distance";
    s.unit = "ns/call";
    s.current = 1e9 * t_sparse / kSparseReps;
    s.legacy = 1e9 * t_dp;
    s.speedup = s.legacy / s.current;  // ns/call: smaller is better
    std::printf("sparse: %12.0f ns/call  (|a|=%zu |b|=%zu)\n", s.current,
                users_a.size(), users_b.size());
    std::printf("dp:     %12.0f ns/call  (%.0fx)\n", s.legacy, s.speedup);
    series.push_back(s);
  }

  const int exit_code = checks.finish("micro_ops");
  if (!bench::write_series_json(out_path, "micro_ops", series,
                                exit_code == 0)) {
    return 1;
  }
  return exit_code;
}
