#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "exp/runner.h"
#include "fleet/coordinator.h"
#include "fleet/fleet_runner.h"
#include "fleet/shard.h"
#include "net/operators.h"

namespace perfbench {
namespace {

using namespace mca;
using clock_type = std::chrono::steady_clock;

/// Width of the boundary window: the slot-boundary event (predictor
/// observe/predict, trace::slot_distance, timeline snapshot, the ILP in
/// the monolith) fires at the boundary itself, so a 1 ms window isolates
/// it while leaving almost no ordinary traffic inside.
constexpr util::time_ms kBoundaryWindowMs = 1.0;

/// Opens a span on construction and closes it on destruction; a no-op
/// without a log.
class scoped_span {
 public:
  scoped_span(span_log* log, const char* name, std::int32_t parent,
              std::int32_t shard = -1, std::int32_t slot = -1,
              std::int32_t replication = -1)
      : log_{log},
        id_{log != nullptr ? log->open(name, parent, shard, slot, replication)
                           : -1} {}
  ~scoped_span() {
    if (log_ != nullptr) log_->close(id_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  std::int32_t id() const noexcept { return id_; }

 private:
  span_log* log_;
  std::int32_t id_;
};

std::int32_t as_id(std::size_t i) { return static_cast<std::int32_t>(i); }

/// One shard's or replication's state, copied out before the system is
/// released so the merge can fold them in index order.
struct member_result {
  exp::replication_metrics metrics;
  obs::registry registry;
  obs::timeline timeline;
  std::uint64_t sim_events = 0;
};

member_result release(core::offloading_system& system,
                      exp::replication_metrics metrics) {
  return {std::move(metrics), system.observability(), system.timeline(),
          system.simulation().executed_events()};
}

void fold(outside_in_run& run, std::vector<member_result>& members) {
  std::vector<exp::replication_metrics> digests;
  digests.reserve(members.size());
  for (member_result& m : members) {
    digests.push_back(std::move(m.metrics));
    run.registry.merge(m.registry);
    run.timeline.merge(m.timeline);
    run.sim_events += m.sim_events;
  }
  run.aggregate = exp::merge_replications(digests);
}

/// The fleet drive, in run_fleet's order: build every shard, then per
/// slot round park at any fault edge and re-aim, advance every shard to
/// the boundary, coordinate; drain; merge.
outside_in_run drive_fleet(const workload& w, const tasks::task_pool& tasks,
                           span_log* log) {
  const exp::scenario_spec& spec = w.spec;
  exp::validate(spec, tasks);
  const std::size_t shards = w.shards;
  outside_in_run run;
  std::vector<member_result> results;
  {
    const scoped_span root{log, "run", -1};
    std::vector<std::unique_ptr<fleet::shard>> members(shards);
    for (std::size_t k = 0; k < shards; ++k) {
      const scoped_span s{log, "build", root.id(), as_id(k)};
      members[k] = std::make_unique<fleet::shard>(spec, tasks, k, shards);
      members[k]->begin();
    }
    std::optional<fleet::coordinator> coord;
    {
      const scoped_span s{log, "build", root.id()};
      coord.emplace(fleet::fleet_allocation_shape(spec));
      coord->set_resilient_split(spec.faults.active());
      coord->set_observability(true);
      std::size_t expected_slots = 0;
      for (util::time_ms b = spec.slot_length; b <= spec.duration;
           b += spec.slot_length) {
        ++expected_slots;
      }
      coord->enable_timeline(expected_slots, spec.slot_length);
    }

    std::vector<util::time_ms> edges;
    if (spec.faults.active()) {
      for (const fault::outage_window& o : spec.faults.outages) {
        if (o.end_ms > 0.0 && o.end_ms < spec.duration) {
          edges.push_back(o.end_ms);
        }
      }
      std::sort(edges.begin(), edges.end());
    }
    std::size_t next_edge = 0;
    util::time_ms parked = 0.0;

    std::size_t slot = 0;
    for (util::time_ms boundary = spec.slot_length; boundary <= spec.duration;
         boundary += spec.slot_length, ++slot) {
      const scoped_span round{log, "round", root.id(), -1, as_id(slot)};
      while (next_edge < edges.size() && edges[next_edge] < boundary) {
        const util::time_ms edge = edges[next_edge++];
        const scoped_span reaim{log, "reaim", round.id(), -1, as_id(slot)};
        for (std::size_t k = 0; k < shards; ++k) {
          const scoped_span s{log, "advance", reaim.id(), as_id(k),
                              as_id(slot)};
          members[k]->advance_to(edge);
        }
        parked = edge;
        const scoped_span s{log, "coordinate", reaim.id(), -1, as_id(slot)};
        const auto quotas = coord->reallocate();
        for (std::size_t k = 0; k < quotas.size(); ++k) {
          if (quotas[k]) members[k]->apply_quota(*quotas[k]);
        }
      }
      std::vector<fleet::demand_digest> digests;
      digests.reserve(shards);
      for (std::size_t k = 0; k < shards; ++k) {
        {
          const scoped_span s{log, "advance", round.id(), as_id(k),
                              as_id(slot)};
          members[k]->advance_to(
              std::max(boundary - kBoundaryWindowMs, parked));
        }
        const scoped_span s{log, "boundary", round.id(), as_id(k),
                            as_id(slot)};
        digests.push_back(members[k]->advance_to_slot(slot));
      }
      const scoped_span s{log, "coordinate", round.id(), -1, as_id(slot)};
      const auto quotas = coord->allocate_slot(digests);
      for (std::size_t k = 0; k < shards; ++k) {
        if (quotas[k]) members[k]->apply_quota(*quotas[k]);
      }
    }

    for (std::size_t k = 0; k < shards; ++k) {
      const scoped_span s{log, "drain", root.id(), as_id(k)};
      exp::replication_metrics metrics = members[k]->finish();
      results.push_back(release(members[k]->system(), std::move(metrics)));
      members[k].reset();
    }
    const scoped_span s{log, "merge", root.id()};
    fold(run, results);
    run.registry.merge(coord->observability());
    run.timeline.merge(coord->timeline());
  }
  return run;
}

/// One monolith replication, as run_scenario's runner materializes it.
member_result drive_replication(const exp::scenario_spec& spec,
                                const tasks::task_pool& tasks,
                                std::size_t index, std::size_t groups,
                                span_log* log, std::int32_t parent) {
  const scoped_span rep{log, "replication", parent, -1, -1, as_id(index)};
  const exp::replication_context context{index, spec.base_seed};
  std::optional<core::offloading_system> system;
  {
    const scoped_span s{log, "build", rep.id(), -1, -1, as_id(index)};
    util::rng stream = context.stream();
    core::system_config config = exp::make_system_config(spec, tasks, stream);
    config.record_request_series = false;
    config.sdn.retain_trace_records = false;
    system.emplace(std::move(config), tasks);
    system->begin(spec.duration);
  }
  std::size_t slot = 0;
  for (util::time_ms boundary = spec.slot_length; boundary <= spec.duration;
       boundary += spec.slot_length, ++slot) {
    {
      const scoped_span s{log, "advance", rep.id(), -1, as_id(slot),
                          as_id(index)};
      system->advance_to(boundary - kBoundaryWindowMs);
    }
    const scoped_span s{log, "boundary", rep.id(), -1, as_id(slot),
                        as_id(index)};
    system->advance_to(boundary);
  }
  {
    const scoped_span s{log, "advance", rep.id(), -1, as_id(slot),
                        as_id(index)};
    system->advance_to(spec.duration);
  }
  const scoped_span s{log, "drain", rep.id(), -1, -1, as_id(index)};
  system->finish();
  member_result result = release(
      *system, exp::digest_metrics(system->metrics(), groups, context.seed));
  system.reset();
  return result;
}

outside_in_run drive_scenario(const workload& w, const tasks::task_pool& tasks,
                              exp::thread_pool& pool, span_log* log) {
  const exp::scenario_spec& spec = w.spec;
  exp::validate(spec, tasks);
  const std::size_t groups = exp::group_count_of(spec);
  outside_in_run run;
  {
    const scoped_span root{log, "run", -1};
    std::vector<member_result> results;
    if (log != nullptr) {
      for (std::size_t r = 0; r < w.replications; ++r) {
        results.push_back(
            drive_replication(spec, tasks, r, groups, log, root.id()));
      }
    } else {
      results = exp::parallel_map(pool, w.replications, [&](std::size_t r) {
        return drive_replication(spec, tasks, r, groups, nullptr, -1);
      });
    }
    const scoped_span s{log, "merge", root.id()};
    fold(run, results);
  }
  return run;
}

}  // namespace

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double set_up(std::unique_ptr<host>& out, std::size_t parallel_workers) {
  out.reset();  // an earlier sample's teardown is not set-up work
  const auto start = clock_type::now();
  out = std::make_unique<host>(parallel_workers);
  // The first call in a process computes the cached fit; later set-ups
  // repeat the same fit so every sample measures the same work.
  static bool warmed = false;
  if (!warmed) {
    (void)net::default_lte_model();
    warmed = true;
  } else {
    (void)net::calibrated_model(net::operator_by_name("beta"),
                                net::technology::lte);
  }
  return seconds_since(start);
}

timed_call run_entry_point(const workload& w, const host& h,
                           exp::thread_pool& pool) {
  timed_call call;
  const exp::pool_counters before = pool.counters();
  if (w.entry == entry_point::run_fleet) {
    fleet::fleet_options options;
    options.shards = w.shards;
    const auto start = clock_type::now();
    fleet::fleet_result result =
        fleet::run_fleet(w.spec, options, h.tasks, pool);
    call.wall_s = seconds_since(start);
    call.aggregate = std::move(result.aggregate);
    call.registry = std::move(result.observability);
  } else {
    const auto start = clock_type::now();
    exp::scenario_result result = exp::run_scenario(
        w.spec, w.spec.plan(w.replications), h.tasks, pool);
    call.wall_s = seconds_since(start);
    if (!result.errors.empty()) {
      throw std::runtime_error{"run_scenario: replication " +
                               std::to_string(result.errors[0].index) +
                               " failed: " + result.errors[0].message};
    }
    call.aggregate = std::move(result.aggregate);
  }
  const exp::pool_counters after = pool.counters();
  call.pool_delta = {after.executed - before.executed,
                     after.steals - before.steals,
                     after.idle_waits - before.idle_waits};
  return call;
}

std::int32_t span_log::open(const char* name, std::int32_t parent,
                            std::int32_t shard, std::int32_t slot,
                            std::int32_t replication) {
  span s;
  s.name = name;
  s.parent = parent;
  s.shard = shard;
  s.slot = slot;
  s.replication = replication;
  s.start_s = now_s();
  spans_.push_back(s);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void span_log::close(std::int32_t id) {
  spans_.at(static_cast<std::size_t>(id)).end_s = now_s();
}

double span_log::now_s() const { return seconds_since(epoch_); }

outside_in_run drive_outside_in(const workload& w,
                                const tasks::task_pool& tasks,
                                exp::thread_pool& pool, span_log* log) {
  if (w.entry == entry_point::run_fleet) return drive_fleet(w, tasks, log);
  return drive_scenario(w, tasks, pool, log);
}

std::vector<double> self_seconds(const std::vector<span>& spans) {
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = spans[i].end_s - spans[i].start_s;
    self[i] += dur;
    if (spans[i].parent >= 0) {
      self[static_cast<std::size_t>(spans[i].parent)] -= dur;
    }
  }
  return self;
}

layer_split split_layers(const std::vector<span>& spans) {
  layer_split split;
  const std::vector<double> self_s = self_seconds(spans);
  // Per (slot, shard) round time, for the imbalance term.
  std::vector<std::vector<double>> round_time;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    const double dur = s.end_s - s.start_s;
    const double self = self_s[i];
    const std::string_view name = s.name;
    if (s.parent < 0) split.wall_s += dur;
    if (name == "build") {
      split.build_s += self;
    } else if (name == "advance") {
      split.advance_s += self;
    } else if (name == "boundary") {
      split.boundary_s += self;
    } else if (name == "coordinate") {
      split.coordinate_s += self;
    } else if (name == "drain") {
      split.drain_s += self;
    } else if (name == "merge") {
      split.merge_s += self;
    }
    if ((name == "advance" || name == "boundary") && s.shard >= 0 &&
        s.slot >= 0) {
      const auto slot = static_cast<std::size_t>(s.slot);
      const auto shard = static_cast<std::size_t>(s.shard);
      if (round_time.size() <= slot) round_time.resize(slot + 1);
      if (round_time[slot].size() <= shard) round_time[slot].resize(shard + 1);
      round_time[slot][shard] += dur;
    }
  }
  for (const std::vector<double>& per_shard : round_time) {
    if (per_shard.empty()) continue;
    split.round_imbalance_s +=
        *std::max_element(per_shard.begin(), per_shard.end()) -
        median(per_shard);
  }
  return split;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
