// The benchmark's measurements: set-up, timed calls of the two public
// entry points, and the outside-in layer drive that attributes host time
// to the layers by recording spans around their public calls.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "exp/scenario.h"
#include "exp/thread_pool.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "tasks/task.h"
#include "workloads.h"

namespace perfbench {

/// Everything a timed call needs, built before the first one.
struct host {
  explicit host(std::size_t parallel_workers) : parallel{parallel_workers} {}

  mca::tasks::task_pool tasks;
  mca::exp::thread_pool serial{1};
  mca::exp::thread_pool parallel;
};

/// Builds a host into `out` and warms the process-wide lazy state the
/// first simulated system would otherwise pay for inside a timed call
/// (the LTE RTT model's grid-search fit).  Returns the seconds taken.
double set_up(std::unique_ptr<host>& out, std::size_t parallel_workers);

/// One call of the workload's public entry point (fleet::run_fleet or
/// exp::run_scenario) on `pool`.
struct timed_call {
  double wall_s = 0.0;
  mca::exp::aggregate_metrics aggregate;
  /// run_fleet's merged registry; run_scenario returns none.
  std::optional<mca::obs::registry> registry;
  mca::exp::pool_counters pool_delta;  ///< pool.counters() across the call
};

timed_call run_entry_point(const workload& w, const host& h,
                           mca::exp::thread_pool& pool);

/// One recorded span.  Times are seconds since the drive began; ids are
/// -1 where they do not apply.
struct span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::int32_t parent = -1;  ///< index of the enclosing span
  std::int32_t shard = -1;
  std::int32_t slot = -1;
  std::int32_t replication = -1;
};

/// In-memory span recorder for one single-threaded drive.
class span_log {
 public:
  span_log() : epoch_{std::chrono::steady_clock::now()} {}

  std::int32_t open(const char* name, std::int32_t parent,
                    std::int32_t shard = -1, std::int32_t slot = -1,
                    std::int32_t replication = -1);
  void close(std::int32_t id);
  const std::vector<span>& spans() const noexcept { return spans_; }

 private:
  double now_s() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<span> spans_;
};

/// The result of driving a workload's layers from outside.
struct outside_in_run {
  mca::exp::aggregate_metrics aggregate;
  /// Shard (or replication) registries merged in index order, then the
  /// coordinator's — the same fold run_fleet performs.
  mca::obs::registry registry;
  mca::obs::timeline timeline;  ///< merged the same way
  std::uint64_t sim_events = 0;  ///< sum of executed_events()
};

/// Runs the workload by calling the layers' public functions directly:
/// fleet::shard / core::offloading_system construction + begin(),
/// advance_to(boundary - 1 ms), the boundary window, coordinator
/// allocate_slot / reallocate + apply_quota, finish(), and
/// exp::merge_replications.  With `log`, everything runs on the calling
/// thread and each call is recorded as a span.  Without, run_scenario
/// workloads spread their replications over `pool` (fleet workloads
/// always run serially).  The aggregate must equal the entry point's.
outside_in_run drive_outside_in(const workload& w,
                                const mca::tasks::task_pool& tasks,
                                mca::exp::thread_pool& pool, span_log* log);

/// Each span's self time: its duration minus the durations of its
/// children (the drive's spans nest without overlap).
std::vector<double> self_seconds(const std::vector<span>& spans);

/// Host seconds per layer: the spans' self times summed by layer.  The
/// grouping spans (run, round, reaim, replication) belong to no layer.
struct layer_split {
  double wall_s = 0.0;        ///< the root span
  double build_s = 0.0;       ///< construction + begin()
  double advance_s = 0.0;     ///< advance_to between boundaries
  double boundary_s = 0.0;    ///< the [b - 1 ms, b] boundary window
  double coordinate_s = 0.0;  ///< allocate_slot / reallocate + quotas
  double drain_s = 0.0;       ///< finish() + releasing the system
  double merge_s = 0.0;       ///< merge_replications + registry folds
  /// Sum over slot rounds of (slowest - median) per-shard round time.
  double round_imbalance_s = 0.0;

  double attributed_s() const noexcept {
    return build_s + advance_s + boundary_s + coordinate_s + drain_s +
           merge_s;
  }
};

layer_split split_layers(const std::vector<span>& spans);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

double seconds_since(std::chrono::steady_clock::time_point start);

/// The median of `v`; 0 when empty.
double median(std::vector<double> v);

}  // namespace perfbench
