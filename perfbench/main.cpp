// perfbench — the repository benchmark.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--spans PATH] [--users N] [--shards K] [--replications R]
//
// --trace 0 times the workload's public entry point (fleet::run_fleet or
// exp::run_scenario) at jobs=1 and jobs=nproc over eight seeds for about
// --seconds, and reports the end-to-end metrics.  --trace 1 drives the
// layers' public functions from outside with spans around each call and
// reports the per-layer metrics (spans go to --spans).  Every call is
// checked; the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See README.md in this directory for the workloads and metrics.
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "measure.h"
#include "obs/registry.h"
#include "util/rng.h"
#include "workloads.h"

namespace {

using namespace mca;
using perfbench::median;
using perfbench::seconds_since;
using perfbench::workload;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 9;
/// Seeds per end-to-end run.  The simulated outcomes are pooled over
/// them and the timed calls cycle through them: one seed's outcome turns
/// on a handful of rare events (a fleet_faults run sees ~18 spot
/// strikes), and pooling keeps the reported figures from swinging with
/// which strikes one seed happened to draw.
constexpr std::size_t kSeedsPerRun = 8;
/// jobs=1 calls per end-to-end run at the least, however short --seconds.
constexpr std::size_t kMinSerialCalls = 2;
/// The reported traced run's layer self-times must sum to its wall time
/// within this share: what the spans leave unattributed is the
/// benchmark's own loop glue, and more than this means a layer call went
/// unrecorded.
constexpr double kLayerSumTolerance = 0.01;

struct metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

struct check {
  const char* name = "";
  bool ok = false;
};

struct options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_path;
  perfbench::scale at;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans PATH] [--users N] "
               "[--shards K] [--replications R]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_count(std::string_view flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-' || errno == ERANGE) {
    usage(std::string{flag} + " needs a non-negative integer");
  }
  return v;
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage(std::string{flag} + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_count(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_count(flag, value));
    } else if (flag == "--trace") {
      o.trace = static_cast<int>(parse_count(flag, value));
      if (o.trace > 1) usage("--trace is 0 or 1");
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else if (flag == "--users") {
      o.at.users = parse_count(flag, value);
    } else if (flag == "--shards") {
      o.at.shards = parse_count(flag, value);
    } else if (flag == "--replications") {
      o.at.replications = parse_count(flag, value);
    } else {
      usage("unknown flag " + std::string{flag});
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double quantile_ms(const util::histogram& h, double q) {
  return h.total() == 0 ? 0.0 : h.quantile_interpolated(q);
}

/// The registry checks on one run: successes + failures == requests, and
/// the registry's request count equals the aggregate's.
void registry_checks(const exp::aggregate_metrics& agg,
                     const obs::registry& reg, std::vector<check>& out) {
  const std::uint64_t failures = reg.get(obs::counter::sdn_failures);
  out.push_back({"successes + failures == requests",
                 agg.successes + failures == agg.requests});
  out.push_back({"registry sdn_requests == aggregate requests",
                 reg.get(obs::counter::sdn_requests) == agg.requests});
}

bool all_ok(const std::vector<check>& checks) {
  for (const check& c : checks) {
    if (!c.ok) return false;
  }
  return true;
}

void print_checks(const std::vector<check>& checks) {
  for (const check& c : checks) {
    std::printf("check %-48s %s\n", c.name, c.ok ? "ok" : "FAILED");
  }
}

void emit(bool correct, std::size_t attempted, std::size_t failed,
          const std::vector<metric>& metrics) {
  for (const metric& m : metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += quoted(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": " +
            quoted(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void write_spans(const std::string& path, const workload& w,
                 const std::vector<perfbench::span>& spans) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"cannot write spans to " + path};
  const std::vector<double> self = perfbench::self_seconds(spans);
  out << "{\"workload\": " << quoted(w.name)
      << ", \"seed\": " << w.spec.base_seed << ", \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::span& s = spans[i];
    out << "  {\"id\": " << i << ", \"name\": " << quoted(s.name)
        << ", \"start_s\": " << number(s.start_s)
        << ", \"end_s\": " << number(s.end_s)
        << ", \"self_s\": " << number(self[i])
        << ", \"parent\": " << s.parent << ", \"workload\": "
        << quoted(w.name) << ", \"shard\": " << s.shard
        << ", \"slot\": " << s.slot << ", \"replication\": " << s.replication
        << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error{"cannot write spans to " + path};
}

/// The workload at kSeedsPerRun seeds: the given one first, then seeds
/// drawn from it with splitmix64, so runs at different --seed values
/// share none.
std::vector<workload> seeded_workloads(const options& o, const workload& w) {
  std::vector<workload> out{w};
  std::uint64_t state = w.spec.base_seed;
  while (out.size() < kSeedsPerRun) {
    out.push_back(
        perfbench::make_workload(o.workload, util::splitmix64(state), o.at));
  }
  return out;
}

/// --trace 0: the end-to-end metrics.  After one jobs=1 call, every seed's
/// jobs=nproc call runs (pooled simulated outcomes, the parallel timings,
/// each seed's reference fingerprint); then jobs=1 calls cycle through the
/// seeds while the window lasts, each checked against its seed's
/// fingerprint.
int end_to_end(const options& o, const workload& w) {
  const std::size_t nproc = exp::thread_pool::hardware_workers();
  std::unique_ptr<perfbench::host> h;
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    setups.push_back(perfbench::set_up(h, nproc));
  }
  const std::vector<workload> seeded = seeded_workloads(o, w);

  std::vector<std::uint64_t> fingerprints;
  std::uint64_t requests = 0;
  std::uint64_t successes = 0;
  std::uint64_t fallbacks = 0;
  util::histogram latency = exp::make_latency_histogram();
  std::vector<double> serial_s;
  std::vector<double> parallel_s;
  std::vector<check> checks;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  // One call is one operation; a failed check discards its timing.
  const auto call = [&](std::size_t seed_index, bool parallel) {
    const workload& sw = seeded[seed_index];
    const perfbench::timed_call c =
        perfbench::run_entry_point(sw, *h, parallel ? h->parallel : h->serial);
    if (fingerprints.size() == seed_index) {
      fingerprints.push_back(c.aggregate.fingerprint());
    }
    std::vector<check> mine;
    mine.push_back({"fingerprint identical at jobs=1 and jobs=nproc",
                    c.aggregate.fingerprint() == fingerprints[seed_index]});
    if (c.registry) registry_checks(c.aggregate, *c.registry, mine);
    const bool ok = all_ok(mine);
    if (ok) {
      (parallel ? parallel_s : serial_s).push_back(c.wall_s);
    } else {
      ++failed;
    }
    if (attempted == 0 || !ok) {
      checks.insert(checks.end(), mine.begin(), mine.end());
    }
    ++attempted;
    std::printf("call %zu: seed %" PRIu64 "   jobs=%zu   %.4f s   %s\n",
                attempted, sw.spec.base_seed, parallel ? nproc : 1, c.wall_s,
                ok ? "ok" : "FAILED");
    return c;
  };

  const auto start = std::chrono::steady_clock::now();
  // The first call runs alone at jobs=1, so the high-water mark covers
  // set-up plus one call whose memory does not depend on how the pool
  // interleaves work, and does not grow with the number of calls a
  // faster build fits into the run.
  call(0, false);
  const double peak_mb = perfbench::peak_rss_mb();
  for (std::size_t i = 0; i < seeded.size(); ++i) {
    const perfbench::timed_call c = call(i, true);
    requests += c.aggregate.requests;
    successes += c.aggregate.successes;
    if (c.registry) {
      fallbacks += c.registry->get(obs::counter::sdn_local_fallbacks);
    }
    latency.merge(c.aggregate.latency);
  }
  double last_s = 0.0;
  for (std::size_t i = 1;
       i < kMinSerialCalls || seconds_since(start) + last_s <= o.seconds;
       ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    call(i % seeded.size(), false);
    last_s = seconds_since(t0);
  }

  // run_scenario returns no registry: its registry checks run on an
  // outside-in replay of the first seed, whose aggregate must equal the
  // entry point's.  Local fallbacks need a fault program, which the
  // run_scenario workload does not have.
  if (w.entry == perfbench::entry_point::run_scenario) {
    const perfbench::outside_in_run replay =
        perfbench::drive_outside_in(w, h->tasks, h->parallel, nullptr);
    std::vector<check> mine;
    mine.push_back({"outside-in replay fingerprint == run_scenario's",
                    replay.aggregate.fingerprint() == fingerprints[0]});
    registry_checks(replay.aggregate, replay.registry, mine);
    if (!all_ok(mine)) failed = attempted;
    checks.insert(checks.end(), mine.begin(), mine.end());
  }

  const double users = static_cast<double>(w.simulated_users());
  const double med1 = median(serial_s);
  const double medp = median(parallel_s);
  std::printf("workload %s   simulated users %zu   nproc %zu\n",
              w.name.c_str(), w.simulated_users(), nproc);
  for (std::size_t i = 0; i < seeded.size(); ++i) {
    std::printf("seed %" PRIu64 "   fingerprint %s\n",
                seeded[i].spec.base_seed, hex(fingerprints[i]).c_str());
  }
  std::printf("pooled over %zu seeds: requests %" PRIu64 "   successes %" PRIu64
              "   local fallbacks %" PRIu64 "\n",
              seeded.size(), requests, successes, fallbacks);
  print_checks(checks);
  const double issued = static_cast<double>(requests);
  const double missed = static_cast<double>(requests - successes + fallbacks);
  const std::vector<metric> metrics{
      {"setup_s", median(setups), "s"},
      {"users_per_s", med1 > 0.0 ? users / med1 : 0.0, "users/s"},
      {"users_per_s_par", medp > 0.0 ? users / medp : 0.0, "users/s"},
      {"peak_rss_mb", peak_mb, "MB"},
      {"sim_fail_pct", issued > 0.0 ? 100.0 * missed / issued : 0.0, "%"},
      {"sim_p50_ms", quantile_ms(latency, 0.50), "ms"},
      {"sim_p99_ms", quantile_ms(latency, 0.99), "ms"},
  };
  emit(failed == 0, attempted, failed, metrics);
  return 0;
}

/// --trace 1: the per-layer metrics.
int per_layer(const options& o, const workload& w) {
  const std::size_t nproc = exp::thread_pool::hardware_workers();
  std::unique_ptr<perfbench::host> h;
  for (int i = 0; i < kSetupReps; ++i) perfbench::set_up(h, nproc);

  struct traced_rep {
    double untraced_s = 0.0;
    perfbench::outside_in_run run;
    std::vector<perfbench::span> spans;
    perfbench::layer_split split;
  };
  std::vector<traced_rep> reps;
  std::vector<check> checks;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t untraced_fp = 0;
  const auto start = std::chrono::steady_clock::now();
  double last_rep_s = 0.0;
  while (attempted == 0 || seconds_since(start) + last_rep_s <= o.seconds) {
    const auto rep_start = std::chrono::steady_clock::now();
    const perfbench::timed_call untraced =
        perfbench::run_entry_point(w, *h, h->serial);
    perfbench::span_log log;
    traced_rep rep{untraced.wall_s,
                   perfbench::drive_outside_in(w, h->tasks, h->serial, &log),
                   log.spans(),
                   {}};
    rep.split = perfbench::split_layers(rep.spans);
    last_rep_s = seconds_since(rep_start);
    ++attempted;
    untraced_fp = untraced.aggregate.fingerprint();

    std::vector<check> mine;
    mine.push_back({"traced fingerprint == untraced fingerprint",
                    rep.run.aggregate.fingerprint() == untraced_fp});
    registry_checks(rep.run.aggregate, rep.run.registry, mine);
    const double unattributed = rep.split.wall_s - rep.split.attributed_s();
    const bool ok = all_ok(mine);
    if (attempted == 1 || !ok) {
      checks.insert(checks.end(), mine.begin(), mine.end());
    }
    std::printf("rep %zu: untraced %.4f s   traced %.4f s   unattributed "
                "%.3f%%   %s\n",
                attempted, rep.untraced_s, rep.split.wall_s,
                100.0 * unattributed / rep.split.wall_s, ok ? "ok" : "FAILED");
    if (ok) {
      reps.push_back(std::move(rep));
    } else {
      ++failed;
    }
  }

  // The pool's scheduling counters come from one parallel call.
  const perfbench::timed_call par =
      perfbench::run_entry_point(w, *h, h->parallel);
  ++attempted;
  const bool par_ok = par.aggregate.fingerprint() == untraced_fp;
  checks.push_back({"fingerprint identical at jobs=1 and jobs=nproc", par_ok});
  if (!par_ok) ++failed;

  std::vector<metric> metrics;
  if (!reps.empty()) {
    // Report the rep whose traced wall time is the median.
    std::sort(reps.begin(), reps.end(),
              [](const traced_rep& a, const traced_rep& b) {
                return a.split.wall_s < b.split.wall_s;
              });
    const traced_rep& rep = reps[(reps.size() - 1) / 2];
    const perfbench::layer_split& s = rep.split;
    const bool sums = std::abs(s.wall_s - s.attributed_s()) <=
                      kLayerSumTolerance * s.wall_s;
    checks.push_back({"layer self-times sum to traced wall time", sums});
    if (!sums) ++failed;
    const perfbench::outside_in_run& run = rep.run;
    const obs::registry& reg = run.registry;
    const exp::aggregate_metrics& agg = run.aggregate;
    const auto count = [&](obs::counter c) {
      return static_cast<double>(reg.get(c));
    };
    const double events = static_cast<double>(run.sim_events);
    const double ps_events = count(obs::counter::ps_completion_events);
    util::histogram warmup = obs::slo_histogram_layout();
    util::histogram steady = obs::slo_histogram_layout();
    for (std::size_t i = 0; i < run.timeline.size(); ++i) {
      const obs::timeline_window& win = run.timeline.window(i);
      (win.slot == 0 ? warmup : steady).merge(win.merged_slo());
    }
    std::vector<double> untraced;
    for (const traced_rep& r : reps) untraced.push_back(r.untraced_s);
    metrics = {
        {"core.build_s", s.build_s, "s"},
        {"core.advance_s", s.advance_s, "s"},
        {"core.slot_boundary_s", s.boundary_s, "s"},
        {"fleet.coordinate_s", s.coordinate_s, "s"},
        {"fleet.round_imbalance_s", s.round_imbalance_s, "s"},
        {"core.drain_s", s.drain_s, "s"},
        {"exp.merge_s", s.merge_s, "s"},
        {"trace.wall_s", s.wall_s, "s"},
        {"trace.unattributed_s", s.wall_s - s.attributed_s(), "s"},
        {"trace.overhead_pct", 100.0 * (s.wall_s / median(untraced) - 1.0),
         "%"},
        {"sim.events", events, "count"},
        {"sim.events_per_req",
         agg.requests > 0 ? events / static_cast<double>(agg.requests) : 0.0,
         "events/req"},
        {"sim.ns_per_event",
         events > 0.0 ? 1e9 * (s.advance_s + s.drain_s) / events : 0.0,
         "ns"},
        {"sdn.requests", count(obs::counter::sdn_requests), "count"},
        {"sdn.failures", count(obs::counter::sdn_failures), "count"},
        {"cloud.ps_submits", count(obs::counter::ps_submits), "count"},
        {"cloud.ps_completion_events", ps_events, "count"},
        {"cloud.ps_useful_wake_ratio",
         ps_events > 0.0
             ? 1.0 - count(obs::counter::ps_spurious_wakes) / ps_events
             : 0.0,
         "ratio"},
        {"cloud.queue_depth_mean",
         reg.stats(obs::series::ps_queue_depth).mean(), "jobs"},
        {"cloud.background_jobs",
         static_cast<double>(agg.background_submitted), "count"},
        {"cloud.cost_usd", agg.cost_usd.sum(), "USD"},
        {"ilp.solves", count(obs::counter::ilp_solves), "count"},
        {"ilp.bb_nodes", count(obs::counter::ilp_bb_nodes), "count"},
        {"ilp.root_pivots", count(obs::counter::ilp_root_pivots), "count"},
        {"fault.timeouts", count(obs::counter::sdn_timeouts), "count"},
        {"fault.retries", count(obs::counter::sdn_retries), "count"},
        {"fault.local_fallbacks", count(obs::counter::sdn_local_fallbacks),
         "count"},
        {"fault.preemptions", count(obs::counter::fault_preemptions),
         "count"},
        {"fault.cold_starts", count(obs::counter::fault_cold_starts), "count"},
        {"predictor.accuracy", agg.accuracy.mean(), "ratio"},
        {"obs.warmup_p99_ms", quantile_ms(warmup, 0.99), "ms"},
        {"obs.steady_p99_ms", quantile_ms(steady, 0.99), "ms"},
        {"exp.pool_steals", static_cast<double>(par.pool_delta.steals),
         "count"},
        {"exp.pool_idle_waits", static_cast<double>(par.pool_delta.idle_waits),
         "count"},
    };
    std::printf("workload %s   seed %" PRIu64 "   traced reps %zu\n",
                w.name.c_str(), w.spec.base_seed, reps.size());
    std::printf("fingerprint %s   traced fingerprint %s\n",
                hex(untraced_fp).c_str(), hex(agg.fingerprint()).c_str());
    if (!o.spans_path.empty()) {
      write_spans(o.spans_path, w, rep.spans);
      std::printf("spans %zu written to %s\n", rep.spans.size(),
                  o.spans_path.c_str());
    }
  }
  print_checks(checks);
  emit(failed == 0 && !reps.empty(), attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const options o = parse(argc, argv);
  try {
    const perfbench::workload w =
        perfbench::make_workload(o.workload, o.seed, o.at);
    return o.trace == 0 ? end_to_end(o, w) : per_layer(o, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
