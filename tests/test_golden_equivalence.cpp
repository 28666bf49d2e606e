// Golden semantic-equivalence gate for the PR-5 hot-path overhaul.
//
// The per-request pipeline was rewritten around pooled state, SoA user
// slabs, and streaming digests; an exact sorted-set slot distance
// (today trace::group_distance) replaced the DP; the slot scan became a
// streaming accumulator.  None of that may change simulation semantics.
// Two layers of protection:
//
//  1. Pinned goldens — request counts, acceptance, billing totals, and
//     latency-digest numbers for a fixed scenario/seed, asserted here.
//     Integer counts are exact; monetary/latency aggregates allow
//     float-noise tolerance.  The values recorded from the pre-refactor
//     tree (PR-4 code) stay as the reference: drawing the routing overhead
//     at submit instead of in an event of its own was a deliberate
//     re-golden (every timing leg keeps its distribution; only which
//     request receives which SDN draw changed), so today's exact values
//     must also stay within a stated tolerance of the PR-4 ones.
//  2. Properties — the streaming request digest must equal the digest
//     recomputed from the raw per-request series, and a run must not
//     depend on whether the raw series is recorded at all.
#include "exp/scenario.h"

#include <gtest/gtest.h>

#include <cmath>

#include "exp/thread_pool.h"
#include "fleet/fleet_runner.h"
#include "obs/tracer.h"
#include "tasks/task.h"

namespace mca {
namespace {

/// The fixed scenario the goldens were recorded on (PR-4 tree, seed
/// 20170): mixed task pool, Poisson gaps, background load, promotions,
/// four backend tiers over three groups, five 10-minute slots.
exp::scenario_spec golden_spec() {
  exp::scenario_spec spec;
  spec.name = "golden";
  spec.base_seed = 20170;
  spec.user_count = 600;
  spec.duration = util::minutes(50.0);
  spec.slot_length = util::minutes(10.0);
  spec.tasks = exp::task_mix::random_pool;
  spec.gaps = exp::gap_model::exponential;
  spec.arrival_rate_hz = 0.02;
  spec.background_requests_per_burst = 5;
  spec.background_burst_period = util::seconds(10.0);
  spec.promotion_probability = 1.0 / 40.0;
  spec.groups = {
      {1, "t2.nano", 2, 6.0},      {1, "t2.small", 0, 18.0},
      {2, "t2.large", 1, 30.0},    {3, "m4.4xlarge", 1, 100.0},
  };
  spec.max_total_instances = 40;
  spec.fleet_max_total_instances = 40;
  spec.fleet_shards = 3;
  return spec;
}

/// The PR-4 goldens (fault-free, seed 20170), before the re-golden.
struct pr4_golden {
  static constexpr std::size_t requests = 36182;
  static constexpr std::size_t successes = 36182;
  static constexpr std::size_t promotions = 740;
  static constexpr std::size_t background_submitted = 66005;
  static constexpr double cost_usd = 4.2681;
  static constexpr double response_mean = 221.4674971996;
};
struct pr4_fleet_golden {
  static constexpr std::size_t requests = 36269;
  static constexpr std::size_t successes = 32521;
  static constexpr std::size_t promotions = 713;
  static constexpr double cost_usd = 1.5004666667;
  static constexpr double response_mean = 222.0504903205;
};

/// |actual - reference| <= tolerance * reference.
void expect_within(double actual, double reference, double tolerance,
                   const char* what) {
  EXPECT_LE(std::abs(actual - reference), tolerance * reference)
      << what << ": " << actual << " vs PR-4 " << reference;
}

exp::replication_metrics run_golden_digest() {
  tasks::task_pool pool;
  const exp::scenario_spec spec = golden_spec();
  exp::replication_context ctx;
  ctx.index = 0;
  ctx.seed = spec.base_seed;
  const core::system_metrics metrics = exp::run_replication(spec, pool, ctx);
  return exp::digest_metrics(metrics, exp::group_count_of(spec), ctx.seed);
}

TEST(GoldenEquivalence, MonolithicRunMatchesPreRefactorGoldens) {
  const exp::replication_metrics digest = run_golden_digest();

  // Recorded after the routing re-golden (see CHANGES.md): any drift here
  // means a change altered what is simulated, not just how fast.
  EXPECT_EQ(digest.requests, 36182u);
  EXPECT_EQ(digest.successes, 36182u);
  EXPECT_EQ(digest.promotions, 752u);
  EXPECT_EQ(digest.background_submitted, 64210u);
  EXPECT_NEAR(digest.total_cost_usd, 4.3754, 1e-9);
  EXPECT_EQ(digest.response.count(), 36182u);
  EXPECT_NEAR(digest.response.mean(), 221.7416876918, 1e-6);
  EXPECT_EQ(digest.latency.total(), 36182u);
  EXPECT_NEAR(digest.latency.quantile(0.50), 125.0, 1e-9);
  EXPECT_NEAR(digest.latency.quantile(0.95), 375.0, 1e-9);

  // The re-golden's bound against the PR-4 reference.
  EXPECT_EQ(digest.requests, pr4_golden::requests);
  expect_within(static_cast<double>(digest.successes), pr4_golden::successes,
                0.005, "successes");
  expect_within(static_cast<double>(digest.promotions),
                pr4_golden::promotions, 0.03, "promotions");
  expect_within(static_cast<double>(digest.background_submitted),
                pr4_golden::background_submitted, 0.05,
                "background_submitted");
  expect_within(digest.total_cost_usd, pr4_golden::cost_usd, 0.05, "cost");
  expect_within(digest.response.mean(), pr4_golden::response_mean, 0.01,
                "response mean");
}

TEST(GoldenEquivalence, ShardedFleetMatchesPreRefactorGoldens) {
  tasks::task_pool pool;
  const exp::scenario_spec spec = golden_spec();
  exp::thread_pool tpool{2};
  fleet::fleet_options options;
  options.shards = 3;
  const fleet::fleet_result result =
      fleet::run_fleet(spec, options, pool, tpool);

  EXPECT_EQ(result.aggregate.requests, 36269u);
  EXPECT_EQ(result.aggregate.successes, 32560u);
  EXPECT_EQ(result.aggregate.promotions, 720u);
  EXPECT_NEAR(result.aggregate.cost_usd.mean(), 1.5025666667, 1e-9);
  EXPECT_EQ(result.aggregate.latency.total(), 32560u);
  EXPECT_NEAR(result.aggregate.response.mean(), 222.2031707630, 1e-6);
  EXPECT_EQ(result.ilp_solves, 4u);
  EXPECT_EQ(result.slot_count, 5u);

  EXPECT_EQ(result.aggregate.requests, pr4_fleet_golden::requests);
  expect_within(static_cast<double>(result.aggregate.successes),
                pr4_fleet_golden::successes, 0.005, "fleet successes");
  expect_within(static_cast<double>(result.aggregate.promotions),
                pr4_fleet_golden::promotions, 0.03, "fleet promotions");
  expect_within(result.aggregate.cost_usd.mean(), pr4_fleet_golden::cost_usd,
                0.05, "fleet cost");
  expect_within(result.aggregate.response.mean(),
                pr4_fleet_golden::response_mean, 0.01, "fleet response mean");
}

TEST(GoldenEquivalence, RoutingAtSubmitKeepsEveryTimingLeg) {
  // The re-golden moved the routing-overhead draw from an event of its own
  // into submit().  Over the golden spec's ~36k requests the overhead must
  // keep its clamped N(150, 20) law (the 5 ms clamp sits 7 sd out and moves
  // neither moment measurably), and each response must still arrive
  // exactly timing.total() after its request was created.
  tasks::task_pool pool;
  const exp::scenario_spec spec = golden_spec();
  util::rng stream{spec.base_seed};
  core::system_config config = exp::make_system_config(spec, pool, stream);
  config.record_request_series = true;
  obs::tracer tracer{{1, 1u << 16}};
  config.trace_sink = &tracer;
  config.trace_sample_every = 1;  // one lifecycle span per request
  core::offloading_system system{std::move(config), pool};
  system.run(spec.duration);
  const auto& requests = system.metrics().requests;
  ASSERT_GE(requests.size(), 30'000u);

  util::running_stats routing;
  for (group_id g = 0; g < system.group_count(); ++g) {
    const util::running_stats& group = system.sdn().routing_stats(g);
    routing.merge(group);
    if (group.count() > 0) {  // ~6.7k to ~19k draws per group
      EXPECT_NEAR(group.mean(), 150.0, 0.5) << "group " << g;
      EXPECT_NEAR(group.stddev(), 20.0, 0.5) << "group " << g;
    }
  }
  EXPECT_EQ(routing.count(), requests.size());  // routed exactly once each
  EXPECT_NEAR(routing.mean(), 150.0, 0.5);
  EXPECT_NEAR(routing.stddev(), 20.0, 0.5);

  // A request's lifecycle span starts at submit and ends at delivery, in
  // the delivery order the request series is recorded in.
  const obs::span_ring& ring = tracer.ring(0);
  ASSERT_EQ(ring.dropped(), 0u);
  std::size_t matched = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const obs::span_record& span = ring.at(i);
    if (span.kind != obs::span_kind::request_lifecycle) continue;
    ASSERT_LT(matched, requests.size());
    const core::request_metric& r = requests[matched++];
    ASSERT_EQ(span.arg_a, r.user);
    ASSERT_EQ(span.sim_start_ms, r.issued_at);
    ASSERT_NEAR(span.sim_dur_ms, r.response_ms, 1e-6) << "request " << matched;
  }
  EXPECT_EQ(matched, requests.size());
}

TEST(GoldenEquivalence, StreamingDigestEqualsRawSeriesScan) {
  tasks::task_pool pool;
  const exp::scenario_spec spec = golden_spec();
  exp::replication_context ctx;
  ctx.index = 0;
  ctx.seed = spec.base_seed;
  // run_replication records the raw series, so the metrics carry both the
  // streaming digest and the per-request vector.
  const core::system_metrics metrics = exp::run_replication(spec, pool, ctx);
  ASSERT_FALSE(metrics.requests.empty());

  const auto& streamed = metrics.digest;
  EXPECT_EQ(streamed.issued, metrics.requests.size());

  // Recompute every aggregate from the raw series, in push order — the
  // streaming path must be bit-identical (same add order, same floats).
  util::running_stats response;
  util::histogram latency = core::default_latency_histogram();
  std::vector<util::running_stats> group_response(
      streamed.group_response.size());
  std::vector<std::uint64_t> group_successes(streamed.group_successes.size(),
                                             0);
  std::size_t successes = 0;
  for (const auto& r : metrics.requests) {
    if (!r.success) continue;
    ++successes;
    response.add(r.response_ms);
    latency.add(r.response_ms);
    if (r.group < group_response.size()) {
      group_response[r.group].add(r.response_ms);
      ++group_successes[r.group];
    }
  }
  EXPECT_EQ(streamed.succeeded, successes);
  EXPECT_EQ(streamed.response.count(), response.count());
  EXPECT_EQ(streamed.response.mean(), response.mean());
  EXPECT_EQ(streamed.response.variance(), response.variance());
  EXPECT_EQ(streamed.response.min(), response.min());
  EXPECT_EQ(streamed.response.max(), response.max());
  ASSERT_EQ(streamed.latency.bin_count(), latency.bin_count());
  for (std::size_t b = 0; b < latency.bin_count(); ++b) {
    EXPECT_EQ(streamed.latency.count_in_bin(b), latency.count_in_bin(b));
  }
  for (std::size_t g = 0; g < group_response.size(); ++g) {
    EXPECT_EQ(streamed.group_response[g].count(), group_response[g].count());
    EXPECT_EQ(streamed.group_response[g].mean(), group_response[g].mean());
    EXPECT_EQ(streamed.group_successes[g], group_successes[g]);
  }

  // The per-user index must agree with a linear scan of the raw series.
  for (user_id u = 0; u < 5; ++u) {
    std::vector<double> scanned;
    for (const auto& r : metrics.requests) {
      if (r.user == u && r.success) scanned.push_back(r.response_ms);
    }
    EXPECT_EQ(metrics.user_response_series(u), scanned);
  }
}

TEST(GoldenEquivalence, RawSeriesFlagDoesNotChangeSimulation) {
  tasks::task_pool pool;
  exp::scenario_spec spec = golden_spec();
  spec.user_count = 120;  // keep this variant quick
  spec.duration = util::minutes(30.0);

  const std::size_t groups = exp::group_count_of(spec);
  auto run_with_series = [&](bool record) {
    util::rng stream{spec.base_seed};
    core::system_config config = exp::make_system_config(spec, pool, stream);
    config.record_request_series = record;
    config.sdn.retain_trace_records = record;
    core::offloading_system system{std::move(config), pool};
    system.run(spec.duration);
    return exp::digest_metrics(system.metrics(), groups, spec.base_seed);
  };

  const exp::replication_metrics with_series = run_with_series(true);
  const exp::replication_metrics without_series = run_with_series(false);

  EXPECT_EQ(with_series.requests, without_series.requests);
  EXPECT_EQ(with_series.successes, without_series.successes);
  EXPECT_EQ(with_series.promotions, without_series.promotions);
  EXPECT_EQ(with_series.total_cost_usd, without_series.total_cost_usd);
  EXPECT_EQ(with_series.response.mean(), without_series.response.mean());
  EXPECT_EQ(with_series.latency.total(), without_series.latency.total());
  EXPECT_EQ(with_series.mean_prediction_accuracy,
            without_series.mean_prediction_accuracy);
}

}  // namespace
}  // namespace mca
