#include "workload/generator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

namespace mca::workload {
namespace {

class GeneratorTest : public ::testing::Test {
 protected:
  sim::simulation sim_;
  tasks::task_pool pool_;
  std::vector<offload_request> received_;

  request_sink collect() {
    return [this](const offload_request& r) { received_.push_back(r); };
  }
};

TEST_F(GeneratorTest, ConcurrentModeEmitsUsersTimesRounds) {
  concurrent_config config;
  config.users = 30;
  config.rounds = 3;
  config.gap = util::minutes(1);
  concurrent_generator gen{sim_, random_pool_source(pool_), collect(), config,
                           util::rng{1}};
  sim_.run();
  EXPECT_EQ(gen.emitted(), 90u);
  EXPECT_EQ(received_.size(), 90u);
}

TEST_F(GeneratorTest, ConcurrentRoundsAreSimultaneousBursts) {
  concurrent_config config;
  config.users = 10;
  config.rounds = 2;
  config.gap = 500.0;
  concurrent_generator gen{sim_, random_pool_source(pool_), collect(), config,
                           util::rng{1}};
  sim_.run();
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(received_[i].created_at, 0.0);
  }
  for (std::size_t i = 10; i < 20; ++i) {
    EXPECT_EQ(received_[i].created_at, 500.0);
  }
}

TEST_F(GeneratorTest, ConcurrentUsersAreDistinctPerRound) {
  concurrent_config config;
  config.users = 25;
  config.rounds = 1;
  config.first_user = 100;
  concurrent_generator gen{sim_, random_pool_source(pool_), collect(), config,
                           util::rng{1}};
  sim_.run();
  std::set<user_id> users;
  for (const auto& r : received_) users.insert(r.user);
  EXPECT_EQ(users.size(), 25u);
  EXPECT_EQ(*users.begin(), 100u);
  EXPECT_EQ(*users.rbegin(), 124u);
}

TEST_F(GeneratorTest, ConcurrentValidation) {
  concurrent_config bad;
  bad.users = 0;
  EXPECT_THROW(concurrent_generator(sim_, random_pool_source(pool_), collect(),
                                    bad, util::rng{1}),
               std::invalid_argument);
  concurrent_config no_rounds;
  no_rounds.rounds = 0;
  EXPECT_THROW(concurrent_generator(sim_, random_pool_source(pool_), collect(),
                                    no_rounds, util::rng{1}),
               std::invalid_argument);
  EXPECT_THROW(concurrent_generator(sim_, {}, collect(), concurrent_config{},
                                    util::rng{1}),
               std::invalid_argument);
}

TEST_F(GeneratorTest, InterarrivalStopsAtDeadline) {
  interarrival_config config;
  config.devices = 5;
  config.active_duration = util::seconds(10);
  interarrival_generator gen{sim_,
                             random_pool_source(pool_),
                             collect(),
                             fixed_interarrival(util::seconds(1)),
                             config,
                             util::rng{1}};
  sim_.run();
  // ~10 requests per device over 10 s at 1 Hz (initial offsets shift it).
  EXPECT_GT(gen.emitted(), 30u);
  EXPECT_LT(gen.emitted(), 60u);
  for (const auto& r : received_) {
    EXPECT_LT(r.created_at, util::seconds(10));
  }
}

TEST_F(GeneratorTest, InterarrivalUsesAllDevices) {
  interarrival_config config;
  config.devices = 8;
  config.active_duration = util::seconds(20);
  interarrival_generator gen{sim_,
                             random_pool_source(pool_),
                             collect(),
                             fixed_interarrival(util::seconds(1)),
                             config,
                             util::rng{2}};
  sim_.run();
  std::set<user_id> users;
  for (const auto& r : received_) users.insert(r.user);
  EXPECT_EQ(users.size(), 8u);
}

TEST_F(GeneratorTest, ExponentialInterarrivalApproximatesRate) {
  interarrival_config config;
  config.devices = 1;
  config.active_duration = util::hours(1);
  interarrival_generator gen{sim_,
                             random_pool_source(pool_),
                             collect(),
                             exponential_interarrival(2.0),
                             config,
                             util::rng{3}};
  sim_.run();
  // 2 Hz over one hour ~ 7200 requests.
  EXPECT_NEAR(static_cast<double>(gen.emitted()), 7'200.0, 400.0);
}

TEST_F(GeneratorTest, InterarrivalValidation) {
  EXPECT_THROW(fixed_interarrival(0.0), std::invalid_argument);
  EXPECT_THROW(exponential_interarrival(-1.0), std::invalid_argument);
  EXPECT_THROW(empirical_interarrival(nullptr), std::invalid_argument);
  interarrival_config bad;
  bad.devices = 0;
  EXPECT_THROW(interarrival_generator(sim_, random_pool_source(pool_),
                                      collect(), fixed_interarrival(1.0), bad,
                                      util::rng{1}),
               std::invalid_argument);
  bad.devices = std::size_t{0xffffffff};  // beyond the 32-bit device index
  EXPECT_THROW(interarrival_generator(sim_, random_pool_source(pool_),
                                      collect(), fixed_interarrival(1.0), bad,
                                      util::rng{1}),
               std::invalid_argument);
}

TEST_F(GeneratorTest, NonFiniteArrivalRatesAreRejected) {
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(exponential_interarrival(nan), std::invalid_argument);
  EXPECT_THROW(exponential_interarrival(inf), std::invalid_argument);
  EXPECT_THROW(exponential_interarrival(0.0), std::invalid_argument);
  EXPECT_THROW(fixed_interarrival(nan), std::invalid_argument);
  EXPECT_THROW(fixed_interarrival(inf), std::invalid_argument);
  EXPECT_THROW(fixed_interarrival(-1.0), std::invalid_argument);
}

TEST_F(GeneratorTest, NanGapThrowsInsteadOfHanging) {
  // A NaN gap used to re-fire its device at the same instant forever.
  interarrival_config config;
  config.active_duration = util::seconds(2);
  const interarrival_fn nan_gaps = [](util::rng&) {
    return std::numeric_limits<double>::quiet_NaN();
  };
  EXPECT_THROW(interarrival_generator(sim_, random_pool_source(pool_),
                                      collect(), nan_gaps, config,
                                      util::rng{1}),
               std::invalid_argument);

  // The first (desynchronizing) draw is fine; the first re-arm draws the
  // bad gap and throws out of the run loop.
  for (const double bad_gap :
       {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    sim::simulation sim;
    int draws = 0;
    const interarrival_fn late = [&draws, bad_gap](util::rng&) {
      return draws++ == 0 ? 100.0 : bad_gap;
    };
    interarrival_generator gen{sim,  random_pool_source(pool_), collect(),
                               late, config, util::rng{1}};
    EXPECT_THROW(sim.run_until(2000.0), std::invalid_argument) << bad_gap;
    EXPECT_EQ(gen.emitted(), 1u);
  }
}

TEST_F(GeneratorTest, ArrivalsDoNotOccupyTheEventQueue) {
  // The generator parks one engine event for all its devices' arrivals.
  interarrival_config config;
  config.devices = 10'000;
  config.active_duration = util::minutes(5);
  interarrival_generator gen{sim_,
                             random_pool_source(pool_),
                             collect(),
                             exponential_interarrival(0.05),
                             config,
                             util::rng{8}};
  EXPECT_EQ(sim_.pending_events(), 1u);
  sim_.run_until(util::minutes(2));
  EXPECT_GT(gen.emitted(), 0u);
  EXPECT_EQ(sim_.pending_events(), 1u);
  sim_.run();
  EXPECT_EQ(sim_.pending_events(), 0u);
}

// --- differential: the radix-queue generator vs per-device engine events ---

// The generator as it was before its arrivals left the engine: every
// device parks its own event, which fires once past the deadline as a
// no-op.  Same rng draw order (per emission: one task draw, then one gap
// draw) and same emissions; the engine event count differs by exactly
// those no-op fires, which the radix-queue generator never schedules.
class reference_interarrival {
 public:
  reference_interarrival(sim::simulation& sim, task_source source,
                         request_sink sink, interarrival_fn gaps,
                         interarrival_config config, util::rng rng)
      : sim_{sim},
        source_{std::move(source)},
        sink_{std::move(sink)},
        gaps_{std::move(gaps)},
        config_{config},
        rng_{rng} {
    const util::time_ms start = sim_.now();
    for (std::size_t d = 0; d < config_.devices; ++d) {
      const auto user = config_.first_user + static_cast<user_id>(d);
      const double gap = gaps_(rng_);
      sim_.schedule_at(start + gap * rng_.uniform(),
                       [this, user] { next(user); });
    }
    deadline_ = start + config_.active_duration;
  }

  std::size_t post_deadline_fires() const noexcept {
    return post_deadline_fires_;
  }

 private:
  void next(user_id user) {
    if (sim_.now() >= deadline_) {
      ++post_deadline_fires_;
      return;
    }
    offload_request request;
    request.user = user;
    request.work = source_(rng_);
    request.created_at = sim_.now();
    sink_(request);
    sim_.schedule_after(gaps_(rng_), [this, user] { next(user); });
  }

  sim::simulation& sim_;
  task_source source_;
  request_sink sink_;
  interarrival_fn gaps_;
  interarrival_config config_;
  util::rng rng_;
  util::time_ms deadline_ = 0.0;
  std::size_t post_deadline_fires_ = 0;
};

/// The no-op count of a generator that has none.
std::size_t post_deadline_fires(const interarrival_generator&) { return 0; }
std::size_t post_deadline_fires(const reference_interarrival& gen) {
  return gen.post_deadline_fires();
}

struct emission {
  user_id user = 0;
  util::time_ms created_at = 0.0;
  const tasks::task* algorithm = nullptr;
  std::size_t size = 0;
};

struct differential_run {
  std::vector<emission> emitted;
  std::size_t executed_events = 0;
  std::size_t post_deadline_fires = 0;
};

struct differential_case {
  std::function<interarrival_fn()> gaps;  ///< fresh (stateful) fn per run
  interarrival_config config;
  util::time_ms run_until = std::numeric_limits<double>::infinity();
  /// Delay of a follow-up engine event the sink schedules per request (it
  /// logs a marker), or negative for none.
  util::time_ms follow_up = -1.0;
};

template <typename Generator>
differential_run run_generator(const tasks::task_pool& pool,
                               const differential_case& c) {
  sim::simulation sim;
  // Start off zero so absolute times carry high mantissa bits.
  sim.run_until(1234.5);
  differential_run out;
  const request_sink sink = [&](const offload_request& r) {
    out.emitted.push_back(
        {r.user, r.created_at, r.work.algorithm, r.work.size});
    if (c.follow_up >= 0.0) {
      sim.schedule_after(c.follow_up, [&out, &sim] {
        out.emitted.push_back({~user_id{0}, sim.now(), nullptr, 0});
      });
    }
  };
  Generator gen{sim, random_pool_source(pool), sink, c.gaps(), c.config,
                util::rng{2024}};
  if (std::isinf(c.run_until)) {
    sim.run();
  } else {
    sim.run_until(c.run_until);
  }
  out.executed_events = sim.executed_events();
  out.post_deadline_fires = post_deadline_fires(gen);
  return out;
}

void expect_identical_runs(const tasks::task_pool& pool,
                           const differential_case& c, const char* what) {
  const auto queue = run_generator<interarrival_generator>(pool, c);
  const auto reference = run_generator<reference_interarrival>(pool, c);
  EXPECT_EQ(queue.executed_events,
            reference.executed_events - reference.post_deadline_fires)
      << what;
  // Run to the end, every reference device fires once past the deadline.
  if (std::isinf(c.run_until)) {
    EXPECT_EQ(reference.post_deadline_fires, c.config.devices) << what;
  }
  ASSERT_EQ(queue.emitted.size(), reference.emitted.size()) << what;
  ASSERT_FALSE(queue.emitted.empty()) << what;
  for (std::size_t i = 0; i < queue.emitted.size(); ++i) {
    const emission& a = queue.emitted[i];
    const emission& b = reference.emitted[i];
    ASSERT_EQ(a.user, b.user) << what << ", emission " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.created_at),
              std::bit_cast<std::uint64_t>(b.created_at))
        << what << ", emission " << i;
    ASSERT_EQ(a.algorithm, b.algorithm) << what << ", emission " << i;
    ASSERT_EQ(a.size, b.size) << what << ", emission " << i;
  }
}

differential_case exponential_case(std::size_t devices) {
  differential_case c;
  c.gaps = [] { return exponential_interarrival(0.5); };
  c.config.devices = devices;
  c.config.active_duration = util::minutes(2);
  return c;
}

TEST_F(GeneratorTest, DifferentialExponentialGaps) {
  expect_identical_runs(pool_, exponential_case(1), "1 device");
  expect_identical_runs(pool_, exponential_case(7), "7 devices");
  auto many = exponential_case(5'000);
  many.config.active_duration = util::seconds(10);
  expect_identical_runs(pool_, many, "5000 devices");
}

TEST_F(GeneratorTest, DifferentialFixedAndEmpiricalGaps) {
  differential_case fixed;
  fixed.gaps = [] { return fixed_interarrival(750.0); };
  fixed.config.devices = 40;
  fixed.config.active_duration = util::minutes(1);
  expect_identical_runs(pool_, fixed, "fixed gaps");

  const std::vector<double> samples{120.0, 300.0, 450.0, 2'000.0, 9'000.0};
  const auto distribution =
      std::make_shared<const util::empirical_distribution>(samples);
  differential_case empirical;
  empirical.gaps = [distribution] {
    return empirical_interarrival(distribution);
  };
  empirical.config.devices = 25;
  empirical.config.active_duration = util::minutes(3);
  expect_identical_runs(pool_, empirical, "empirical gaps");
}

TEST_F(GeneratorTest, DifferentialFirstUserDeadlineAndFollowUps) {
  auto offset = exponential_case(9);
  offset.config.first_user = 1'000;
  expect_identical_runs(pool_, offset, "nonzero first_user");

  auto cut = exponential_case(30);
  cut.run_until = 1234.5 + util::seconds(45);  // mid-stream
  expect_identical_runs(pool_, cut, "run stopped mid-stream");

  auto follow = exponential_case(7);
  follow.follow_up = 1.5;
  expect_identical_runs(pool_, follow, "sink schedules follow-up events");
}

TEST_F(GeneratorTest, DifferentialTiesPopInPushOrder) {
  // The first `devices` draws are 0, so every device starts at `start`;
  // after that a constant gap keeps all of them due at equal times.
  constexpr std::size_t devices = 64;
  differential_case lockstep;
  lockstep.gaps = [] {
    return interarrival_fn{[draws = std::size_t{0}](util::rng&) mutable {
      return draws++ < devices ? 0.0 : 250.0;
    }};
  };
  lockstep.config.devices = devices;
  lockstep.config.active_duration = util::seconds(5);
  expect_identical_runs(pool_, lockstep, "lockstep ties");

  // Zero gaps re-file a device at the time being popped, behind the
  // devices already due then.
  differential_case zeros = lockstep;
  zeros.gaps = [] {
    return interarrival_fn{[draws = std::size_t{0}](util::rng&) mutable {
      if (draws < devices) {
        ++draws;
        return 0.0;
      }
      static constexpr double cycle[] = {0.0, 250.0, 0.0, 500.0, 125.0};
      return cycle[draws++ % 5];
    }};
  };
  expect_identical_runs(pool_, zeros, "ties with zero gaps");
}

TEST_F(GeneratorTest, RateDoublingDoublesEveryPhase) {
  rate_doubling_config config;
  config.initial_hz = 1.0;
  config.final_hz = 8.0;
  config.phase_length = util::seconds(10);
  rate_doubling_generator gen{sim_, random_pool_source(pool_), collect(),
                              config, util::rng{4}};
  sim_.run();
  // Phases: 1, 2, 4, 8 Hz for 10 s each -> ~10+20+40+80 = 150 requests.
  EXPECT_NEAR(static_cast<double>(gen.emitted()), 150.0, 45.0);
  EXPECT_GT(gen.current_rate_hz(), 8.0);  // ended past the final phase
}

TEST_F(GeneratorTest, RateDoublingPhasesRampRequestDensity) {
  rate_doubling_config config;
  config.initial_hz = 2.0;
  config.final_hz = 16.0;
  config.phase_length = util::seconds(20);
  rate_doubling_generator gen{sim_, random_pool_source(pool_), collect(),
                              config, util::rng{5}};
  sim_.run();
  std::size_t first_phase = 0;
  std::size_t last_phase = 0;
  for (const auto& r : received_) {
    if (r.created_at < util::seconds(20)) ++first_phase;
    if (r.created_at >= util::seconds(60)) ++last_phase;
  }
  EXPECT_GT(last_phase, first_phase * 3);
}

TEST_F(GeneratorTest, RateDoublingValidation) {
  rate_doubling_config bad;
  bad.initial_hz = 0.0;
  EXPECT_THROW(rate_doubling_generator(sim_, random_pool_source(pool_),
                                       collect(), bad, util::rng{1}),
               std::invalid_argument);
  rate_doubling_config inverted;
  inverted.initial_hz = 8.0;
  inverted.final_hz = 2.0;
  EXPECT_THROW(rate_doubling_generator(sim_, random_pool_source(pool_),
                                       collect(), inverted, util::rng{1}),
               std::invalid_argument);
}

TEST_F(GeneratorTest, HeavyPoolSourceUsesMaximumSizes) {
  auto source = heavy_pool_source(pool_);
  util::rng rng{6};
  for (int i = 0; i < 50; ++i) {
    const auto request = source(rng);
    EXPECT_EQ(request.size, request.algorithm->max_size());
  }
}

TEST_F(GeneratorTest, StaticSourceAlwaysSameTask) {
  auto source = static_source(pool_.static_minimax_request());
  util::rng rng{6};
  for (int i = 0; i < 10; ++i) {
    const auto request = source(rng);
    EXPECT_EQ(request.algorithm->name(), "minimax");
    EXPECT_EQ(request.size, 9u);
  }
}

TEST_F(GeneratorTest, StaticSourceRejectsNull) {
  EXPECT_THROW(static_source(tasks::task_request{}), std::invalid_argument);
}

TEST_F(GeneratorTest, ReplayFiresAtExactTimestamps) {
  std::vector<replay_event> events = {
      {500.0, 3}, {100.0, 1}, {900.0, 2}};  // deliberately unsorted
  replay_generator gen{sim_, random_pool_source(pool_), collect(),
                       events, util::rng{7}};
  EXPECT_EQ(gen.scheduled(), 3u);
  sim_.run();
  EXPECT_EQ(gen.emitted(), 3u);
  ASSERT_EQ(received_.size(), 3u);
  EXPECT_EQ(received_[0].created_at, 100.0);
  EXPECT_EQ(received_[0].user, 1u);
  EXPECT_EQ(received_[1].created_at, 500.0);
  EXPECT_EQ(received_[2].user, 2u);
}

TEST_F(GeneratorTest, ReplayBatchesSameTimestampBursts) {
  // Six trace entries at two distinct timestamps must cost two simulator
  // events, not six, while emitting every entry in (time, original-order)
  // order.
  std::vector<replay_event> events = {{200.0, 10}, {100.0, 20}, {200.0, 11},
                                      {100.0, 21}, {200.0, 12}, {100.0, 22}};
  replay_generator gen{sim_, random_pool_source(pool_), collect(), events,
                       util::rng{7}};
  EXPECT_EQ(gen.scheduled(), 6u);
  EXPECT_EQ(sim_.pending_events(), 2u);
  sim_.run();
  EXPECT_EQ(gen.emitted(), 6u);
  ASSERT_EQ(received_.size(), 6u);
  const std::vector<user_id> expected_users = {20, 21, 22, 10, 11, 12};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(received_[i].user, expected_users[i]) << "entry " << i;
    EXPECT_EQ(received_[i].created_at, i < 3 ? 100.0 : 200.0);
  }
}

TEST_F(GeneratorTest, ReplayEmptyEventListIsFine) {
  replay_generator gen{sim_, random_pool_source(pool_), collect(), {},
                       util::rng{7}};
  sim_.run();
  EXPECT_EQ(gen.emitted(), 0u);
}

TEST_F(GeneratorTest, ReplayValidation) {
  EXPECT_THROW(replay_generator(sim_, {}, collect(), {}, util::rng{1}),
               std::invalid_argument);
  EXPECT_THROW(replay_generator(sim_, random_pool_source(pool_), {}, {},
                                util::rng{1}),
               std::invalid_argument);
}

TEST_F(GeneratorTest, RequestIdsAreUnique) {
  concurrent_config config;
  config.users = 50;
  config.rounds = 2;
  concurrent_generator gen{sim_, random_pool_source(pool_), collect(), config,
                           util::rng{1}};
  sim_.run();
  std::set<request_id> ids;
  for (const auto& r : received_) ids.insert(r.id);
  EXPECT_EQ(ids.size(), received_.size());
}

TEST_F(GeneratorTest, WeightedPoolSourceFollowsWeights) {
  // All mass on tasks 0 and 2; nothing else may ever be drawn, and the
  // 3:1 ratio must show up in the draw frequencies.
  std::vector<double> weights(pool_.size(), 0.0);
  weights[0] = 3.0;
  weights[2] = 1.0;
  auto source = weighted_pool_source(pool_, weights);
  util::rng rng{5};
  int first = 0;
  int third = 0;
  for (int i = 0; i < 20'000; ++i) {
    const auto request = source(rng);
    ASSERT_NE(request.algorithm, nullptr);
    if (request.algorithm == &pool_.at(0)) {
      ++first;
    } else {
      ASSERT_EQ(request.algorithm, &pool_.at(2));
      ++third;
    }
    EXPECT_GE(request.size, request.algorithm->min_size());
    EXPECT_LE(request.size, request.algorithm->max_size());
  }
  const double ratio = static_cast<double>(first) / third;
  EXPECT_NEAR(ratio, 3.0, 0.3);
}

TEST_F(GeneratorTest, WeightedPoolSourceRejectsWrongArity) {
  const std::vector<double> too_few{1.0, 2.0};
  EXPECT_THROW(weighted_pool_source(pool_, too_few), std::invalid_argument);
}

}  // namespace
}  // namespace mca::workload
