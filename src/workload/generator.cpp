#include "workload/generator.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace mca::workload {
namespace {

std::uint64_t next_request_id() {
  // Request ids only need uniqueness within a process run; with the
  // experiment runner farming simulations out to worker threads the
  // counter must be atomic.  Id *values* then depend on thread
  // interleaving, so replication digests must never incorporate them
  // (exp::digest_metrics does not).
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

task_source random_pool_source(const tasks::task_pool& pool) {
  return [&pool](util::rng& rng) { return pool.random_request(rng); };
}

task_source heavy_pool_source(const tasks::task_pool& pool) {
  return [&pool](util::rng& rng) {
    auto request = pool.random_request(rng);
    request.size = request.algorithm->max_size();
    return request;
  };
}

task_source weighted_pool_source(const tasks::task_pool& pool,
                                 std::span<const double> weights) {
  if (weights.size() != pool.size()) {
    throw std::invalid_argument{
        "weighted_pool_source: one weight per pool task required"};
  }
  // The alias table is built once per source, shared by copies of the
  // closure; each draw costs one uniform for the task and one for the
  // size, like the uniform pool source.
  auto sampler = std::make_shared<const util::alias_sampler>(weights);
  return [&pool, sampler](util::rng& rng) {
    return pool.request_for(sampler->sample(rng), rng);
  };
}

task_source static_source(tasks::task_request request) {
  if (request.algorithm == nullptr) {
    throw std::invalid_argument{"static_source: null task"};
  }
  return [request](util::rng&) { return request; };
}

interarrival_fn fixed_interarrival(util::time_ms gap) {
  if (!(gap > 0.0 && std::isfinite(gap))) {
    throw std::invalid_argument{
        "fixed_interarrival: gap must be positive and finite"};
  }
  return [gap](util::rng&) { return gap; };
}

interarrival_fn exponential_interarrival(double rate_hz) {
  // A NaN rate draws NaN gaps and an infinite one zero gaps: either would
  // re-fire a device at the same instant forever.
  if (!(rate_hz > 0.0 && std::isfinite(rate_hz))) {
    throw std::invalid_argument{
        "exponential_interarrival: rate must be positive and finite"};
  }
  return [rate_hz](util::rng& rng) {
    return rng.exponential(rate_hz / 1000.0);  // rate per ms
  };
}

interarrival_fn empirical_interarrival(
    std::shared_ptr<const util::empirical_distribution> distribution) {
  if (distribution == nullptr) {
    throw std::invalid_argument{"empirical_interarrival: null distribution"};
  }
  return [distribution = std::move(distribution)](util::rng& rng) {
    return distribution->sample(rng);
  };
}

concurrent_generator::concurrent_generator(sim::simulation& sim,
                                           task_source source,
                                           request_sink sink,
                                           concurrent_config config,
                                           util::rng rng)
    : sim_{sim},
      source_{std::move(source)},
      sink_{std::move(sink)},
      config_{config},
      rng_{rng} {
  if (config.users == 0) throw std::invalid_argument{"concurrent: 0 users"};
  if (config.rounds == 0) throw std::invalid_argument{"concurrent: 0 rounds"};
  if (!source_ || !sink_) {
    throw std::invalid_argument{"concurrent: missing source/sink"};
  }
  process_ = std::make_unique<sim::periodic_process>(
      sim_, sim_.now(), config_.gap, [this](std::uint64_t) {
        emit_round();
        return rounds_done_ < config_.rounds;
      });
}

void concurrent_generator::emit_round() {
  for (std::size_t u = 0; u < config_.users; ++u) {
    offload_request request;
    request.id = next_request_id();
    request.user = config_.first_user + static_cast<user_id>(u);
    request.work = source_(rng_);
    request.created_at = sim_.now();
    ++emitted_;
    sink_(request);
  }
  ++rounds_done_;
}

interarrival_generator::interarrival_generator(sim::simulation& sim,
                                               task_source source,
                                               request_sink sink,
                                               interarrival_fn gaps,
                                               interarrival_config config,
                                               util::rng rng)
    : sim_{sim},
      source_{std::move(source)},
      sink_{std::move(sink)},
      gaps_{std::move(gaps)},
      config_{config},
      rng_{rng} {
  if (config.devices == 0) throw std::invalid_argument{"interarrival: 0 devices"};
  if (config.devices >= kNone) {
    throw std::invalid_argument{"interarrival: too many devices"};
  }
  if (!source_ || !sink_ || !gaps_) {
    throw std::invalid_argument{"interarrival: missing callback"};
  }
  at_bits_.resize(config_.devices);
  next_.resize(config_.devices);
  const util::time_ms start = sim_.now();
  last_ = std::bit_cast<std::uint64_t>(start);
  deadline_ = start + config_.active_duration;
  for (std::size_t d = 0; d < config_.devices; ++d) {
    // Desynchronize devices with an initial fractional gap.  An infinite
    // gap times a zero draw is NaN: clamp it to now, as the engine would.
    const double gap = draw_gap();
    const util::time_ms at = start + gap * rng_.uniform();
    push(static_cast<std::uint32_t>(d), at > start ? at : start);
  }
  if (occupied_ != 0) arm();
}

double interarrival_generator::draw_gap() {
  const double gap = gaps_(rng_);
  // A NaN gap would re-fire its device at the same instant forever.
  if (!(gap >= 0.0)) {
    throw std::invalid_argument{"interarrival: drawn gap is NaN or negative"};
  }
  return gap;
}

// mca:hot-path-begin(arrival-queue)
void interarrival_generator::wake() {
  // arm() settled the queue: bucket 0 heads the device due now.
  const std::uint32_t device = head_[0];
  head_[0] = next_[device];
  if (head_[0] == kNone) occupied_ &= ~std::uint64_t{1};
  offload_request request;
  request.id = next_request_id();
  request.user = config_.first_user + static_cast<user_id>(device);
  request.work = source_(rng_);
  request.created_at = sim_.now();
  ++emitted_;
  sink_(request);
  push(device, sim_.now() + draw_gap());
  if (occupied_ != 0) arm();
}

void interarrival_generator::arm() {
  settle();
  sim_.schedule_at(std::bit_cast<util::time_ms>(last_), [this] { wake(); });
}

void interarrival_generator::push(std::uint32_t device,
                                  util::time_ms at) noexcept {
  if (at >= deadline_) return;  // the device is done
  at_bits_[device] = std::bit_cast<std::uint64_t>(at);
  file(device);
}

void interarrival_generator::file(std::uint32_t device) noexcept {
  const std::uint64_t diff = at_bits_[device] ^ last_;
  const std::size_t bucket =
      diff == 0 ? 0 : static_cast<std::size_t>(64 - std::countl_zero(diff));
  const std::uint64_t bit = std::uint64_t{1} << bucket;
  next_[device] = kNone;
  if ((occupied_ & bit) != 0) {
    next_[tail_[bucket]] = device;
  } else {
    head_[bucket] = device;
    occupied_ |= bit;
  }
  tail_[bucket] = device;
}

void interarrival_generator::settle() noexcept {
  if ((occupied_ & 1) != 0) return;
  const auto bucket = static_cast<std::size_t>(std::countr_zero(occupied_));
  std::uint64_t earliest = ~std::uint64_t{0};
  for (std::uint32_t d = head_[bucket]; d != kNone; d = next_[d]) {
    earliest = std::min(earliest, at_bits_[d]);
  }
  // Every entry agrees with the new last_ on bit bucket-1 and above, so it
  // moves to a lower bucket; those are empty, and walking the list in
  // order keeps each of them sorted by push order.
  last_ = earliest;
  occupied_ &= ~(std::uint64_t{1} << bucket);
  for (std::uint32_t d = head_[bucket]; d != kNone;) {
    const std::uint32_t next = next_[d];
    file(d);
    d = next;
  }
}
// mca:hot-path-end

replay_generator::replay_generator(sim::simulation& sim, task_source source,
                                   request_sink sink,
                                   std::vector<replay_event> events,
                                   util::rng rng)
    : sim_{sim},
      source_{std::move(source)},
      sink_{std::move(sink)},
      rng_{rng},
      events_{std::move(events)},
      total_{events_.size()} {
  if (!source_ || !sink_) {
    throw std::invalid_argument{"replay: missing source/sink"};
  }
  // Traces carry same-millisecond bursts (a round of concurrent users, a
  // log with coarse timestamps); schedule one wake-up per distinct
  // timestamp and emit the whole burst from it, not one event per entry.
  // The stable sort replays entries in (time, original-order) order —
  // exactly the order the event loop's FIFO tie-break produced when every
  // entry was its own event, so rng draw order is unchanged.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const replay_event& a, const replay_event& b) {
                     return a.at < b.at;
                   });
  std::size_t first = 0;
  while (first < events_.size()) {
    std::size_t last = first + 1;
    while (last < events_.size() && events_[last].at == events_[first].at) {
      ++last;
    }
    sim_.schedule_at(events_[first].at,
                     [this, first, last] { emit_range(first, last); });
    first = last;
  }
}

void replay_generator::emit_range(std::size_t first, std::size_t last) {
  for (std::size_t e = first; e < last; ++e) {
    offload_request request;
    request.id = next_request_id();
    request.user = events_[e].user;
    request.work = source_(rng_);
    request.created_at = sim_.now();
    ++emitted_;
    sink_(request);
  }
}

rate_doubling_generator::rate_doubling_generator(sim::simulation& sim,
                                                 task_source source,
                                                 request_sink sink,
                                                 rate_doubling_config config,
                                                 util::rng rng)
    : sim_{sim},
      source_{std::move(source)},
      sink_{std::move(sink)},
      config_{config},
      rng_{rng},
      rate_hz_{config.initial_hz},
      phase_end_{sim.now() + config.phase_length} {
  if (config.initial_hz <= 0.0 || config.final_hz < config.initial_hz) {
    throw std::invalid_argument{"rate_doubling: bad rate range"};
  }
  if (config.phase_length <= 0.0) {
    throw std::invalid_argument{"rate_doubling: phase_length <= 0"};
  }
  if (!source_ || !sink_) {
    throw std::invalid_argument{"rate_doubling: missing source/sink"};
  }
  schedule_arrival();
}

void rate_doubling_generator::schedule_arrival() {
  const double gap_ms = rng_.exponential(rate_hz_ / 1000.0);
  sim_.schedule_after(gap_ms, [this] {
    while (sim_.now() >= phase_end_) {
      rate_hz_ *= 2.0;
      phase_end_ += config_.phase_length;
      if (rate_hz_ > config_.final_hz) return;  // schedule exhausted
    }
    offload_request request;
    request.id = next_request_id();
    request.user = next_user_;
    next_user_ = (next_user_ + 1) %
                 static_cast<user_id>(config_.user_population);
    request.work = source_(rng_);
    request.created_at = sim_.now();
    ++emitted_;
    sink_(request);
    schedule_arrival();
  });
}

}  // namespace mca::workload
