// A response_sink fake for SDN pipeline tests: records every response and
// every trace-point call, each with the simulated time it arrived.
#pragma once

#include <cstddef>
#include <vector>

#include "core/sdn_accelerator.h"
#include "sim/simulation.h"

namespace mca::test {

class recording_sink final : public core::response_sink {
 public:
  struct response {
    workload::offload_request request;
    core::request_timing timing;
    group_id group = 0;
    util::time_ms at = 0.0;
  };
  struct trace {
    workload::offload_request request;
    group_id group = 0;
    util::time_ms logged_at = 0.0;
    util::time_ms at = 0.0;
  };

  explicit recording_sink(const sim::simulation& sim) : sim_{sim} {}

  void on_response(const workload::offload_request& request,
                   const core::request_timing& timing,
                   group_id group) override {
    responses.push_back({request, timing, group, sim_.now()});
  }
  void on_trace(const workload::offload_request& request, group_id group,
                util::time_ms logged_at) override {
    traces.push_back({request, group, logged_at, sim_.now()});
  }

  /// Responses that arrived as successes / as failure notices.
  std::size_t successes() const noexcept {
    std::size_t n = 0;
    for (const response& r : responses) n += r.timing.success ? 1 : 0;
    return n;
  }
  std::size_t failures() const noexcept {
    return responses.size() - successes();
  }

  std::vector<response> responses;
  std::vector<trace> traces;

 private:
  const sim::simulation& sim_;
};

}  // namespace mca::test
