#include "core/predictor.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mca::core {

const char* to_string(prediction_mode m) noexcept {
  switch (m) {
    case prediction_mode::successor: return "successor";
    case prediction_mode::match: return "match";
  }
  return "unknown";
}

void workload_predictor::set_history(std::vector<trace::time_slot> history) {
  history_ = std::move(history);
}

void workload_predictor::observe(trace::time_slot slot) {
  history_.push_back(std::move(slot));
}

std::optional<std::size_t> workload_predictor::nearest_index(
    const trace::time_slot& current) const {
  if (history_.empty()) return std::nullopt;
  std::size_t best = 0;
  std::size_t best_distance = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < history_.size(); ++i) {
    const std::size_t d = trace::slot_distance(current, history_[i]);
    // Ties resolve to the most recent slot: recent behaviour is the better
    // template for what follows.
    if (d <= best_distance) {
      best_distance = d;
      best = i;
    }
  }
  return best;
}

std::optional<trace::time_slot> workload_predictor::predict_next(
    const trace::time_slot& current) const {
  if (mode_ == prediction_mode::match) {
    const auto nearest = nearest_index(current);
    if (!nearest) return std::nullopt;
    return history_[*nearest];
  }
  if (history_.size() < 2) return std::nullopt;
  // successor mode: the slot that followed the best match — restricted to
  // matches that *have* a successor, so the freshest slot (whose future is
  // unknown) does not shadow an equally good earlier match.
  std::size_t best = history_.size();
  std::size_t best_distance = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i + 1 < history_.size(); ++i) {
    const std::size_t d = trace::slot_distance(current, history_[i]);
    if (d <= best_distance) {
      best_distance = d;
      best = i;
    }
  }
  if (best + 1 < history_.size() &&
      best_distance <= trace::slot_distance(current, history_.back())) {
    return history_[best + 1];
  }
  // The newest slot is the strictly better match: persistence forecast.
  return history_.back();
}

std::optional<std::vector<std::size_t>> workload_predictor::predict_counts(
    const trace::time_slot& current) const {
  const auto slot = predict_next(current);
  if (!slot) return std::nullopt;
  return slot->group_counts();
}

double prediction_accuracy(std::span<const std::size_t> predicted,
                           std::span<const std::size_t> actual) {
  if (predicted.size() != actual.size()) {
    throw std::invalid_argument{"prediction_accuracy: size mismatch"};
  }
  if (predicted.empty()) {
    throw std::invalid_argument{"prediction_accuracy: no groups"};
  }
  double total = 0.0;
  for (std::size_t g = 0; g < predicted.size(); ++g) {
    const double p = static_cast<double>(predicted[g]);
    const double a = static_cast<double>(actual[g]);
    const double denom = std::max({p, a, 1.0});
    total += 1.0 - std::abs(p - a) / denom;
  }
  return total / static_cast<double>(predicted.size());
}

std::optional<double> walk_forward_accuracy(
    std::span<const trace::time_slot> history, std::size_t knowledge_size,
    prediction_mode mode) {
  if (knowledge_size < 2 || knowledge_size >= history.size()) {
    return std::nullopt;
  }
  workload_predictor predictor{mode};
  predictor.set_history({history.begin(),
                         history.begin() + static_cast<std::ptrdiff_t>(
                                               knowledge_size)});
  double total = 0.0;
  std::size_t scored = 0;
  for (std::size_t i = knowledge_size - 1; i + 1 < history.size(); ++i) {
    const auto counts = predictor.predict_counts(history[i]);
    if (!counts) continue;
    total += prediction_accuracy(*counts, history[i + 1].group_counts());
    ++scored;
  }
  if (scored == 0) return std::nullopt;
  return total / static_cast<double>(scored);
}

cross_validation_result cross_validate(
    std::span<const trace::time_slot> history, std::size_t folds,
    prediction_mode mode) {
  if (folds < 2) throw std::invalid_argument{"cross_validate: folds < 2"};
  if (history.size() < folds + 1) {
    throw std::invalid_argument{"cross_validate: history shorter than folds"};
  }
  cross_validation_result result;
  const std::size_t fold_length = history.size() / folds;
  for (std::size_t f = 0; f < folds; ++f) {
    const std::size_t lo = f * fold_length;
    const std::size_t hi =
        (f + 1 == folds) ? history.size() : lo + fold_length;
    // Knowledge base: everything outside [lo, hi).
    std::vector<trace::time_slot> knowledge;
    knowledge.reserve(history.size() - (hi - lo));
    for (std::size_t i = 0; i < history.size(); ++i) {
      if (i < lo || i >= hi) knowledge.push_back(history[i]);
    }
    workload_predictor predictor{mode};
    predictor.set_history(std::move(knowledge));

    double total = 0.0;
    std::size_t scored = 0;
    for (std::size_t i = lo; i + 1 < hi; ++i) {
      const auto counts = predictor.predict_counts(history[i]);
      if (!counts) continue;
      total += prediction_accuracy(*counts, history[i + 1].group_counts());
      ++scored;
    }
    if (scored > 0) {
      result.fold_accuracy.push_back(total / static_cast<double>(scored));
    }
  }
  if (result.fold_accuracy.empty()) {
    throw std::invalid_argument{"cross_validate: folds too short to score"};
  }
  double sum = 0.0;
  for (double a : result.fold_accuracy) sum += a;
  result.mean_accuracy = sum / static_cast<double>(result.fold_accuracy.size());
  return result;
}

}  // namespace mca::core
