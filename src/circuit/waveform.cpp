#include "circuit/waveform.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ecms::circuit {

Trace::Trace(std::vector<std::string> channel_names)
    : names_(std::move(channel_names)), data_(names_.size()) {}

const std::vector<double>& Trace::channel(std::size_t i) const {
  ECMS_REQUIRE(i < data_.size(), "channel index out of range");
  return data_[i];
}

std::size_t Trace::channel_index(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return i;
  throw MeasureError("no trace channel named " + name);
}

const std::vector<double>& Trace::channel(const std::string& name) const {
  return data_[channel_index(name)];
}

void Trace::append(double t, std::span<const double> values) {
  ECMS_REQUIRE(values.size() == names_.size(), "trace sample arity mismatch");
  ECMS_REQUIRE(times_.empty() || t >= times_.back(),
               "trace times must be non-decreasing");
  times_.push_back(t);
  for (std::size_t i = 0; i < values.size(); ++i) data_[i].push_back(values[i]);
}

double Trace::value_at(std::size_t chan, double t) const {
  const auto& ys = channel(chan);
  ECMS_REQUIRE(!ys.empty(), "empty trace");
  if (t <= times_.front()) return ys.front();
  if (t >= times_.back()) return ys.back();
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const auto hi = static_cast<std::size_t>(it - times_.begin());
  const std::size_t lo = hi - 1;
  const double span = times_[hi] - times_[lo];
  if (span <= 0.0) return ys[hi];
  const double f = (t - times_[lo]) / span;
  return ys[lo] + f * (ys[hi] - ys[lo]);
}

double Trace::value_at(const std::string& chan, double t) const {
  return value_at(channel_index(chan), t);
}

double Trace::final_value(std::size_t chan) const {
  const auto& ys = channel(chan);
  ECMS_REQUIRE(!ys.empty(), "empty trace");
  return ys.back();
}

double Trace::final_value(const std::string& chan) const {
  return final_value(channel_index(chan));
}

std::optional<double> first_crossing(const Trace& trace, std::size_t chan,
                                     double level, Edge edge, double t_from) {
  const auto& t = trace.times();
  const auto& y = trace.channel(chan);
  for (std::size_t i = 1; i < y.size(); ++i) {
    if (t[i] < t_from) continue;
    const double a = y[i - 1], b = y[i];
    const bool rising = a < level && b >= level;
    const bool falling = a > level && b <= level;
    const bool hit = (edge == Edge::kRising && rising) ||
                     (edge == Edge::kFalling && falling) ||
                     (edge == Edge::kEither && (rising || falling));
    if (!hit) continue;
    const double denom = b - a;
    const double f = denom == 0.0 ? 0.0 : (level - a) / denom;
    const double tc = t[i - 1] + f * (t[i] - t[i - 1]);
    if (tc >= t_from) return tc;
  }
  return std::nullopt;
}

std::optional<double> first_crossing(const Trace& trace,
                                     const std::string& chan, double level,
                                     Edge edge, double t_from) {
  return first_crossing(trace, trace.channel_index(chan), level, edge, t_from);
}

namespace {
template <typename Cmp>
double extremum(const Trace& trace, std::size_t chan, double t_from,
                double t_to, Cmp cmp) {
  const auto& t = trace.times();
  const auto& y = trace.channel(chan);
  ECMS_REQUIRE(!y.empty(), "empty trace");
  bool found = false;
  double best = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (t[i] < t_from || t[i] > t_to) continue;
    if (!found || cmp(y[i], best)) {
      best = y[i];
      found = true;
    }
  }
  ECMS_REQUIRE(found, "no samples in the requested window");
  return best;
}
}  // namespace

double channel_min(const Trace& trace, std::size_t chan, double t_from,
                   double t_to) {
  return extremum(trace, chan, t_from, t_to, std::less<>());
}

double channel_max(const Trace& trace, std::size_t chan, double t_from,
                   double t_to) {
  return extremum(trace, chan, t_from, t_to, std::greater<>());
}

}  // namespace ecms::circuit
