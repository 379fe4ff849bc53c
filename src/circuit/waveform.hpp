// Recorded transient traces and measurements on them.
#pragma once

#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace ecms::circuit {

/// A multi-channel time series produced by the transient solver.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<std::string> channel_names);

  std::size_t channel_count() const { return names_.size(); }
  std::size_t sample_count() const { return times_.size(); }
  const std::vector<std::string>& channel_names() const { return names_; }
  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& channel(std::size_t i) const;
  /// Channel lookup by name; throws ecms::MeasureError if absent.
  const std::vector<double>& channel(const std::string& name) const;
  std::size_t channel_index(const std::string& name) const;

  /// Appends one sample row; values arity must match channel_count().
  /// Takes any contiguous row (a reused buffer, a fixed array) or a
  /// braced list, so recording a sample allocates nothing per row.
  void append(double t, std::span<const double> values);
  void append(double t, std::initializer_list<double> values) {
    append(t, std::span<const double>(values.begin(), values.size()));
  }

  /// Linear interpolation of a channel at time t (clamped at the ends).
  double value_at(std::size_t chan, double t) const;
  double value_at(const std::string& chan, double t) const;

  /// Last recorded value of a channel.
  double final_value(std::size_t chan) const;
  double final_value(const std::string& chan) const;

 private:
  std::vector<std::string> names_;
  std::vector<double> times_;
  std::vector<std::vector<double>> data_;  // per channel
};

/// Edge direction for crossing searches.
enum class Edge { kRising, kFalling, kEither };

/// First time a channel crosses `level` (with the requested edge) at or after
/// `t_from`; interpolated linearly within the straddling interval.
std::optional<double> first_crossing(const Trace& trace, std::size_t chan,
                                     double level, Edge edge,
                                     double t_from = 0.0);
std::optional<double> first_crossing(const Trace& trace,
                                     const std::string& chan, double level,
                                     Edge edge, double t_from = 0.0);

/// Min/max of a channel over [t_from, t_to].
double channel_min(const Trace& trace, std::size_t chan, double t_from,
                   double t_to);
double channel_max(const Trace& trace, std::size_t chan, double t_from,
                   double t_to);

}  // namespace ecms::circuit
