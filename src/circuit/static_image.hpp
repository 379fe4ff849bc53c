// Cached static matrix images, shared by SparseEngine and BatchEngine
// (DESIGN.md §10, §14).
//
// The static half of an assembled MNA system (linear devices, the
// stamp_static() part of nonlinear ones, the gmin ground diagonal) is
// restamped at every solve point because its right-hand side carries
// device history and source values. Its matrix values do not change with
// either: a static matrix stamp reads only capacitances, resistances,
// incidences, the step size, the integrator and gmin. For a circuit whose
// element values stay fixed, the static matrix image is therefore a pure
// function of (dt, integrator, ctx.gmin, gmin_ground), and only a few such
// keys recur in a transient (the base step, its grown multiples, BE after
// a breakpoint); landing steps are one-off keys.
//
// StaticImageCache keeps the last kCapacity images an engine stamped. On a
// hit the engine reuses the image and restamps the right-hand side alone;
// on a miss it restamps everything, as before, into a fresh entry. Hits
// reproduce the miss image bit for bit, because an image is only ever
// produced by the full restamp: the same adds in the same order.
//
// Keys compare bit patterns, never with a tolerance: two steps that differ
// by one ulp are two images.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/device.hpp"

namespace ecms::circuit {

/// Everything a static matrix image depends on besides the circuit's
/// element values, as exact bits.
struct StaticImageKey {
  std::uint64_t dt = 0;
  std::uint64_t gmin = 0;         ///< StampContext::gmin
  std::uint64_t gmin_ground = 0;  ///< the ground-diagonal term
  Integrator method = Integrator::kTrapezoidal;

  static StaticImageKey of(const StampContext& ctx, double gmin_ground) {
    return {std::bit_cast<std::uint64_t>(ctx.dt),
            std::bit_cast<std::uint64_t>(ctx.gmin),
            std::bit_cast<std::uint64_t>(gmin_ground), ctx.method};
  }
  bool operator==(const StaticImageKey&) const = default;
};

/// A fixed-capacity, least-recently-used set of static matrix images of one
/// length. Single-threaded, like the engines that own it.
class StaticImageCache {
 public:
  static constexpr std::size_t kCapacity = 8;

  /// Drops every image; images stamped from now on hold `image_size`
  /// doubles. Keeps the allocated storage.
  void clear(std::size_t image_size);

  /// The image stored under `key`, or null. Counts a hit or a miss.
  const double* find(const StaticImageKey& key);
  /// Zero-filled storage for the image of `key`: a free entry, else the
  /// least recently used one. The caller stamps it before the next find().
  double* insert(const StaticImageKey& key);

  /// Rewrites every stored image in place through fn(image) and sets the
  /// size of the images stamped from now on, at most the current one: for
  /// an owner whose image layout shrinks (the batch engine repacking its
  /// SoA images to fewer lanes). Keys, recency and counts are kept.
  template <class Fn>
  void repack(std::size_t image_size, Fn&& fn) {
    for (std::size_t i = 0; i < used_; ++i) fn(entries_[i].image.data());
    image_size_ = image_size;
  }

  std::size_t size() const { return used_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    StaticImageKey key;
    std::uint64_t last_use = 0;
    std::vector<double> image;
  };
  std::array<Entry, kCapacity> entries_;
  std::size_t used_ = 0;
  std::size_t image_size_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0;
};

/// How an engine restamps a device without going through its virtual
/// stamp: MOSFETs and capacitors through their templated stamp bodies (or,
/// in the batch engine, their SoA history), every other device through the
/// verifying ReplayTape.
enum class DeviceKind : std::uint8_t { kMosfet, kCapacitor, kGeneric };

/// The exact type of `d` (a subclass of Mosfet or Capacitor is generic).
DeviceKind device_kind(const Device& d);

}  // namespace ecms::circuit
