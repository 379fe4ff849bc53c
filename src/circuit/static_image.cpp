#include "circuit/static_image.hpp"

#include <typeinfo>

#include "circuit/mosfet.hpp"
#include "circuit/passive.hpp"

namespace ecms::circuit {

void StaticImageCache::clear(std::size_t image_size) {
  used_ = 0;
  image_size_ = image_size;
}

const double* StaticImageCache::find(const StaticImageKey& key) {
  for (std::size_t i = 0; i < used_; ++i) {
    Entry& e = entries_[i];
    if (e.key == key) {
      e.last_use = ++clock_;
      ++hits_;
      return e.image.data();
    }
  }
  ++misses_;
  return nullptr;
}

double* StaticImageCache::insert(const StaticImageKey& key) {
  Entry* e = nullptr;
  if (used_ < kCapacity) {
    e = &entries_[used_++];
  } else {
    e = &entries_[0];
    for (Entry& cand : entries_) {
      if (cand.last_use < e->last_use) e = &cand;
    }
  }
  e->key = key;
  e->last_use = ++clock_;
  e->image.assign(image_size_, 0.0);
  return e->image.data();
}

DeviceKind device_kind(const Device& d) {
  if (typeid(d) == typeid(Mosfet)) return DeviceKind::kMosfet;
  if (typeid(d) == typeid(Capacitor)) return DeviceKind::kCapacitor;
  return DeviceKind::kGeneric;
}

}  // namespace ecms::circuit
