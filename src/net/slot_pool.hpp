// Values parked under a small integer handle until taken back.
//
// The simulator keeps queued tasks here and the network keeps messages in
// flight here, so an event's heap key or closure carries a 4-byte slot
// instead of the value itself.  Freed slots are reused, so once the pool
// has grown to a run's peak, put/take allocate nothing.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace edr::net {

template <typename T>
class SlotPool {
 public:
  /// Park `value`; returns its slot.
  std::uint32_t put(T value) {
    if (free_.empty()) {
      values_.push_back(std::move(value));
      return static_cast<std::uint32_t>(values_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    values_[slot] = std::move(value);
    return slot;
  }

  /// Move the value out of `slot` and free the slot for reuse.
  T take(std::uint32_t slot) {
    T value = std::move(values_[slot]);
    free_.push_back(slot);
    return value;
  }

 private:
  std::vector<T> values_;
  std::vector<std::uint32_t> free_;
};

}  // namespace edr::net
