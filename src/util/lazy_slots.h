// A fixed-size table of values built on first use, safe to fill from many
// threads at once.
//
// The routing tables are lazy on purpose: an Internet-sized topology cannot
// afford every per-destination column up front, and a run touches only the
// slots its probes cross. Lazy filling from a `const` lookup is a write
// under readers, though, so each slot publishes its value once through an
// atomic pointer: a reader of a filled slot pays one acquire load, and two
// threads that find the same slot empty both build it, one publishes, and
// the other frees its copy and returns the published one. The builder must
// therefore be deterministic — any thread's value must be the value.
//
// reset() and reset_all() free published values; they must not race get().
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>

#include "util/check.h"

namespace revtr::util {

template <typename T>
class LazySlots {
 public:
  explicit LazySlots(std::size_t size)
      : size_(size), slots_(std::make_unique<std::atomic<T*>[]>(size)) {
    for (std::size_t i = 0; i < size_; ++i) {
      slots_[i].store(nullptr, std::memory_order_relaxed);
    }
  }
  ~LazySlots() { reset_all(); }

  LazySlots(const LazySlots&) = delete;
  LazySlots& operator=(const LazySlots&) = delete;

  // Slot `index`, filled by `build(T&)` on a default-constructed T if empty.
  template <typename Build>
  const T& get(std::size_t index, Build&& build) const {
    REVTR_DCHECK(index < size_);
    if (const T* value = slots_[index].load(std::memory_order_acquire)) {
      return *value;
    }
    auto fresh = std::make_unique<T>();
    build(*fresh);
    T* expected = nullptr;
    if (slots_[index].compare_exchange_strong(expected, fresh.get(),
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      built_.fetch_add(1, std::memory_order_relaxed);
      return *fresh.release();
    }
    return *expected;  // Another thread published first; ours is dropped.
  }

  // Empties one slot; its next get() rebuilds it. Not safe under readers.
  void reset(std::size_t index) {
    REVTR_CHECK(index < size_);
    const std::unique_ptr<T> dropped(
        slots_[index].exchange(nullptr, std::memory_order_acq_rel));
  }

  // Empties every slot and zeroes built(). Not safe under readers.
  void reset_all() {
    for (std::size_t i = 0; i < size_; ++i) reset(i);
    built_.store(0, std::memory_order_relaxed);
  }

  // Values published since construction or the last reset_all().
  std::size_t built() const noexcept {
    return built_.load(std::memory_order_relaxed);
  }

 private:
  const std::size_t size_;
  const std::unique_ptr<std::atomic<T*>[]> slots_;
  mutable std::atomic<std::size_t> built_{0};
};

}  // namespace revtr::util
