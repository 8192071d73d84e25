// A small open-addressed hash table (linear probing, power-of-two capacity,
// backward-shift deletion) for the softcache's hot lookup paths.
//
// The resolve path of the cache controller performs a map lookup on every
// TCMISS and every invariant check; std::unordered_map pays a heap node per
// entry and a modulo per probe. This table keeps all slots in one flat
// vector sized up front (the caller knows the worst case: blocks per tcache,
// cells per cell region), probes with a mask, and erases without tombstones
// so lookups never degrade over time. Not a general container: keys must be
// trivially copyable integers and values trivially destructible enough to
// move around (both true for the id/address maps it replaces).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.h"

namespace sc::util {

template <typename Key, typename Value>
class OpenTable {
 public:
  // `expected` is the anticipated number of live entries; the table is sized
  // so that holding `expected` keys stays under the resize load factor. It
  // still grows if the estimate is exceeded.
  explicit OpenTable(size_t expected = 16) {
    size_t capacity = 16;
    while (capacity * kMaxLoadNum < expected * kMaxLoadDen) capacity *= 2;
    slots_.resize(capacity);
    mask_ = capacity - 1;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Removes every entry in place; the slots keep their capacity.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  Value* Find(Key key) {
    size_t i = Probe(key);
    return slots_[i].full ? &slots_[i].value : nullptr;
  }
  const Value* Find(Key key) const {
    size_t i = Probe(key);
    return slots_[i].full ? &slots_[i].value : nullptr;
  }
  bool Contains(Key key) const { return Find(key) != nullptr; }

  // Returns the value for `key`, SC_CHECK-failing when absent (the
  // std::map::at contract the call sites relied on).
  const Value& At(Key key) const {
    const Value* v = Find(key);
    SC_CHECK(v != nullptr) << "OpenTable::At: missing key";
    return *v;
  }

  // Inserts or overwrites.
  void Put(Key key, Value value) {
    if ((size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum) Grow();
    size_t i = Probe(key);
    if (!slots_[i].full) {
      slots_[i].full = true;
      slots_[i].key = key;
      ++size_;
    }
    slots_[i].value = std::move(value);
  }

  // Removes `key` if present. Backward-shift deletion: subsequent displaced
  // entries in the probe chain are moved up so no tombstones accumulate.
  bool Erase(Key key) {
    size_t i = Probe(key);
    if (!slots_[i].full) return false;
    size_t hole = i;
    size_t j = (i + 1) & mask_;
    while (slots_[j].full) {
      const size_t home = Hash(slots_[j].key) & mask_;
      // Move slot j into the hole if its home position does not sit strictly
      // between the hole and j (cyclically) — the standard Robin-Hood /
      // backward-shift condition.
      const bool between = ((j - home) & mask_) >= ((j - hole) & mask_);
      if (between) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
      j = (j + 1) & mask_;
    }
    slots_[hole].full = false;
    slots_[hole].value = Value{};
    --size_;
    return true;
  }

  // Visits every (key, value) pair in unspecified (but deterministic) order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.full) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
    bool full = false;
  };

  // Resize threshold 7/8: probes stay short while wasting little memory.
  static constexpr size_t kMaxLoadNum = 7;
  static constexpr size_t kMaxLoadDen = 8;

  static size_t Hash(Key key) {
    // splitmix64 finalizer: cheap and well-distributed for the dense ids and
    // word-aligned addresses used as keys.
    uint64_t x = static_cast<uint64_t>(key);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }

  // Index of `key`'s slot if present, else of the empty slot to insert at.
  size_t Probe(Key key) const {
    size_t i = Hash(key) & mask_;
    while (slots_[i].full && slots_[i].key != key) i = (i + 1) & mask_;
    return i;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (Slot& slot : old) {
      if (slot.full) Put(slot.key, std::move(slot.value));
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace sc::util
