// Demand-zero storage for large, mostly untouched buffers.
//
// A ZeroBuffer<T> of n elements is one fresh anonymous mapping, which the
// kernel backs with zero pages on first touch: it costs neither the memset
// nor the resident pages of a std::vector<T>(n) until something writes
// them. Its size is fixed at construction; there is no resize, so no
// element ever comes back holding old bytes instead of zeros. Only for
// trivial T.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <new>
#include <type_traits>

namespace sc::util {

template <typename T>
class ZeroBuffer {
  static_assert(std::is_trivial_v<T>, "demand-zero storage needs trivial T");

 public:
  explicit ZeroBuffer(size_t n) : size_(n) {
    if (n == 0) return;
    void* p = mmap(nullptr, MapBytes(n), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
  }
  ~ZeroBuffer() {
    if (data_ != nullptr) munmap(data_, MapBytes(size_));
  }
  ZeroBuffer(const ZeroBuffer&) = delete;
  ZeroBuffer& operator=(const ZeroBuffer&) = delete;

  size_t size() const { return size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  static size_t MapBytes(size_t n) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    return (n * sizeof(T) + page - 1) / page * page;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace sc::util
