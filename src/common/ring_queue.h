// Allocation-free containers for the simulator's hot path. Both grow to the
// run's high-water mark and then reuse their storage, so steady-state
// traffic through them allocates nothing:
//   - RingQueue<T>: a FIFO on a power-of-two circular buffer (std::deque
//     frees and reallocates a block every few hundred push/pop pairs).
//   - SlotPool<T>: a free-list slab of records addressed by a 32-bit index,
//     so a closure can carry `this` plus an index instead of the record.
// T must be default-constructible and move-assignable. A RingQueue element
// popped off the front is reset to T{}, so it drops what it held (e.g. a
// callback's captures). A released SlotPool record is not reset: callers move
// out every member that owns something (a callback) before Release, and
// overwrite the whole record after Acquire.
#ifndef SRC_COMMON_RING_QUEUE_H_
#define SRC_COMMON_RING_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace bsched {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }
  // i-th element from the front (0 == front()).
  T& operator[](size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  const T& operator[](size_t i) const { return buf_[(head_ + i) & (buf_.size() - 1)]; }

  void push_back(T value) {
    if (size_ == buf_.size()) {
      Grow();
    }
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  // Inserts before the i-th element (i == size() appends); O(size() - i).
  void Insert(size_t i, T value) {
    push_back(std::move(value));
    for (size_t j = size_ - 1; j > i; --j) {
      std::swap((*this)[j], (*this)[j - 1]);
    }
  }

  void pop_front() {
    buf_[head_] = T{};
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  void Grow() {
    std::vector<T> next(buf_.empty() ? 8 : 2 * buf_.size());
    for (size_t i = 0; i < size_; ++i) {
      next[i] = std::move((*this)[i]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
};

template <typename T>
class SlotPool {
 public:
  // Index of a record to overwrite: fresh, or as its last holder released
  // it. References to other records stay valid: the slab is a std::deque,
  // which never moves an element (a std::vector slab measured faster but
  // grew peak memory, EXPERIMENTS.md "Event entry: 16 bytes").
  uint32_t Acquire() {
    if (free_.empty()) {
      items_.emplace_back();
      return static_cast<uint32_t>(items_.size() - 1);
    }
    const uint32_t id = free_.back();
    free_.pop_back();
    return id;
  }

  T& operator[](uint32_t id) { return items_[id]; }
  const T& operator[](uint32_t id) const { return items_[id]; }

  // Returns the record to the free list unreset (see the header comment).
  void Release(uint32_t id) { free_.push_back(id); }

  // Records currently acquired.
  size_t live() const { return items_.size() - free_.size(); }

 private:
  std::deque<T> items_;
  std::vector<uint32_t> free_;
};

}  // namespace bsched

#endif  // SRC_COMMON_RING_QUEUE_H_
