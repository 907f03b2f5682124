#include "net/event_queue.h"

#include <utility>

#include "util/check.h"

namespace sensord {

// 4-ary implicit heap: half the depth of a binary heap and the four children
// share cache lines, which matters because sift operations dominate the
// queue's cost at simulation scale.
void EventQueue::SiftUp(size_t i) {
  HeapItem item = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Later(heap_[parent], item)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = item;
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  HeapItem item = heap_[i];
  for (;;) {
    const size_t first = 4 * i + 1;
    if (first >= n) break;
    size_t best = first;
    const size_t end = first + 4 < n ? first + 4 : n;
    for (size_t c = first + 1; c < end; ++c) {
      if (Later(heap_[best], heap_[c])) best = c;
    }
    if (!Later(item, heap_[best])) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = item;
}

void EventQueue::ScheduleAt(SimTime t, std::function<void()> fn) {
  SENSORD_DCHECK_GE(t, now_);
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  }
  heap_.push_back(HeapItem{t, next_seq_++, slot});
  SiftUp(heap_.size() - 1);
}

void EventQueue::ScheduleAfter(SimTime delay, std::function<void()> fn) {
  SENSORD_DCHECK_GE(delay, 0.0);
  ScheduleAt(now_ + delay, std::move(fn));
}

void EventQueue::RunOne() {
  SENSORD_DCHECK(!heap_.empty());
  const HeapItem top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
  // Move the callback out before firing: the callback may schedule new
  // events, which can reuse or grow the slot pool.
  std::function<void()> fn = std::move(slots_[top.slot]);
  slots_[top.slot] = nullptr;
  free_slots_.push_back(top.slot);
  now_ = top.time;
  fn();
}

uint64_t EventQueue::RunUntil(SimTime until) {
  uint64_t fired = 0;
  while (!heap_.empty() && heap_.front().time <= until) {
    RunOne();
    ++fired;
  }
  if (now_ < until) now_ = until;
  return fired;
}

uint64_t EventQueue::RunAll() {
  uint64_t fired = 0;
  while (!heap_.empty()) {
    RunOne();
    ++fired;
  }
  return fired;
}

}  // namespace sensord
