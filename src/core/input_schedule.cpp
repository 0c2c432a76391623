#include "src/core/input_schedule.hpp"

#include <algorithm>
#include <cassert>

namespace nsc::core {

void InputSchedule::finalize() {
  const std::size_t old_size = sorted_;
  if (old_size == events_.size()) return;
  const auto mid = events_.begin() + static_cast<std::ptrdiff_t>(old_size);
  std::sort(mid, events_.end());
  // First position whose content may change: the tail's smallest event goes
  // there. Appends past the sorted prefix (the streaming case) need no merge.
  std::size_t first = old_size;
  if (old_size != 0 && *mid < events_[old_size - 1]) {
    first = static_cast<std::size_t>(std::lower_bound(events_.begin(), mid, *mid) -
                                     events_.begin());
    std::inplace_merge(events_.begin() + static_cast<std::ptrdiff_t>(first), mid, events_.end());
  }
  // Duplicates can only sit at or after the event before `first`.
  const std::size_t from = first == 0 ? 0 : first - 1;
  events_.erase(std::unique(events_.begin() + static_cast<std::ptrdiff_t>(from), events_.end()),
                events_.end());
  sorted_ = events_.size();
  assert(events_.front().tick >= 0);

  // Rebuild offsets_[t] (the first event index at tick >= t) only from the
  // first tick whose entry can differ: the first changed event's tick, or
  // the old end of the index if the new events all land past it. Entries
  // below that tick point into the unchanged prefix.
  const Tick last = events_.back().tick;
  const Tick old_end = offsets_.empty() ? 0 : static_cast<Tick>(offsets_.size()) - 1;
  const Tick t0 = first < events_.size() ? std::min(events_[first].tick, old_end) : old_end;
  offsets_.resize(static_cast<std::size_t>(last + 2));
  std::size_t e = static_cast<std::size_t>(
      std::lower_bound(events_.begin(), events_.end(), t0,
                       [](const InputSpike& s, Tick t) { return s.tick < t; }) -
      events_.begin());
  for (Tick t = t0; t <= last; ++t) {
    offsets_[static_cast<std::size_t>(t)] = e;
    while (e < events_.size() && events_[e].tick == t) ++e;
  }
  offsets_[static_cast<std::size_t>(last + 1)] = events_.size();
}

std::span<const InputSpike> InputSchedule::at(Tick tick) const {
  assert(sorted_ == events_.size());
  if (tick < 0 || static_cast<std::size_t>(tick) + 1 >= offsets_.size()) return {};
  const std::size_t b = offsets_[static_cast<std::size_t>(tick)];
  const std::size_t f = offsets_[static_cast<std::size_t>(tick) + 1];
  return {events_.data() + b, f - b};
}

Tick InputSchedule::last_tick() const noexcept {
  return events_.empty() ? -1 : events_.back().tick;
}

}  // namespace nsc::core
