#include "algebra/topk.h"

#include <algorithm>
#include <limits>

namespace xfrag::algebra {

double JoinScorer::QuickUpperBound(const JoinBounds&) const {
  return std::numeric_limits<double>::infinity();
}

bool TopKCollector::Offer(Fragment fragment, double score) {
  if (k_ == 0) return false;
  if (score < floor_) {
    // The floor promises k distinct answers at or above it exist globally,
    // so this candidate cannot be among the k best. Count it only when the
    // heap alone would have retained it (conservatively ignoring possible
    // duplication against a retained entry).
    bool heap_would_retain = heap_.size() < k_;
    if (!heap_would_retain) {
      const ScoredFragment& min = store_[heap_.front()];
      heap_would_retain =
          score > min.score || (score == min.score && fragment < min.fragment);
    }
    if (heap_would_retain) {
      ++floor_rejections_;
      if (score > max_floor_rejected_) max_floor_rejected_ = score;
    }
    return false;
  }
  ScoredFragment candidate{std::move(fragment), score};
  if (full() && !OutranksScored(candidate, store_[heap_.front()])) {
    // Beaten by (or equal to) the current minimum. Covers duplicates of the
    // minimum itself: a duplicate has the identical (score, fragment) key,
    // and OutranksScored is strict.
    return false;
  }
  // Duplicate of a retained non-minimum entry?
  auto chain = members_.find(candidate.fragment.Hash());
  if (chain != members_.end()) {
    for (uint32_t slot : chain->second) {
      if (store_[slot].fragment == candidate.fragment) return false;
    }
  }
  auto heap_less = [this](uint32_t a, uint32_t b) { return HeapLess(a, b); };
  uint32_t slot;
  if (full()) {
    // Evict the minimum and reuse its slot.
    std::pop_heap(heap_.begin(), heap_.end(), heap_less);
    slot = heap_.back();
    heap_.pop_back();
    ScoredFragment& evicted = store_[slot];
    auto evicted_chain = members_.find(evicted.fragment.Hash());
    auto& slots = evicted_chain->second;
    slots.erase(std::find(slots.begin(), slots.end(), slot));
    if (slots.empty()) members_.erase(evicted_chain);
    evicted = std::move(candidate);
  } else {
    slot = static_cast<uint32_t>(store_.size());
    store_.push_back(std::move(candidate));
  }
  members_[store_[slot].fragment.Hash()].push_back(slot);
  heap_.push_back(slot);
  std::push_heap(heap_.begin(), heap_.end(), heap_less);
  return true;
}

std::vector<ScoredFragment> TopKCollector::TakeSorted() {
  std::vector<ScoredFragment> out;
  out.reserve(heap_.size());
  for (uint32_t slot : heap_) out.push_back(std::move(store_[slot]));
  std::sort(out.begin(), out.end(), OutranksScored);
  store_.clear();
  heap_.clear();
  members_.clear();
  return out;
}

}  // namespace xfrag::algebra
