// Batched multi-query evaluation: the engine-side sharing pieces behind the
// server's POST /query_batch endpoint. Concurrent queries over the same
// fragment space share most of their physical work — term-dictionary lookups,
// posting decodes, and scan-filter evaluation — yet a sequential Evaluate
// loop pays all of it once per query. This module shares that work across
// the items of one batch while keeping every item's answers AND operator
// metrics byte-identical to what a sequential evaluation would produce:
//
//  * ScanMemo memoizes kScanKeyword results within a batch, keyed by the
//    canonical (document, folded term, filter) triple — the normalized form
//    of the scan sub-plan. A hit replays the stored FragmentSet together
//    with the scan's exact filter_evals/filter_rejections deltas, which is
//    sound because scan metrics depend only on the postings and the filter,
//    never on execution order or cache state (scans are never cached by the
//    FixedPointCache today, so a sequential run always pays them in full).
//
//  * GroupQueriesByTerms partitions a batch into term-connected groups
//    (union-find over case-folded terms). Items inside a group run
//    sequentially in submission order, so shared mutable state (the
//    fixed-point cache, the result cache) evolves exactly as it would under
//    sequential requests; groups touch disjoint term sets, hence disjoint
//    cache keys, so *groups* are safe to run in parallel. The one observable
//    caveat: LRU eviction order of an at-capacity cache can differ when
//    groups interleave — entries kept/evicted may vary, results never do.
//
// The server's batch handler drives both: one ScanMemo per group of two or
// more items, handed to each evaluation through ExecutorOptions::scan_memo.

#ifndef XFRAG_QUERY_BATCH_H_
#define XFRAG_QUERY_BATCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "algebra/fragment_set.h"
#include "query/query.h"

namespace xfrag::query {

/// \brief Batch-scoped memo of keyword-scan results.
///
/// Not synchronized: one memo belongs to exactly one term-connected group,
/// and a group runs on one thread. A memo may span several documents — the
/// document index participates in the key via Key().
class ScanMemo {
 public:
  struct Entry {
    algebra::FragmentSet result;
    /// Exact metric deltas the original scan charged, replayed on a hit so
    /// memoized metrics match sequential evaluation bit-for-bit.
    uint64_t filter_evals = 0;
    uint64_t filter_rejections = 0;
  };

  /// \brief Canonical key for a scan of `term` under `filter_text` against
  /// document `document_index`. The term is case-folded (the index folds at
  /// lookup, so scans differing only by case are the same scan).
  static std::string Key(size_t document_index, std::string_view term,
                         const std::string& filter_text);

  /// Returns the memoized entry, or nullptr. Counts a hit or a miss.
  const Entry* Find(const std::string& key);

  /// Memoizes `entry` under `key` (first writer wins).
  void Insert(std::string key, Entry entry);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<std::string, Entry> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// \brief Partitions batch items into term-connected groups.
///
/// Two queries that share any case-folded term land in the same group (the
/// transitive closure: {a,b}, {b,c}, {c,d} is one group). Each group lists
/// item indices in ascending submission order; groups are ordered by their
/// smallest member. Items in distinct groups have disjoint term sets and may
/// evaluate concurrently without observing each other through the scan memo,
/// the fixed-point cache, or the result cache.
std::vector<std::vector<size_t>> GroupQueriesByTerms(
    const std::vector<const Query*>& queries);

}  // namespace xfrag::query

#endif  // XFRAG_QUERY_BATCH_H_
