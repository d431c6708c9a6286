#include "algebra/ops.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "algebra/dag_cache.h"
#include "common/logging.h"
#include "common/strings.h"

namespace xfrag::algebra {

namespace {

std::atomic<bool> g_summary_prefilter_enabled{true};

void CountJoin(OpMetrics* metrics) {
  if (metrics != nullptr) {
    ++metrics->fragment_joins;
    ++metrics->fragments_produced;
  }
}

// Reusable scratch buffers for the join kernels: one per kernel invocation
// lets every join reuse the same grown-once vectors for path extraction and
// merging instead of allocating fresh ones per pair. The produced fragment
// still owns a fresh exact-size node vector.
struct JoinArena {
  // Operand nodes merged (sorted, possibly with cross-operand duplicates).
  std::vector<NodeId> merged;
  // Connecting-path nodes, sorted ascending.
  std::vector<NodeId> paths;
};

// Definition 4 with caller-owned scratch buffers (the kernels' form of Join).
Fragment JoinWithArena(const Document& document, const Fragment& f1,
                       const Fragment& f2, JoinArena* arena,
                       OpMetrics* metrics) {
  CountJoin(metrics);
  // Absorption fast paths (f1 ⋈ f2 = f1 when f2 ⊆ f1).
  if (f1.ContainsFragment(f2)) return f1;
  if (f2.ContainsFragment(f1)) return f2;
  NodeId r1 = f1.root();
  NodeId r2 = f2.root();
  NodeId lca = document.Lca(r1, r2);
  // Operand nodes as one sorted run (cross-operand duplicates possible).
  arena->merged.clear();
  arena->merged.reserve(f1.size() + f2.size());
  std::merge(f1.nodes().begin(), f1.nodes().end(), f2.nodes().begin(),
             f2.nodes().end(), std::back_inserter(arena->merged));
  // Connecting paths r1→lca and r2→lca. Walking parents yields descending
  // pre-order, so each run is reversed into ascending order in place.
  arena->paths.clear();
  for (NodeId n = r1;; n = document.parent(n)) {
    arena->paths.push_back(n);
    if (n == lca) break;
  }
  std::reverse(arena->paths.begin(), arena->paths.end());
  const size_t mid = arena->paths.size();
  for (NodeId n = r2;; n = document.parent(n)) {
    arena->paths.push_back(n);
    if (n == lca) break;
  }
  std::reverse(arena->paths.begin() + mid, arena->paths.end());
  // Three-way merge-with-dedup of the sorted runs straight into the result —
  // no re-sort, and the only allocation is the fragment's own exact vector.
  const NodeId* a = arena->paths.data();
  const NodeId* ae = a + mid;
  const NodeId* b = arena->paths.data() + mid;
  const NodeId* be = arena->paths.data() + arena->paths.size();
  const std::vector<NodeId>& m = arena->merged;
  std::vector<NodeId> out;
  out.reserve(m.size() + arena->paths.size());
  size_t im = 0;
  while (im < m.size() || a != ae || b != be) {
    NodeId v = doc::kNoNode;  // kNoNode = max uint32, never a member id.
    if (im < m.size()) v = std::min(v, m[im]);
    if (a != ae) v = std::min(v, *a);
    if (b != be) v = std::min(v, *b);
    if (im < m.size() && m[im] == v) {
      ++im;
    } else if (a != ae && *a == v) {
      ++a;
    } else {
      ++b;
    }
    if (out.empty() || out.back() != v) out.push_back(v);
  }
  // Path nodes are ancestors of the operand roots, so the deepest member of
  // the join is the deepest operand member — the summary is O(1) complete.
  uint32_t max_depth = std::max(f1.MaxDepth(document), f2.MaxDepth(document));
  return Fragment::FromSortedUnchecked(std::move(out), max_depth);
}

// `pairs` rejected from their summary bounds count exactly like joins whose
// results failed the filter — the logical counters stay invariant under the
// prefilter — plus the prefilter counter recording the avoided work.
void CountPrefilterRejectedJoins(OpMetrics* metrics, uint64_t pairs = 1) {
  if (metrics != nullptr) {
    metrics->fragment_joins += pairs;
    metrics->fragments_produced += pairs;
    metrics->filter_evals += pairs;
    metrics->filter_rejections += pairs;
    metrics->pairs_rejected_summary += pairs;
  }
}

// Root windows (docs/ALGEBRA.md, "Root windows"): for the current row f1 and
// each root depth d2 present in set2, the pre-order interval of root(f1)'s
// ancestor at depth L = filter.MinJoinRootDepth(s1, d2). A partner rooted at
// depth d2 outside that interval has an LCA with root(f1) shallower than L,
// so RejectsJoinBounds would reject the pair; the kernels count it as
// summary-rejected after one unsigned compare, with no LCA and no bounds.
// Scratch is sized once per kernel call; SetRow allocates nothing.
class RootWindows {
 public:
  RootWindows(const Document& document,
              const std::vector<FragmentSummary>& sums1,
              const std::vector<FragmentSummary>& sums2)
      : document_(document) {
    uint32_t max_depth2 = 0;
    for (const FragmentSummary& s : sums2) {
      max_depth2 = std::max(max_depth2, s.root_depth);
    }
    constexpr uint32_t kNoSlot = ~uint32_t{0};
    std::vector<uint32_t> slot_of_depth(max_depth2 + 1, kNoSlot);
    partners_.reserve(sums2.size());
    for (const FragmentSummary& s : sums2) {
      uint32_t& slot = slot_of_depth[s.root_depth];
      if (slot == kNoSlot) {
        slot = static_cast<uint32_t>(depths_.size());
        depths_.push_back(s.root_depth);
      }
      partners_.push_back(Partner{s.root, slot});
    }
    limits_.resize(depths_.size());
    windows_.resize(depths_.size());
    uint32_t max_depth1 = 0;
    for (const FragmentSummary& s : sums1) {
      max_depth1 = std::max(max_depth1, s.root_depth);
    }
    ancestors_.resize(max_depth1 + 1);
  }

  // Recomputes every window for the row whose f1 has summary `s1`.
  void SetRow(const Filter& filter, const FragmentSummary& s1) {
    const uint32_t d1 = s1.root_depth;
    // One climb from root(f1) up to the shallowest depth any window needs.
    uint32_t shallowest = d1;
    for (size_t k = 0; k < depths_.size(); ++k) {
      limits_[k] = filter.MinJoinRootDepth(s1, depths_[k]);
      if (limits_[k] > 0) shallowest = std::min(shallowest, limits_[k]);
    }
    NodeId node = s1.root;
    for (uint32_t d = d1;; --d) {
      ancestors_[d] = node;
      if (d <= shallowest) break;
      node = document_.parent(node);
    }
    for (size_t k = 0; k < depths_.size(); ++k) {
      const uint32_t limit = limits_[k];
      if (limit == 0) {
        windows_[k] = Window{0, static_cast<uint32_t>(document_.size())};
      } else if (limit > d1) {
        windows_[k] = Window{0, 0};  // Every LCA is shallower: all rejected.
      } else {
        const NodeId a = ancestors_[limit];
        windows_[k] = Window{a, document_.subtree_size(a)};
      }
    }
  }

  // True when partner j's root lies outside its window for the current row.
  bool Outside(size_t j) const {
    const Partner& p = partners_[j];
    const Window& w = windows_[p.slot];
    return p.root - w.lo >= w.width;  // Unsigned: below lo wraps high.
  }

 private:
  struct Partner {
    NodeId root;
    uint32_t slot;  // Index of the partner's root depth in depths_.
  };
  struct Window {
    NodeId lo;
    uint32_t width;  // Subtree size of the window's ancestor; 0 = empty.
  };

  const Document& document_;
  std::vector<Partner> partners_;  // Parallel to set2.
  std::vector<uint32_t> depths_;   // Distinct root depths present in set2.
  std::vector<uint32_t> limits_;   // MinJoinRootDepth per depth slot.
  std::vector<Window> windows_;    // Per depth slot, for the current row.
  std::vector<NodeId> ancestors_;  // root(f1)'s ancestors, by depth.
};

bool PassesFilter(const Fragment& f, const FilterPtr& filter,
                  const FilterContext& context, OpMetrics* metrics) {
  if (metrics != nullptr) ++metrics->filter_evals;
  bool ok = filter->Matches(f, context);
  if (!ok && metrics != nullptr) ++metrics->filter_rejections;
  return ok;
}

std::vector<FragmentSummary> SummarizeSet(const FragmentSet& set,
                                          const Document& document) {
  std::vector<FragmentSummary> out;
  out.reserve(set.size());
  for (const Fragment& f : set) out.push_back(f.Summary(document));
  return out;
}

// Per-invocation state of the class-aware (DAG-compressed) join path: the
// local-form interner plus parallel form/anchor arrays for both operand
// sets. FixedPointFiltered keeps one alive across its iterations so cached
// outcomes survive from round to round.
struct DagJoinState {
  DagJoinState(const Document& document, const doc::SubtreeClassIndex& dag)
      : forms(document, dag) {}
  DagFormTable forms;
  DagOutcomeMap outcomes;
  std::vector<uint32_t> forms1, forms2;
  std::vector<NodeId> anchors1, anchors2;

  void InternSets(const FragmentSet& set1, const FragmentSet& set2) {
    forms.InternSet(set1, &forms1, &anchors1);
    forms.InternSet(set2, &forms2, &anchors2);
  }

  // The pair (i, j) is cacheable iff both fragments have a local form and
  // share one duplication anchor (i.e. live in the same occurrence); the
  // outcome then transfers to every other occurrence of the anchor's class.
  bool PairCacheable(size_t i, size_t j, uint64_t* key) const {
    if (forms1[i] == kNoLocalForm || forms2[j] == kNoLocalForm ||
        anchors1[i] != anchors2[j]) {
      return false;
    }
    *key = DagPairKey(forms1[i], forms2[j]);
    return true;
  }
};

// Replays a cached outcome for the filtered-join kernel: exactly the
// counter deltas the real evaluation produces, plus the translated survivor.
void ReplayFilteredOutcome(const DagPairOutcome& outcome, NodeId anchor,
                           uint32_t anchor_depth, FragmentSet* dest,
                           OpMetrics* metrics) {
  if (metrics != nullptr) ++metrics->class_pairs_considered;
  switch (outcome.kind) {
    case DagPairOutcome::kPrefilterRejected:
      CountPrefilterRejectedJoins(metrics);
      return;
    case DagPairOutcome::kFilterRejected:
      CountJoin(metrics);
      if (metrics != nullptr) {
        ++metrics->filter_evals;
        ++metrics->filter_rejections;
      }
      return;
    case DagPairOutcome::kSurvived:
      CountJoin(metrics);
      if (metrics != nullptr) {
        ++metrics->filter_evals;
        ++metrics->answers_multiplied_out;
      }
      dest->Insert(TranslateOutcome(outcome, anchor, anchor_depth));
      return;
    case DagPairOutcome::kAcceptRejected:  // Top-k kernel only.
      return;
  }
}

FragmentSet PairwiseJoinFilteredImpl(const Document& document,
                                     const FragmentSet& set1,
                                     const FragmentSet& set2,
                                     const FilterPtr& filter,
                                     const FilterContext& context,
                                     OpMetrics* metrics, DagJoinState* dag) {
  FragmentSet out;
  JoinArena arena;
  const bool prefilter = SummaryPrefilterEnabled();
  const std::vector<FragmentSummary> sums1 = SummarizeSet(set1, document);
  const std::vector<FragmentSummary> sums2 = SummarizeSet(set2, document);
  if (dag != nullptr) dag->InternSets(set1, set2);
  std::optional<RootWindows> windows;
  if (prefilter) windows.emplace(document, sums1, sums2);
  for (size_t i = 0; i < set1.size(); ++i) {
    if (prefilter) windows->SetRow(*filter, sums1[i]);
    uint64_t skipped = 0;
    uint64_t examined = 0;
    for (size_t j = 0; j < set2.size(); ++j) {
      if (metrics != nullptr) ++metrics->pairs_considered;
      if (prefilter) {
        if (windows->Outside(j)) {
          ++skipped;
          continue;
        }
        // Computed below, or by the class representative a replay stands
        // for — either way the count is the same with DAG compression off.
        ++examined;
      }
      uint64_t key = 0;
      bool cacheable = dag != nullptr && dag->PairCacheable(i, j, &key);
      if (cacheable) {
        auto it = dag->outcomes.find(key);
        if (it != dag->outcomes.end()) {
          ReplayFilteredOutcome(it->second, dag->anchors1[i],
                                document.depth(dag->anchors1[i]), &out,
                                metrics);
          continue;
        }
      }
      if (prefilter &&
          filter->RejectsJoinBounds(
              ComputeJoinBounds(document, sums1[i], sums2[j]), context)) {
        CountPrefilterRejectedJoins(metrics);
        if (cacheable) {
          dag->outcomes[key].kind = DagPairOutcome::kPrefilterRejected;
        }
        continue;
      }
      Fragment joined = JoinWithArena(document, set1[i], set2[j], &arena,
                                      metrics);
      if (PassesFilter(joined, filter, context, metrics)) {
        if (cacheable) {
          DagPairOutcome& rec = dag->outcomes[key];
          rec.kind = DagPairOutcome::kSurvived;
          const NodeId anchor = dag->anchors1[i];
          rec.rel_nodes.reserve(joined.size());
          for (NodeId n : joined.nodes()) rec.rel_nodes.push_back(n - anchor);
          rec.rel_max_depth =
              joined.MaxDepth(document) - document.depth(anchor);
        }
        out.Insert(std::move(joined));
      } else if (cacheable) {
        dag->outcomes[key].kind = DagPairOutcome::kFilterRejected;
      }
    }
    CountPrefilterRejectedJoins(metrics, skipped);
    if (metrics != nullptr) metrics->pairs_examined += examined;
  }
  return out;
}

}  // namespace

void SetSummaryPrefilterEnabled(bool enabled) {
  g_summary_prefilter_enabled.store(enabled, std::memory_order_relaxed);
}

bool SummaryPrefilterEnabled() {
  return g_summary_prefilter_enabled.load(std::memory_order_relaxed);
}

JoinBounds ComputeJoinBounds(const Document& document,
                             const FragmentSummary& s1,
                             const FragmentSummary& s2) {
  NodeId lca = document.Lca(s1.root, s2.root);
  uint32_t lca_depth = document.depth(lca);
  JoinBounds bounds;
  bounds.root_depth = lca_depth;
  bounds.min_pre = lca;
  // No connecting-path node is deeper than an operand member, and the LCA is
  // the joined root, so the height is exact.
  bounds.height = std::max(s1.max_depth, s2.max_depth) - lca_depth;
  // The LCA is the minimal pre-order member of the join; path nodes never
  // exceed the operand maxima, so the span is exact too.
  bounds.span = std::max(s1.max_pre, s2.max_pre) - lca;
  // The join contains the operand, its root's strict ancestors down to the
  // LCA (up_i nodes), and — when that root is not the LCA itself — the other
  // root's path strictly below the LCA as well: any node on both branches
  // would be a common ancestor deeper than the LCA, and a member of f_i that
  // is an ancestor of the other root would force lca = r_i. All three pieces
  // are therefore disjoint, making each sum a sound lower bound.
  uint32_t up1 = s1.root_depth - lca_depth;
  uint32_t up2 = s2.root_depth - lca_depth;
  bounds.size_lower = std::max(s1.size + up1 + (s1.root != lca ? up2 : 0),
                               s2.size + up2 + (s2.root != lca ? up1 : 0));
  // Both roots are members, so their exact distance bounds the diameter.
  bounds.roots_distance = up1 + up2;
  return bounds;
}

Fragment Join(const Document& document, const Fragment& f1, const Fragment& f2,
              OpMetrics* metrics) {
  thread_local JoinArena arena;
  return JoinWithArena(document, f1, f2, &arena, metrics);
}

FragmentSet PairwiseJoin(const Document& document, const FragmentSet& set1,
                         const FragmentSet& set2, OpMetrics* metrics) {
  FragmentSet out;
  JoinArena arena;
  for (const Fragment& f1 : set1) {
    for (const Fragment& f2 : set2) {
      out.Insert(JoinWithArena(document, f1, f2, &arena, metrics));
    }
  }
  return out;
}

FragmentSet PairwiseJoinFiltered(const Document& document,
                                 const FragmentSet& set1,
                                 const FragmentSet& set2,
                                 const FilterPtr& filter,
                                 const FilterContext& context,
                                 OpMetrics* metrics,
                                 const doc::SubtreeClassIndex* dag) {
  if (!DagUsable(dag, filter)) {
    return PairwiseJoinFilteredImpl(document, set1, set2, filter, context,
                                    metrics, nullptr);
  }
  DagJoinState state(document, *dag);
  FragmentSet out = PairwiseJoinFilteredImpl(document, set1, set2, filter,
                                             context, metrics, &state);
  if (metrics != nullptr) metrics->classes_total += state.forms.size();
  return out;
}

namespace {

// Bootstraps a top-k collector's score floor from a few high-evidence
// candidate pairs before the full pair loop runs.
//
// Ranks each operand set by its standalone evidence reach (the scorer's
// evidence summary with no partner, penalized by the fragment's own size),
// joins the top max(8, k) fragments of one side with the top of the other
// through the kernels' exact pair path (summary prefilter, filter, `accept`,
// duplicate rejection), and — when that yields k distinct true answers —
// seeds `collector` with their k-th best score. Sound: the witnesses are
// genuine answers of this very enumeration and the main loop offers them
// again, so the floor's promise (k distinct answers at or above it) holds
// and the collector's final content is unchanged; the warmup only lets the
// bounds bite from the first row instead of after k accidental acceptances.
// Costs at most max(8, k)² joins; skipped when k is 0 or above 64 (a
// scratch that size rarely fills, and large-k floors rarely bite anyway).
// Warmup work is deliberately invisible in OpMetrics: the main loop
// re-counts every pair it visits, so the counters stay deterministic.
//
// `sums*`/`ev*` are the operand summaries and evidence vectors the calling
// kernel already computed (parallel arrays: sums1[i] describes set1[i]).
void WarmupTopKFloor(const Document& document, const FragmentSet& set1,
                     const FragmentSet& set2,
                     const std::vector<FragmentSummary>& sums1,
                     const std::vector<FragmentSummary>& sums2,
                     const std::vector<std::vector<double>>& ev1,
                     const std::vector<std::vector<double>>& ev2,
                     const FilterPtr& filter, const FilterContext& context,
                     const JoinScorer& scorer, const FragmentPredicate& accept,
                     TopKCollector* collector) {
  const size_t k = collector->k();
  if (k == 0 || k > 64 || set1.empty() || set2.empty()) return;
  const size_t breadth = std::max<size_t>(8, k);
  // Standalone evidence reach: what the fragment could contribute with no
  // partner at all, penalized by its own size. Ordering by it surfaces the
  // dense, term-rich fragments whose joins dominate the score distribution.
  auto top_by_reach = [&scorer, breadth](
                          const std::vector<std::vector<double>>& ev,
                          const std::vector<FragmentSummary>& sums) {
    std::vector<size_t> idx(ev.size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    if (idx.size() <= breadth) return idx;  // floor is order-independent
    const std::vector<double> none(ev[0].size(), 0.0);
    std::vector<double> reach(ev.size());
    for (size_t i = 0; i < ev.size(); ++i) {
      reach[i] = scorer.EvidenceUpperBoundFromSize(ev[i], none, sums[i].size);
    }
    std::partial_sort(idx.begin(),
                      idx.begin() + static_cast<ptrdiff_t>(breadth), idx.end(),
                      [&reach](size_t a, size_t b) {
                        if (reach[a] != reach[b]) return reach[a] > reach[b];
                        return a < b;
                      });
    idx.resize(breadth);
    return idx;
  };
  const std::vector<size_t> top1 = top_by_reach(ev1, sums1);
  const std::vector<size_t> top2 = top_by_reach(ev2, sums2);
  // The scratch inherits the caller's floor: a witness below it could never
  // raise the seed (SeedFloor is monotone), so under a strong external floor
  // the bound checks below collapse the warmup to pure arithmetic.
  TopKCollector scratch(k);
  scratch.SeedFloor(collector->seeded_floor());
  JoinArena arena;
  const bool prefilter = SummaryPrefilterEnabled();
  for (size_t i : top1) {
    for (size_t j : top2) {
      if (!scratch.CouldAccept(scorer.EvidenceUpperBoundFromSize(
              ev1[i], ev2[j], std::max(sums1[i].size, sums2[j].size)))) {
        continue;
      }
      JoinBounds bounds = ComputeJoinBounds(document, sums1[i], sums2[j]);
      if (prefilter && filter->RejectsJoinBounds(bounds, context)) continue;
      if (!scratch.CouldAccept(scorer.QuickUpperBound(bounds)) ||
          !scratch.CouldAccept(
              scorer.EvidenceUpperBound(ev1[i], ev2[j], bounds)) ||
          !scratch.CouldAccept(scorer.UpperBound(bounds))) {
        continue;
      }
      Fragment joined =
          JoinWithArena(document, set1[i], set2[j], &arena, nullptr);
      if (!filter->Matches(joined, context)) continue;
      if (accept && !accept(joined)) continue;
      if (scratch.Contains(joined)) continue;
      double score = scorer.Score(joined);
      scratch.Offer(std::move(joined), score);
    }
  }
  // k distinct true answers found: their k-th best score is a sound floor
  // (ties are never pruned, so equal-scoring answers still compete).
  if (scratch.full()) collector->SeedFloor(scratch.TakeSorted().back().score);
}

}  // namespace

void PairwiseJoinTopK(const Document& document, const FragmentSet& set1,
                      const FragmentSet& set2, const FilterPtr& filter,
                      const FilterContext& context, const JoinScorer& scorer,
                      const FragmentPredicate& accept, TopKCollector* collector,
                      OpMetrics* metrics, const CancelToken* cancel,
                      const doc::SubtreeClassIndex* dag) {
  JoinArena arena;
  const bool prefilter = SummaryPrefilterEnabled();
  // Class-aware path. The cache is consulted only after the pair clears the
  // collector-dependent score bounds (which are never cached — a pruned pair
  // depends on the heap's state, not on the pair's class), so the decision
  // sequence, every counter, and every Offer are identical to the uncached
  // run.
  std::optional<DagJoinState> dag_state;
  if (DagUsable(dag, filter)) {
    dag_state.emplace(document, *dag);
    dag_state->InternSets(set1, set2);
    // All interning happens up front (replays never intern), so the class
    // count is final here — recorded now so cancel paths stay consistent.
    if (metrics != nullptr) metrics->classes_total += dag_state->forms.size();
  }
  const std::vector<FragmentSummary> sums1 = SummarizeSet(set1, document);
  const std::vector<FragmentSummary> sums2 = SummarizeSet(set2, document);
  // Evidence summaries are per *input* fragment, so the O(|set1| + |set2|)
  // precompute amortizes over the O(|set1| × |set2|) pair loop. The termwise
  // maximum over set2 plus a row-wide join-size lower bound power the
  // row-level bound that skips whole rows of pairs.
  const bool evidence = scorer.HasEvidenceBound() && !set2.empty();
  std::vector<std::vector<double>> ev1;
  std::vector<std::vector<double>> ev2;
  std::vector<double> ev2_max;
  uint32_t min_size2 = 0;
  if (evidence) {
    ev1.reserve(set1.size());
    for (const Fragment& f : set1) ev1.push_back(scorer.FragmentEvidence(f));
    ev2.reserve(set2.size());
    for (const Fragment& f : set2) ev2.push_back(scorer.FragmentEvidence(f));
    ev2_max = ev2[0];
    for (const std::vector<double>& e : ev2) {
      for (size_t t = 0; t < e.size(); ++t) ev2_max[t] = std::max(ev2_max[t], e[t]);
    }
    min_size2 = sums2[0].size;
    for (const FragmentSummary& s : sums2) min_size2 = std::min(min_size2, s.size);
    // Floor bootstrap: without an external floor the bounds are inert until
    // k answers happen to accumulate — which for the first document of a
    // serving query means an unpruned quadratic pass. A handful of
    // high-evidence joins seed a sound floor up front (see ops.h).
    WarmupTopKFloor(document, set1, set2, sums1, sums2, ev1, ev2, filter,
                    context, scorer, accept, collector);
  }
  std::optional<RootWindows> windows;
  if (prefilter) windows.emplace(document, sums1, sums2);
  size_t since_poll = 0;
  for (size_t i = 0; i < set1.size(); ++i) {
    // One arithmetic test retires the whole row when nothing f1 can reach
    // clears the collector's floor; bulk-account the skipped pairs.
    if (evidence &&
        !collector->CouldAccept(scorer.EvidenceUpperBoundFromSize(
            ev1[i], ev2_max, std::max(sums1[i].size, min_size2)))) {
      if (metrics != nullptr) {
        metrics->pairs_considered += set2.size();
        metrics->pairs_rejected_score += set2.size();
      }
      since_poll += set2.size();
      if (since_poll >= 1024) {
        since_poll = 0;
        if (ShouldStop(cancel)) return;
      }
      continue;
    }
    if (prefilter) windows->SetRow(*filter, sums1[i]);
    // Window-rejected and examined pairs of this row, added to `metrics` at
    // the row's end (or on cancel) exactly as per-pair counting would.
    uint64_t skipped = 0;
    uint64_t examined = 0;
    auto flush_row = [&] {
      CountPrefilterRejectedJoins(metrics, skipped);
      if (metrics != nullptr) metrics->pairs_examined += examined;
    };
    for (size_t j = 0; j < set2.size(); ++j) {
      if (++since_poll >= 1024) {
        since_poll = 0;
        if (ShouldStop(cancel)) {
          flush_row();
          return;
        }
      }
      if (metrics != nullptr) ++metrics->pairs_considered;
      // Pair-level evidence pre-check from the operand sizes alone — the
      // join is at least as large as its larger operand — so a doomed pair
      // dies on pure arithmetic before paying for ComputeJoinBounds' LCA.
      if (evidence &&
          !collector->CouldAccept(scorer.EvidenceUpperBoundFromSize(
              ev1[i], ev2[j], std::max(sums1[i].size, sums2[j].size)))) {
        if (metrics != nullptr) ++metrics->pairs_rejected_score;
        continue;
      }
      if (prefilter && windows->Outside(j)) {
        ++skipped;
        continue;
      }
      // Bounds serve both prefilters, so they are computed unconditionally
      // (unlike PairwiseJoinFiltered, which only needs them when the summary
      // prefilter is on).
      JoinBounds bounds = ComputeJoinBounds(document, sums1[i], sums2[j]);
      ++examined;
      uint64_t key = 0;
      const bool cacheable =
          dag_state.has_value() && dag_state->PairCacheable(i, j, &key);
      const DagPairOutcome* hit = nullptr;
      if (cacheable) {
        auto it = dag_state->outcomes.find(key);
        if (it != dag_state->outcomes.end()) hit = &it->second;
      }
      if (hit != nullptr && hit->kind == DagPairOutcome::kPrefilterRejected) {
        if (metrics != nullptr) ++metrics->class_pairs_considered;
        CountPrefilterRejectedJoins(metrics);
        continue;
      }
      // A non-prefilter hit proves the representative cleared the summary
      // prefilter, and RejectsJoinBounds is translation-invariant, so the
      // re-check is skipped — it could only agree.
      if (hit == nullptr && prefilter &&
          filter->RejectsJoinBounds(bounds, context)) {
        CountPrefilterRejectedJoins(metrics);
        if (cacheable) {
          dag_state->outcomes[key].kind = DagPairOutcome::kPrefilterRejected;
        }
        continue;
      }
      // Coarsest bound first: most pairs die on pure arithmetic and never
      // pay for the posting-interval bound. The evidence bound sits between
      // the two — O(summary) arithmetic, usually far tighter than either
      // interval bound — so pairs it kills never pay for binary searches.
      if (!collector->CouldAccept(scorer.QuickUpperBound(bounds)) ||
          (evidence && !collector->CouldAccept(scorer.EvidenceUpperBound(
                           ev1[i], ev2[j], bounds))) ||
          !collector->CouldAccept(scorer.UpperBound(bounds))) {
        if (metrics != nullptr) ++metrics->pairs_rejected_score;
        continue;
      }
      // The pair is going to be evaluated (or replayed) in full: the score
      // bounds above ran against the live collector exactly as the uncached
      // kernel runs them, so from here the cached outcome substitutes for
      // the join + filter + accept + score pipeline verbatim.
      if (hit != nullptr) {
        if (metrics != nullptr) ++metrics->class_pairs_considered;
        CountJoin(metrics);
        if (metrics != nullptr) ++metrics->filter_evals;
        if (hit->kind == DagPairOutcome::kFilterRejected) {
          if (metrics != nullptr) ++metrics->filter_rejections;
          continue;
        }
        if (hit->kind == DagPairOutcome::kAcceptRejected) continue;
        if (metrics != nullptr) ++metrics->answers_multiplied_out;
        const NodeId anchor = dag_state->anchors1[i];
        Fragment translated =
            TranslateOutcome(*hit, anchor, document.depth(anchor));
        if (collector->Contains(translated)) continue;
        collector->Offer(std::move(translated), hit->score);
        continue;
      }
      Fragment joined = JoinWithArena(document, set1[i], set2[j], &arena,
                                      metrics);
      if (!PassesFilter(joined, filter, context, metrics)) {
        if (cacheable) {
          dag_state->outcomes[key].kind = DagPairOutcome::kFilterRejected;
        }
        continue;
      }
      if (accept && !accept(joined)) {
        if (cacheable) {
          dag_state->outcomes[key].kind = DagPairOutcome::kAcceptRejected;
        }
        continue;
      }
      if (cacheable) {
        // Record the survivor with its exact score (scored before the
        // duplicate check — a retained duplicate shares the score by purity
        // of the scorer, and replays need it either way).
        double score = scorer.Score(joined);
        DagPairOutcome& rec = dag_state->outcomes[key];
        rec.kind = DagPairOutcome::kSurvived;
        const NodeId anchor = dag_state->anchors1[i];
        rec.rel_nodes.reserve(joined.size());
        for (NodeId n : joined.nodes()) rec.rel_nodes.push_back(n - anchor);
        rec.rel_max_depth = joined.MaxDepth(document) - document.depth(anchor);
        rec.score = score;
        if (collector->Contains(joined)) continue;
        collector->Offer(std::move(joined), score);
        continue;
      }
      // Duplicate joins are the common case (many pairs collapse to one
      // answer); a retained duplicate is already scored, so don't rescore.
      if (collector->Contains(joined)) continue;
      double score = scorer.Score(joined);
      collector->Offer(std::move(joined), score);
    }
    flush_row();
  }
}

FragmentSet Select(const FragmentSet& set, const FilterPtr& filter,
                   const FilterContext& context, OpMetrics* metrics,
                   const doc::SubtreeClassIndex* dag) {
  FragmentSet out;
  if (DagUsable(dag, filter) && context.document != nullptr) {
    // Class-aware selection: Matches is evaluated once per local form; the
    // verdict is replayed (with exact filter_evals/filter_rejections deltas)
    // for every other fragment of the form. The member fragment itself is
    // inserted — selection never materializes new nodes, so no translation.
    DagFormTable forms(*context.document, *dag);
    std::unordered_map<uint32_t, bool> verdicts;
    for (const Fragment& f : set) {
      NodeId anchor = doc::kNoNode;
      uint32_t form = forms.Intern(f, &anchor);
      if (form != kNoLocalForm) {
        auto it = verdicts.find(form);
        if (it != verdicts.end()) {
          if (metrics != nullptr) {
            ++metrics->class_pairs_considered;
            ++metrics->filter_evals;
            if (!it->second) ++metrics->filter_rejections;
          }
          if (it->second) out.Insert(f);
          continue;
        }
      }
      bool ok = PassesFilter(f, filter, context, metrics);
      if (form != kNoLocalForm) verdicts.emplace(form, ok);
      if (ok) out.Insert(f);
    }
    if (metrics != nullptr) metrics->classes_total += forms.size();
    return out;
  }
  for (const Fragment& f : set) {
    if (PassesFilter(f, filter, context, metrics)) out.Insert(f);
  }
  return out;
}

StatusOr<FragmentSet> PowersetJoinBruteForce(
    const Document& document, const FragmentSet& set1, const FragmentSet& set2,
    const PowersetJoinOptions& options, OpMetrics* metrics) {
  if (options.max_set_size > kMaxPowersetSetSize) {
    return Status::InvalidArgument(StrFormat(
        "PowersetJoinOptions::max_set_size %zu exceeds the safe bound %zu "
        "(2^%zu × 2^%zu subset pairs are not practically enumerable)",
        options.max_set_size, kMaxPowersetSetSize, options.max_set_size,
        options.max_set_size));
  }
  if (set1.size() > options.max_set_size ||
      set2.size() > options.max_set_size) {
    return Status::ResourceExhausted(StrFormat(
        "brute-force powerset join over sets of %zu and %zu fragments "
        "exceeds the configured limit of %zu",
        set1.size(), set2.size(), options.max_set_size));
  }
  if (set1.empty() || set2.empty()) return FragmentSet();

  // join_of_subset[mask] = ⋈ of the fragments selected by mask, built
  // incrementally from mask-with-lowest-bit-cleared.
  auto subset_joins = [&](const FragmentSet& set) {
    std::vector<Fragment> joins;
    size_t total = size_t{1} << set.size();
    joins.reserve(total);
    joins.push_back(Fragment::Single(0));  // Placeholder for mask 0 (unused).
    for (size_t mask = 1; mask < total; ++mask) {
      if ((mask & 0xFF) == 0 && ShouldStop(options.cancel)) break;
      size_t low = mask & (~mask + 1);
      size_t low_index = static_cast<size_t>(__builtin_ctzll(mask));
      size_t rest = mask ^ low;
      if (rest == 0) {
        joins.push_back(set[low_index]);
      } else {
        joins.push_back(Join(document, joins[rest], set[low_index], metrics));
      }
    }
    return joins;
  };

  // The enumeration is the one place the algebra does exponential work, so a
  // deadline must be able to interrupt it mid-flight: poll the token once per
  // outer subset row (≤ 4096 polls) and every 256 precomputed subset joins.
  auto cancelled = [&] { return ShouldStop(options.cancel); };
  auto deadline_error = [] {
    return Status::DeadlineExceeded(
        "brute-force powerset join cancelled by deadline");
  };

  if (cancelled()) return deadline_error();
  std::vector<Fragment> joins1 = subset_joins(set1);
  std::vector<Fragment> joins2 = subset_joins(set2);

  FragmentSet out;
  for (size_t m1 = 1; m1 < joins1.size(); ++m1) {
    if (cancelled()) return deadline_error();
    for (size_t m2 = 1; m2 < joins2.size(); ++m2) {
      out.Insert(Join(document, joins1[m1], joins2[m2], metrics));
    }
  }
  return out;
}

namespace {

// One member of ⊖'s interval/size candidate index (see Reduce).
struct ReduceEntry {
  NodeId min = 0;
  NodeId max = 0;
  uint32_t size = 0;
  // Position of the member within the original FragmentSet.
  uint32_t index = 0;
};

// Members of `set` ordered by (min_pre, index). f ⊆ g requires
// [min_f, max_f] ⊆ [min_g, max_g] and |f| ≤ |g|, so a joined fragment's
// subsumption candidates form a contiguous window of this index.
std::vector<ReduceEntry> BuildReduceIndex(const FragmentSet& set) {
  std::vector<ReduceEntry> by_min;
  by_min.reserve(set.size());
  for (size_t t = 0; t < set.size(); ++t) {
    const Fragment& f = set[t];
    by_min.push_back(ReduceEntry{f.min_pre(), f.max_pre(),
                                 static_cast<uint32_t>(f.size()),
                                 static_cast<uint32_t>(t)});
  }
  std::sort(by_min.begin(), by_min.end(),
            [](const ReduceEntry& a, const ReduceEntry& b) {
              return a.min != b.min ? a.min < b.min : a.index < b.index;
            });
  return by_min;
}

// Half-open window [lo, hi) of `by_min` entries whose min lies in
// [min_pre, max_pre].
std::pair<size_t, size_t> ReduceWindow(const std::vector<ReduceEntry>& by_min,
                                       NodeId min_pre, NodeId max_pre) {
  auto lo = std::lower_bound(by_min.begin(), by_min.end(), min_pre,
                             [](const ReduceEntry& e, NodeId v) {
                               return e.min < v;
                             });
  auto hi = std::upper_bound(lo, by_min.end(), max_pre,
                             [](NodeId v, const ReduceEntry& e) {
                               return v < e.min;
                             });
  return {static_cast<size_t>(lo - by_min.begin()),
          static_cast<size_t>(hi - by_min.begin())};
}

}  // namespace

FragmentSet Reduce(const Document& document, const FragmentSet& set,
                   OpMetrics* metrics) {
  // A member survives unless two other distinct members join to a fragment
  // that subsumes it. f ⊆ g requires [min_f,max_f] ⊆ [min_g,max_g] and
  // |f| ≤ |g|, so instead of testing every live member against every joined
  // fragment, candidates come from an index ordered by min_pre: only members
  // whose interval fits inside the join's interval are std::includes-tested.
  const size_t n = set.size();
  std::vector<ReduceEntry> by_min = BuildReduceIndex(set);
  const bool prefilter = SummaryPrefilterEnabled();
  std::vector<bool> eliminated(n, false);
  size_t eliminated_count = 0;
  JoinArena arena;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      Fragment joined = JoinWithArena(document, set[i], set[j], &arena,
                                      metrics);
      if (!prefilter) {
        for (size_t t = 0; t < n; ++t) {
          if (t == i || t == j || eliminated[t]) continue;
          if (joined.ContainsFragment(set[t])) eliminated[t] = true;
        }
        continue;
      }
      // Every member the unoptimized pass would have checked right now.
      size_t live_targets = (n - eliminated_count) - (eliminated[i] ? 0 : 1) -
                            (eliminated[j] ? 0 : 1);
      size_t checks = 0;
      auto [lo, hi] = ReduceWindow(by_min, joined.min_pre(), joined.max_pre());
      for (size_t k = lo; k < hi; ++k) {
        const ReduceEntry& e = by_min[k];
        size_t t = e.index;
        if (t == i || t == j || eliminated[t]) continue;
        if (e.max > joined.max_pre() ||
            e.size > static_cast<uint32_t>(joined.size())) {
          continue;
        }
        ++checks;
        if (joined.ContainsFragment(set[t])) {
          eliminated[t] = true;
          ++eliminated_count;
        }
      }
      if (metrics != nullptr) {
        metrics->subsume_checks_skipped += live_targets - checks;
      }
    }
  }
  FragmentSet out;
  for (size_t t = 0; t < n; ++t) {
    if (!eliminated[t]) out.Insert(set[t]);
  }
  return out;
}

FragmentSet FixedPointNaive(const Document& document, const FragmentSet& set,
                            OpMetrics* metrics, const CancelToken* cancel) {
  FragmentSet current = set;
  while (!ShouldStop(cancel)) {
    if (metrics != nullptr) ++metrics->fixed_point_iterations;
    FragmentSet joined = PairwiseJoin(document, current, set, metrics);
    // Fixed-point check: has anything new appeared?
    size_t before = current.size();
    current = current.Union(joined);
    if (current.size() == before) break;
  }
  return current;
}

FragmentSet FixedPointReduced(const Document& document, const FragmentSet& set,
                              OpMetrics* metrics, const CancelToken* cancel) {
  if (set.size() <= 1) return set;
  FragmentSet reduced = Reduce(document, set, metrics);
  size_t k = std::max<size_t>(reduced.size(), 1);
  // ⋈_k(F): pairwise join of k copies of F, i.e. k−1 join operations,
  // with no fixed-point checking (Theorem 1).
  FragmentSet current = set;
  for (size_t i = 1; i < k && !ShouldStop(cancel); ++i) {
    if (metrics != nullptr) ++metrics->fixed_point_iterations;
    current = PairwiseJoin(document, current, set, metrics);
  }
  // ⋈_k(F) ⊇ F because f ⋈ f = f (idempotency), so this is F⁺ itself.
  return current;
}

FragmentSet FixedPointFiltered(const Document& document, const FragmentSet& set,
                               const FilterPtr& filter,
                               const FilterContext& context,
                               OpMetrics* metrics, const CancelToken* cancel,
                               const doc::SubtreeClassIndex* dag) {
  // Base selection first (Theorem 3 pushed all the way down).
  FragmentSet current = Select(set, filter, context, metrics, dag);
  FragmentSet base = current;
  // One class-aware state shared across the iterations: forms and pair
  // outcomes computed in round r stay valid in round r+1 (same document,
  // filter, and context), so later rounds replay most of their pairs.
  std::optional<DagJoinState> dag_state;
  if (DagUsable(dag, filter)) dag_state.emplace(document, *dag);
  while (!ShouldStop(cancel)) {
    if (metrics != nullptr) ++metrics->fixed_point_iterations;
    FragmentSet joined = PairwiseJoinFilteredImpl(
        document, current, base, filter, context, metrics,
        dag_state.has_value() ? &*dag_state : nullptr);
    size_t before = current.size();
    current = current.Union(joined);
    if (current.size() == before) break;
  }
  if (dag_state.has_value() && metrics != nullptr) {
    metrics->classes_total += dag_state->forms.size();
  }
  return current;
}

FragmentSet PowersetJoinViaFixedPoint(const Document& document,
                                      const FragmentSet& set1,
                                      const FragmentSet& set2,
                                      OpMetrics* metrics,
                                      const CancelToken* cancel) {
  if (set1.empty() || set2.empty()) return FragmentSet();
  FragmentSet fp1 = FixedPointReduced(document, set1, metrics, cancel);
  FragmentSet fp2 = FixedPointReduced(document, set2, metrics, cancel);
  return PairwiseJoin(document, fp1, fp2, metrics);
}

}  // namespace xfrag::algebra
