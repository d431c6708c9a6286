#include "algebra/dag_cache.h"

#include "algebra/ops.h"

namespace xfrag::algebra {

namespace {

inline size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

size_t DagFormTable::FormKeyHash::operator()(const FormKey& k) const {
  size_t h = HashCombine(k.anchor_class, k.anchor_depth);
  for (NodeId n : k.rel_nodes) h = HashCombine(h, n);
  return h;
}

uint32_t DagFormTable::Intern(const Fragment& f, NodeId* anchor_out) {
  const NodeId anchor = dag_.dup_anchor(f.root());
  if (anchor == doc::kNoNode) return kNoLocalForm;
  FormKey key;
  key.anchor_class = dag_.class_of(anchor);
  key.anchor_depth = document_.depth(anchor);
  key.rel_nodes.reserve(f.size());
  // Every member lies in the subtree of the fragment root, hence of the
  // anchor, so the offsets are non-negative and order-preserving.
  for (NodeId n : f.nodes()) key.rel_nodes.push_back(n - anchor);
  *anchor_out = anchor;
  auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(ids_.size());
  ids_.emplace(std::move(key), id);
  return id;
}

void DagFormTable::InternSet(const FragmentSet& set,
                             std::vector<uint32_t>* forms,
                             std::vector<NodeId>* anchors) {
  forms->resize(set.size());
  anchors->assign(set.size(), doc::kNoNode);
  for (size_t i = 0; i < set.size(); ++i) {
    (*forms)[i] = Intern(set[i], &(*anchors)[i]);
  }
}

Fragment TranslateOutcome(const DagPairOutcome& outcome, NodeId anchor,
                          uint32_t anchor_depth) {
  std::vector<NodeId> nodes;
  nodes.reserve(outcome.rel_nodes.size());
  for (NodeId rel : outcome.rel_nodes) nodes.push_back(anchor + rel);
  return Fragment::FromSortedUnchecked(std::move(nodes),
                                       outcome.rel_max_depth + anchor_depth);
}

bool DagUsable(const doc::SubtreeClassIndex* dag, const FilterPtr& filter) {
  return dag != nullptr && dag->has_duplication() &&
         (filter == nullptr || filter->TranslationInvariant());
}

}  // namespace xfrag::algebra
