#include "algebra/filter.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace xfrag::algebra {

void Filter::CollectConjuncts(std::vector<FilterPtr>* out,
                              const FilterPtr& self) const {
  XFRAG_DCHECK(self.get() == this);
  out->push_back(self);
}

namespace filters {

namespace {

// ceil(x / 2) for x > 0, else 0: the smallest join-root depth l with
// 2l >= x, the shape every root-window rule below reduces to.
uint32_t CeilHalfOrZero(int64_t x) {
  return x <= 0 ? 0 : static_cast<uint32_t>((x + 1) / 2);
}

// Height rule shared by height<=h and distance<=d: the join is at least
// max_depth(f1) - depth(lca) high, which exceeds `limit` for every LCA
// shallower than max_depth(f1) - limit.
uint32_t HeightWindowDepth(const FragmentSummary& s1, uint32_t limit) {
  return s1.max_depth > limit ? s1.max_depth - limit : 0;
}

class TrueFilter final : public Filter {
 public:
  bool Matches(const Fragment&, const FilterContext&) const override {
    return true;
  }
  bool anti_monotonic() const override { return true; }
  std::string ToString() const override { return "true"; }
};

class SizeAtMostFilter final : public Filter {
 public:
  explicit SizeAtMostFilter(uint32_t beta) : beta_(beta) {}
  bool Matches(const Fragment& f, const FilterContext&) const override {
    return f.size() <= beta_;
  }
  bool anti_monotonic() const override { return true; }
  bool RejectsJoinBounds(const JoinBounds& bounds,
                         const FilterContext&) const override {
    return bounds.size_lower > beta_;
  }
  uint32_t MinJoinRootDepth(const FragmentSummary& s1,
                            uint32_t partner_root_depth) const override {
    // Below root(f1) the join holds f1 plus both connecting paths:
    // size_lower >= |f1| + (d1 - l) + (d2 - l) > beta iff l < that ceil.
    // When root(f1) is the LCA (l = d1) the bound drops its second path, so
    // the window never reaches deeper than d1 itself.
    const int64_t excess = int64_t{s1.size} + s1.root_depth +
                           partner_root_depth - int64_t{beta_};
    return std::min(s1.root_depth, CeilHalfOrZero(excess));
  }
  std::string ToString() const override {
    return StrFormat("size<=%u", beta_);
  }

 private:
  uint32_t beta_;
};

class HeightAtMostFilter final : public Filter {
 public:
  explicit HeightAtMostFilter(uint32_t h) : h_(h) {}
  bool Matches(const Fragment& f, const FilterContext& ctx) const override {
    return FragmentHeight(f, *ctx.document) <= h_;
  }
  bool anti_monotonic() const override { return true; }
  bool RejectsJoinBounds(const JoinBounds& bounds,
                         const FilterContext&) const override {
    return bounds.height > h_;
  }
  uint32_t MinJoinRootDepth(const FragmentSummary& s1,
                            uint32_t) const override {
    return HeightWindowDepth(s1, h_);
  }
  std::string ToString() const override {
    return StrFormat("height<=%u", h_);
  }

 private:
  uint32_t h_;
};

class SpanAtMostFilter final : public Filter {
 public:
  explicit SpanAtMostFilter(uint32_t w) : w_(w) {}
  bool Matches(const Fragment& f, const FilterContext&) const override {
    return FragmentSpan(f) <= w_;
  }
  bool anti_monotonic() const override { return true; }
  bool RejectsJoinBounds(const JoinBounds& bounds,
                         const FilterContext&) const override {
    return bounds.span > w_;
  }
  std::string ToString() const override {
    return StrFormat("span<=%u", w_);
  }

 private:
  uint32_t w_;
};

class SizeAtLeastFilter final : public Filter {
 public:
  explicit SizeAtLeastFilter(uint32_t beta) : beta_(beta) {}
  bool Matches(const Fragment& f, const FilterContext&) const override {
    return f.size() >= beta_;
  }
  bool anti_monotonic() const override { return false; }
  std::string ToString() const override {
    return StrFormat("size>=%u", beta_);
  }

 private:
  uint32_t beta_;
};

class DistanceAtMostFilter final : public Filter {
 public:
  explicit DistanceAtMostFilter(uint32_t d) : d_(d) {}
  bool Matches(const Fragment& f, const FilterContext& ctx) const override {
    // The diameter of the induced subtree: two BFS/DFS passes are overkill
    // for fragments of this size; compute directly as the two deepest
    // leaf-depths per branch below the root. Equivalent O(|f|) formulation:
    // diameter = max over members of (depth(a) + depth(b) - 2*depth(lca)),
    // maximized by the classic "farthest node twice" method.
    const Document& d = *ctx.document;
    if (f.size() <= 1) return true;
    // Farthest member from the root.
    NodeId far1 = f.root();
    uint32_t best = 0;
    for (NodeId n : f.nodes()) {
      uint32_t dist = d.depth(n) - d.depth(f.root());
      if (dist > best) {
        best = dist;
        far1 = n;
      }
    }
    // Farthest member from far1 — the diameter endpoint.
    uint32_t diameter = 0;
    for (NodeId n : f.nodes()) {
      diameter = std::max(diameter, d.Distance(far1, n));
    }
    return diameter <= d_;
  }
  bool anti_monotonic() const override { return true; }
  bool RejectsJoinBounds(const JoinBounds& bounds,
                         const FilterContext&) const override {
    // The joined root and the deepest joined member are `bounds.height`
    // edges apart, and the two operand roots `bounds.roots_distance` apart —
    // either already exceeding d proves the diameter does.
    return bounds.height > d_ || bounds.roots_distance > d_;
  }
  uint32_t MinJoinRootDepth(const FragmentSummary& s1,
                            uint32_t partner_root_depth) const override {
    // roots_distance = d1 + d2 - 2l > d iff l < ceil((d1 + d2 - d) / 2).
    const int64_t excess = int64_t{s1.root_depth} + partner_root_depth -
                           int64_t{d_};
    return std::max(HeightWindowDepth(s1, d_), CeilHalfOrZero(excess));
  }
  std::string ToString() const override {
    return StrFormat("distance<=%u", d_);
  }

 private:
  uint32_t d_;
};

class TagsWithinFilter final : public Filter {
 public:
  explicit TagsWithinFilter(std::vector<std::string> allowed)
      : allowed_(std::move(allowed)) {
    std::sort(allowed_.begin(), allowed_.end());
  }
  bool Matches(const Fragment& f, const FilterContext& ctx) const override {
    for (NodeId n : f.nodes()) {
      if (!std::binary_search(allowed_.begin(), allowed_.end(),
                              ctx.document->tag(n))) {
        return false;
      }
    }
    return true;
  }
  bool anti_monotonic() const override { return true; }
  std::string ToString() const override {
    std::string out = "tags_within(";
    for (size_t i = 0; i < allowed_.size(); ++i) {
      if (i > 0) out += ",";
      out += allowed_[i];
    }
    return out + ")";
  }

 private:
  std::vector<std::string> allowed_;
};

class RootDepthAtLeastFilter final : public Filter {
 public:
  explicit RootDepthAtLeastFilter(uint32_t d) : d_(d) {}
  bool Matches(const Fragment& f, const FilterContext& ctx) const override {
    return ctx.document->depth(f.root()) >= d_;
  }
  bool anti_monotonic() const override { return true; }
  bool RejectsJoinBounds(const JoinBounds& bounds,
                         const FilterContext&) const override {
    return bounds.root_depth < d_;
  }
  uint32_t MinJoinRootDepth(const FragmentSummary&, uint32_t) const override {
    return d_;
  }
  std::string ToString() const override {
    return StrFormat("root_depth>=%u", d_);
  }

 private:
  uint32_t d_;
};

class RootDepthAtMostFilter final : public Filter {
 public:
  explicit RootDepthAtMostFilter(uint32_t d) : d_(d) {}
  bool Matches(const Fragment& f, const FilterContext& ctx) const override {
    return ctx.document->depth(f.root()) <= d_;
  }
  bool anti_monotonic() const override { return false; }
  std::string ToString() const override {
    return StrFormat("root_depth<=%u", d_);
  }

 private:
  uint32_t d_;
};

class EqualDepthFilter final : public Filter {
 public:
  EqualDepthFilter(std::string term1, std::string term2)
      : term1_(std::move(term1)), term2_(std::move(term2)) {}

  bool Matches(const Fragment& f, const FilterContext& ctx) const override {
    XFRAG_CHECK(ctx.index != nullptr);
    const Document& document = *ctx.document;
    uint32_t root_depth = document.depth(f.root());
    // Depths (relative to the fragment root) of members containing each term.
    // The filter requires all term1-nodes and all term2-nodes to share one
    // common depth.
    int64_t depth1 = -1, depth2 = -1;
    bool uniform = true;
    for (NodeId n : f.nodes()) {
      uint32_t d = document.depth(n) - root_depth;
      if (ctx.index->Contains(term1_, n)) {
        if (depth1 >= 0 && depth1 != d) uniform = false;
        depth1 = d;
      }
      if (ctx.index->Contains(term2_, n)) {
        if (depth2 >= 0 && depth2 != d) uniform = false;
        depth2 = d;
      }
    }
    return uniform && depth1 >= 0 && depth2 >= 0 && depth1 == depth2;
  }
  bool anti_monotonic() const override { return false; }
  std::string ToString() const override {
    return "equal_depth(" + term1_ + "," + term2_ + ")";
  }

 private:
  std::string term1_;
  std::string term2_;
};

class ContainsKeywordFilter final : public Filter {
 public:
  explicit ContainsKeywordFilter(std::string term) : term_(std::move(term)) {}
  bool Matches(const Fragment& f, const FilterContext& ctx) const override {
    XFRAG_CHECK(ctx.index != nullptr);
    // Iterate over the smaller side: posting list vs fragment.
    const auto& postings = ctx.index->Lookup(term_);
    if (postings.size() < f.size()) {
      for (NodeId n : postings) {
        if (f.ContainsNode(n)) return true;
      }
      return false;
    }
    for (NodeId n : f.nodes()) {
      if (ctx.index->Contains(term_, n)) return true;
    }
    return false;
  }
  bool anti_monotonic() const override { return false; }
  std::string ToString() const override { return "keyword=" + term_; }

 private:
  std::string term_;
};

class RootTagIsFilter final : public Filter {
 public:
  explicit RootTagIsFilter(std::string tag) : tag_(std::move(tag)) {}
  bool Matches(const Fragment& f, const FilterContext& ctx) const override {
    return ctx.document->tag(f.root()) == tag_;
  }
  bool anti_monotonic() const override { return false; }
  std::string ToString() const override { return "root_tag=" + tag_; }

 private:
  std::string tag_;
};

class AndFilter final : public Filter {
 public:
  AndFilter(FilterPtr a, FilterPtr b) : a_(std::move(a)), b_(std::move(b)) {}
  bool Matches(const Fragment& f, const FilterContext& ctx) const override {
    return a_->Matches(f, ctx) && b_->Matches(f, ctx);
  }
  bool anti_monotonic() const override {
    return a_->anti_monotonic() && b_->anti_monotonic();
  }
  bool RejectsJoinBounds(const JoinBounds& bounds,
                         const FilterContext& ctx) const override {
    return a_->RejectsJoinBounds(bounds, ctx) ||
           b_->RejectsJoinBounds(bounds, ctx);
  }
  uint32_t MinJoinRootDepth(const FragmentSummary& s1,
                            uint32_t partner_root_depth) const override {
    return std::max(a_->MinJoinRootDepth(s1, partner_root_depth),
                    b_->MinJoinRootDepth(s1, partner_root_depth));
  }
  bool TranslationInvariant() const override {
    return a_->TranslationInvariant() && b_->TranslationInvariant();
  }
  std::string ToString() const override {
    return "(" + a_->ToString() + " & " + b_->ToString() + ")";
  }
  void CollectConjuncts(std::vector<FilterPtr>* out,
                        const FilterPtr& self) const override {
    XFRAG_DCHECK(self.get() == this);
    (void)self;
    a_->CollectConjuncts(out, a_);
    b_->CollectConjuncts(out, b_);
  }

 private:
  FilterPtr a_;
  FilterPtr b_;
};

class OrFilter final : public Filter {
 public:
  OrFilter(FilterPtr a, FilterPtr b) : a_(std::move(a)), b_(std::move(b)) {}
  bool Matches(const Fragment& f, const FilterContext& ctx) const override {
    return a_->Matches(f, ctx) || b_->Matches(f, ctx);
  }
  bool anti_monotonic() const override {
    return a_->anti_monotonic() && b_->anti_monotonic();
  }
  bool RejectsJoinBounds(const JoinBounds& bounds,
                         const FilterContext& ctx) const override {
    // Sound only when BOTH branches prove rejection.
    return a_->RejectsJoinBounds(bounds, ctx) &&
           b_->RejectsJoinBounds(bounds, ctx);
  }
  uint32_t MinJoinRootDepth(const FragmentSummary& s1,
                            uint32_t partner_root_depth) const override {
    return std::min(a_->MinJoinRootDepth(s1, partner_root_depth),
                    b_->MinJoinRootDepth(s1, partner_root_depth));
  }
  bool TranslationInvariant() const override {
    return a_->TranslationInvariant() && b_->TranslationInvariant();
  }
  std::string ToString() const override {
    return "(" + a_->ToString() + " | " + b_->ToString() + ")";
  }

 private:
  FilterPtr a_;
  FilterPtr b_;
};

class NotFilter final : public Filter {
 public:
  explicit NotFilter(FilterPtr inner) : inner_(std::move(inner)) {}
  bool Matches(const Fragment& f, const FilterContext& ctx) const override {
    return !inner_->Matches(f, ctx);
  }
  bool anti_monotonic() const override { return false; }
  bool TranslationInvariant() const override {
    return inner_->TranslationInvariant();
  }
  std::string ToString() const override {
    return "!" + inner_->ToString();
  }

 private:
  FilterPtr inner_;
};

}  // namespace

FilterPtr True() {
  static const FilterPtr instance = std::make_shared<TrueFilter>();
  return instance;
}

FilterPtr SizeAtMost(uint32_t beta) {
  return std::make_shared<SizeAtMostFilter>(beta);
}

FilterPtr HeightAtMost(uint32_t h) {
  return std::make_shared<HeightAtMostFilter>(h);
}

FilterPtr SpanAtMost(uint32_t w) {
  return std::make_shared<SpanAtMostFilter>(w);
}

FilterPtr SizeAtLeast(uint32_t beta) {
  return std::make_shared<SizeAtLeastFilter>(beta);
}

FilterPtr DistanceAtMost(uint32_t d) {
  return std::make_shared<DistanceAtMostFilter>(d);
}

FilterPtr TagsWithin(std::vector<std::string> allowed) {
  return std::make_shared<TagsWithinFilter>(std::move(allowed));
}

FilterPtr RootDepthAtLeast(uint32_t d) {
  return std::make_shared<RootDepthAtLeastFilter>(d);
}

FilterPtr RootDepthAtMost(uint32_t d) {
  return std::make_shared<RootDepthAtMostFilter>(d);
}

FilterPtr EqualDepth(std::string term1, std::string term2) {
  return std::make_shared<EqualDepthFilter>(std::move(term1),
                                            std::move(term2));
}

FilterPtr ContainsKeyword(std::string term) {
  return std::make_shared<ContainsKeywordFilter>(std::move(term));
}

FilterPtr RootTagIs(std::string tag) {
  return std::make_shared<RootTagIsFilter>(std::move(tag));
}

FilterPtr And(FilterPtr a, FilterPtr b) {
  return std::make_shared<AndFilter>(std::move(a), std::move(b));
}

FilterPtr Or(FilterPtr a, FilterPtr b) {
  return std::make_shared<OrFilter>(std::move(a), std::move(b));
}

FilterPtr Not(FilterPtr inner) {
  return std::make_shared<NotFilter>(std::move(inner));
}

FilterPtr AndAll(const std::vector<FilterPtr>& conjuncts) {
  if (conjuncts.empty()) return True();
  FilterPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = And(acc, conjuncts[i]);
  }
  return acc;
}

}  // namespace filters

void SplitAntiMonotonic(const FilterPtr& filter, FilterPtr* anti_monotonic,
                        FilterPtr* residue) {
  std::vector<FilterPtr> conjuncts;
  filter->CollectConjuncts(&conjuncts, filter);
  std::vector<FilterPtr> anti, rest;
  for (const auto& conjunct : conjuncts) {
    if (conjunct->anti_monotonic()) {
      anti.push_back(conjunct);
    } else {
      rest.push_back(conjunct);
    }
  }
  *anti_monotonic = filters::AndAll(anti);
  *residue = filters::AndAll(rest);
}

}  // namespace xfrag::algebra
