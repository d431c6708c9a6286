#include "workload.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"

namespace servebench {
namespace {

// Vocabulary ranks the query terms come from. With the default corpus a
// rank-r word occurs in roughly 2400 / r paragraphs per document, so the
// mid band gives posting lists of tens to low hundreds per document and the
// rare band a handful.
constexpr size_t kMidLo = 20, kMidHi = 300;
constexpr size_t kRareLo = 600, kRareHi = 1500;
// Reduced queries carry one term, so their answer cap (drawn from 64
// values starting here) widens their identity space.
constexpr int kReducedCapLo = 10;

constexpr size_t kHotPoolSize = 48;
constexpr size_t kHotBatches = 8;
constexpr uint32_t kBatchItems = 4;

const char* const kTags[] = {"article", "chapter", "section", "subsection",
                             "par"};
constexpr int kLeafDepth = 4;

void AppendWords(const ZipfSampler& zipf, Rng& rng, uint32_t count,
                 std::string* xml) {
  for (uint32_t i = 0; i < count; ++i) {
    if (i > 0) xml->push_back(' ');
    xml->append(VocabularyWord(zipf.Sample(rng)));
  }
}

void BuildElement(int depth, const CorpusSpec& spec, const ZipfSampler& zipf,
                  Rng& rng, size_t* budget, std::string* xml) {
  const char* tag = kTags[depth];
  --*budget;
  xml->append("<").append(tag).append(">");
  if (depth == kLeafDepth) {
    AppendWords(zipf, rng,
                static_cast<uint32_t>(rng.Between(spec.min_words,
                                                  spec.max_words)),
                xml);
  } else {
    if (*budget > 0) {
      --*budget;
      xml->append("<title>");
      AppendWords(zipf, rng, static_cast<uint32_t>(rng.Between(2, 4)), xml);
      xml->append("</title>");
    }
    // The root takes chapters until the budget is spent; inner containers
    // take 2..5 children.
    size_t children = depth == 0 ? SIZE_MAX : rng.Between(2, 5);
    for (size_t c = 0; c < children && *budget > 0; ++c) {
      BuildElement(depth + 1, spec, zipf, rng, budget, xml);
    }
  }
  xml->append("</").append(tag).append(">");
}

std::string Quote(const std::string& word) { return "\"" + word + "\""; }

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "engine-cold") return Workload::kEngineCold;
  if (name == "serve-hot") return Workload::kServeHot;
  if (name == "router-topk") return Workload::kRouterTopK;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kEngineCold: return "engine-cold";
    case Workload::kServeHot: return "serve-hot";
    case Workload::kRouterTopK: return "router-topk";
  }
  return "unknown";
}

size_t WarmupExchanges(Workload workload) {
  switch (workload) {
    case Workload::kEngineCold: return 300;
    case Workload::kServeHot: return 8000;
    case Workload::kRouterTopK: return 100;
  }
  return 100;
}

std::string VocabularyWord(size_t rank) {
  static constexpr char kConsonants[] = "bdfgklmnprstvz";
  static constexpr char kVowels[] = "aeiou";
  constexpr size_t kSyllables = 14 * 5;
  std::string word;
  size_t rest = rank;
  for (int i = 0; i < 3 || rest > 0; ++i) {
    size_t syllable = rest % kSyllables;
    rest /= kSyllables;
    word.push_back(kConsonants[syllable / 5]);
    word.push_back(kVowels[syllable % 5]);
  }
  return word;
}

std::vector<GeneratedDocument> GenerateCorpus(const CorpusSpec& spec,
                                              uint64_t seed) {
  ZipfSampler zipf(spec.vocabulary, spec.zipf_skew);
  std::vector<GeneratedDocument> docs;
  for (size_t d = 0; d < spec.documents; ++d) {
    Rng rng(seed * 0x100000001b3ULL + d + 1);
    GeneratedDocument doc;
    doc.name = xfrag::StrFormat("doc%02zu.xml", d);
    size_t budget = spec.nodes_per_document;
    BuildElement(0, spec, zipf, rng, &budget, &doc.xml);
    docs.push_back(std::move(doc));
  }
  return docs;
}

RequestSource::RequestSource(Workload workload, uint64_t seed)
    : workload_(workload),
      rng_(seed ^ 0x5e7be7c4a11ULL),
      hot_pick_(kHotPoolSize, 1.1) {
  if (workload_ != Workload::kServeHot) return;
  for (size_t i = 0; i < kHotPoolSize; ++i) hot_pool_.push_back(HotQuery());
  for (size_t b = 0; b < kHotBatches; ++b) {
    std::vector<QueryForms> items;
    std::vector<bool> use_xql;
    for (uint32_t i = 0; i < kBatchItems; ++i) {
      items.push_back(hot_pool_[hot_pick_.Sample(rng_)]);
      use_xql.push_back(rng_.Below(2) == 1);
    }
    hot_batches_.push_back(BatchOf(items, use_xql));
  }
}

std::string RequestSource::Term(size_t lo, size_t hi) {
  return VocabularyWord(rng_.Between(lo, hi - 1));
}

bool RequestSource::Claim(const std::string& identity) {
  return issued_.insert(identity).second;
}

size_t RequestSource::distinct_issued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return issued_.size();
}

// A query nobody asked before. The identity mirrors what the result cache
// keys on (kind, sorted terms, filter, limits), so a fresh identity can
// never hit the cache, whichever textual form carries it.
//
// The shape is drawn once and kept when an identity repeats: only terms,
// filter bound and cap are redrawn, so the shape mix holds however much of
// a shape's space a run uses up. Every shape's space (reduced: 900 terms x
// 4 bounds x 64 caps) is also far larger than a run draws, so redraws stay
// rare and each new query is uniform over a nearly full space.
RequestSource::QueryForms RequestSource::FreshQuery() {
  enum class Shape { kPushdown, kTopK, kReduced, kComposed };
  double u = rng_.Unit();
  Shape shape;
  if (workload_ == Workload::kEngineCold) {
    shape = u < 0.35   ? Shape::kPushdown
            : u < 0.60 ? Shape::kTopK
            : u < 0.75 ? Shape::kReduced
                       : Shape::kComposed;
  } else {
    shape = u < 0.65 ? Shape::kTopK : Shape::kPushdown;
  }
  // Fixed points of one term and unfiltered composed joins grow much
  // faster than filtered pairwise joins, so they take rare terms.
  const bool rare = shape == Shape::kReduced || shape == Shape::kComposed;
  const size_t lo = rare ? kRareLo : kMidLo;
  const size_t hi = rare ? kRareHi : kMidHi;
  static const char* const kShapeNames[] = {"pushdown", "topk", "reduced",
                                            "composed"};
  for (int attempt = 0;; ++attempt) {
    // Past a thousand collisions the space is crowded: add a term.
    size_t term_count = (shape == Shape::kReduced ? 1 : 2) +
                        (attempt > 1000 ? 1 : 0);
    std::vector<std::string> terms;
    while (terms.size() < term_count) {
      std::string t = Term(lo, hi);
      if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
        terms.push_back(std::move(t));
      }
    }
    std::sort(terms.begin(), terms.end());
    int size = static_cast<int>(rng_.Between(3, 6));
    int cap = shape == Shape::kReduced
                  ? static_cast<int>(rng_.Between(kReducedCapLo,
                                                  kReducedCapLo + 63))
                  : 20;
    if (!Claim(xfrag::StrFormat("%s|%s|%d|%d",
                                kShapeNames[static_cast<int>(shape)],
                                xfrag::Join(terms, ",").c_str(), size, cap))) {
      continue;
    }
    std::string terms_json, terms_xql, joined;
    for (const std::string& t : terms) {
      terms_json += (terms_json.empty() ? "" : ",") + Quote(t);
      terms_xql += (terms_xql.empty() ? "" : ", ") + t;
      joined += (joined.empty() ? "{" : " JOIN {") + t + "}";
    }
    QueryForms forms;
    switch (shape) {
      case Shape::kPushdown:
        forms.json = xfrag::StrFormat(
            R"({"terms":[%s],"filter":"size<=%d","strategy":"pushdown",)"
            R"("max_answers":%d})",
            terms_json.c_str(), size, cap);
        break;
      case Shape::kTopK:
        forms.topk = true;
        forms.json = xfrag::StrFormat(
            R"({"terms":[%s],"filter":"size<=%d","top_k":10})",
            terms_json.c_str(), size);
        forms.xql = xfrag::StrFormat(R"({"q":"{%s} WHERE size<=%d TOP 10"})",
                                     terms_xql.c_str(), size);
        break;
      case Shape::kReduced:
        forms.json = xfrag::StrFormat(
            R"({"terms":[%s],"filter":"size<=%d","strategy":"reduced",)"
            R"("max_answers":%d})",
            terms_json.c_str(), size, cap);
        break;
      case Shape::kComposed:
        forms.xql = xfrag::StrFormat(
            R"({"q":"REDUCE(%s) WHERE size<=%d LIMIT %d"})", joined.c_str(),
            size, cap);
        forms.json = forms.xql;
        break;
    }
    return forms;
  }
}

// A serve-hot pool entry: a tight filter and a small answer cap over
// mid-frequency terms, so every entry fills its cap (responses of similar
// size whatever the seed) and refills in a millisecond or two after a
// reload.
RequestSource::QueryForms RequestSource::HotQuery() {
  std::string a, b;
  do {
    a = Term(kMidLo, kMidHi);
    b = Term(kMidLo, kMidHi);
  } while (a == b);
  if (b < a) std::swap(a, b);
  QueryForms forms;
  if (rng_.Below(4) == 0) {
    forms.topk = true;
    forms.json = xfrag::StrFormat(
        R"({"terms":["%s","%s"],"filter":"size<=3","top_k":3})", a.c_str(),
        b.c_str());
    forms.xql = xfrag::StrFormat(R"({"q":"{%s, %s} WHERE size<=3 TOP 3"})",
                                 a.c_str(), b.c_str());
  } else {
    forms.json = xfrag::StrFormat(
        R"({"terms":["%s","%s"],"filter":"size<=3","max_answers":5})",
        a.c_str(), b.c_str());
    forms.xql = xfrag::StrFormat(R"({"q":"{%s, %s} WHERE size<=3 LIMIT 5"})",
                                 a.c_str(), b.c_str());
  }
  return forms;
}

Request RequestSource::FromForms(const QueryForms& forms, bool use_xql) const {
  Request request;
  request.body = use_xql && !forms.xql.empty() ? forms.xql : forms.json;
  request.topk = forms.topk;
  request.xql = request.body.find("\"q\"") != std::string::npos;
  return request;
}

Request RequestSource::BatchOf(const std::vector<QueryForms>& items,
                               const std::vector<bool>& use_xql) const {
  Request batch;
  batch.kind = Request::Kind::kBatch;
  batch.queries = static_cast<uint32_t>(items.size());
  batch.body = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    Request item = FromForms(items[i], use_xql[i]);
    if (i > 0) batch.body += ",";
    batch.body += item.body;
    batch.topk = batch.topk || item.topk;
    batch.xql = batch.xql || item.xql;
  }
  batch.body += "]";
  return batch;
}

Request RequestSource::NextCold() {
  if (rng_.Unit() < 0.10) {
    std::vector<QueryForms> items;
    std::vector<bool> use_xql;
    for (uint32_t i = 0; i < kBatchItems; ++i) {
      items.push_back(FreshQuery());
      use_xql.push_back(rng_.Below(2) == 1);
    }
    return BatchOf(items, use_xql);
  }
  QueryForms forms = FreshQuery();
  return FromForms(forms, rng_.Below(2) == 1);
}

Request RequestSource::NextHot() {
  if (rng_.Unit() < 0.10) return hot_batches_[rng_.Below(kHotBatches)];
  return FromForms(hot_pool_[hot_pick_.Sample(rng_)], rng_.Below(2) == 1);
}

Request RequestSource::Next() {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (workload_) {
    case Workload::kServeHot: return NextHot();
    case Workload::kEngineCold:
    case Workload::kRouterTopK: return NextCold();
  }
  return NextCold();
}

}  // namespace servebench
