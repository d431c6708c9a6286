// Seeded inputs of the serving benchmark: the XML corpus and the request
// bodies of each workload. Everything here is a pure function of the seed,
// and the program under test sees only these documents and bodies.

#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "harness.h"

namespace servebench {

enum class Workload { kEngineCold, kServeHot, kRouterTopK };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

/// Untimed warm-up exchanges per client: about a second of traffic.
size_t WarmupExchanges(Workload workload);

/// Shape of the generated corpus.
struct CorpusSpec {
  size_t documents = 8;
  size_t nodes_per_document = 2500;
  size_t vocabulary = 4000;
  double zipf_skew = 1.0;
  uint32_t min_words = 8;
  uint32_t max_words = 20;
};

struct GeneratedDocument {
  std::string name;
  std::string xml;
};

/// \brief Word of vocabulary rank `rank`: consonant-vowel syllables, at
/// least three of them, so no word collides with an XQL keyword.
std::string VocabularyWord(size_t rank);

/// \brief The corpus for `seed`: article → chapter → section → subsection
/// → paragraph trees whose paragraph and title words are Zipf-distributed
/// over the vocabulary.
std::vector<GeneratedDocument> GenerateCorpus(const CorpusSpec& spec,
                                              uint64_t seed);

/// \brief One exchange the load generator sends.
struct Request {
  enum class Kind { kQuery, kBatch };
  Kind kind = Kind::kQuery;
  std::string body;
  /// Queries the exchange carries (1, or the batch size).
  uint32_t queries = 1;
  /// A top-k query (JSON "top_k" or XQL TOP).
  bool topk = false;
  /// Carries an XQL "q" body (for a batch: any item does).
  bool xql = false;

  const char* target() const {
    return kind == Kind::kBatch ? "/query_batch" : "/query";
  }
};

/// \brief The request stream of one workload. Next() is thread-safe and
/// returns the same sequence for the same seed, whichever client asks.
///
/// engine-cold and router-topk never repeat a query: each body's result
/// cache identity (kind, sorted terms, filter, limits) is new, across
/// batches too. serve-hot draws Zipf-skewed from a small pool of cheap
/// queries and fixed batches, half of the single queries as JSON and half
/// as the equivalent XQL.
class RequestSource {
 public:
  RequestSource(Workload workload, uint64_t seed);

  Request Next();

  /// Identities handed out so far (engine-cold / router-topk).
  size_t distinct_issued() const;

 private:
  /// One query in both of its textual forms.
  struct QueryForms {
    std::string json;
    std::string xql;  // empty when the query has no XQL form
    bool topk = false;
  };

  QueryForms FreshQuery();
  QueryForms HotQuery();
  Request FromForms(const QueryForms& forms, bool use_xql) const;
  Request BatchOf(const std::vector<QueryForms>& items,
                  const std::vector<bool>& use_xql) const;
  Request NextCold();
  Request NextHot();
  std::string Term(size_t lo, size_t hi);
  bool Claim(const std::string& identity);

  Workload workload_;
  mutable std::mutex mutex_;
  Rng rng_;
  std::unordered_set<std::string> issued_;
  ZipfSampler hot_pick_;
  std::vector<QueryForms> hot_pool_;
  std::vector<Request> hot_batches_;
};

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
