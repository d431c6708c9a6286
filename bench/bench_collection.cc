// Collection-scale evaluation (the paper's "very large collection of XML
// documents" deployment, §7): term-presence skipping across a generated
// library.

#include <cstdio>

#include "bench_util.h"
#include "collection/collection_engine.h"
#include "gen/corpus.h"

using namespace xfrag;

namespace {

// A library where only every `hit_every`-th document contains both terms.
collection::Collection MakeLibrary(size_t documents, size_t nodes_each,
                                   size_t hit_every) {
  collection::Collection library;
  for (size_t i = 0; i < documents; ++i) {
    gen::CorpusProfile profile;
    profile.target_nodes = nodes_each;
    profile.seed = 5000 + i;
    gen::RawCorpus raw = gen::GenerateRaw(profile);
    Rng rng(6000 + i);
    gen::PlantKeyword(&raw, "kwone", 6, gen::PlantMode::kClustered, &rng);
    if (i % hit_every == 0) {
      gen::PlantKeyword(&raw, "kwtwo", 5, gen::PlantMode::kClustered, &rng);
    }
    auto document = gen::Materialize(raw);
    if (!document.ok()) std::abort();
    if (!library
             .Add("doc" + std::to_string(i), std::move(document).value())
             .ok()) {
      std::abort();
    }
  }
  return library;
}

}  // namespace

int main() {
  bench::Banner("Term-presence skipping across a 64-document library");
  {
    bench::TablePrinter table({"hit ratio", "evaluated", "skipped",
                               "answers", "ms"});
    for (size_t hit_every : {1u, 2u, 4u, 16u}) {
      collection::Collection library = MakeLibrary(64, 800, hit_every);
      collection::CollectionEngine engine(library);
      query::Query q;
      q.terms = {"kwone", "kwtwo"};
      q.filter = algebra::filters::SizeAtMost(5);
      collection::CollectionEvalOptions options;
      size_t evaluated = 0, skipped = 0, answers = 0;
      double ms = bench::MedianMillis(
          [&] {
            auto result = engine.Evaluate(q, options);
            if (!result.ok()) std::abort();
            evaluated = result->documents_evaluated;
            skipped = result->documents_skipped;
            answers = result->answers.size();
          },
          5);
      table.AddRow({bench::Cell(1.0 / static_cast<double>(hit_every), 2),
                    bench::Cell(evaluated), bench::Cell(skipped),
                    bench::Cell(answers), bench::Cell(ms, 2)});
    }
    table.Print();
    std::printf("\nEvaluation cost tracks the number of documents containing "
                "all terms, not the\nlibrary size — conjunctive skipping is "
                "the collection-level analogue of the\nbase keyword "
                "selection.\n");
  }

  return 0;
}
