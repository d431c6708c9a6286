// Library indexer: the full production pipeline on one screen.
//
//  1. Generate a small library of XML files on disk (stand-in for a real
//     document-centric corpus).
//  2. Parse + index each file once and persist it as a binary bundle (.xdb).
//  3. Reload the bundles into a Collection (no re-parsing, checksums
//     verified) and run keyword queries across the whole library with
//     provenance and overlap grouping.
//
//   $ ./library_indexer [num_documents]

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "collection/collection_engine.h"
#include "common/timer.h"
#include "gen/corpus.h"
#include "query/answers.h"
#include "storage/storage.h"
#include "text/inverted_index.h"
#include "xml/parser.h"

namespace fs = std::filesystem;

int main(int argc, char** argv) {
  size_t documents = 12;
  if (argc > 1) documents = static_cast<size_t>(std::atol(argv[1]));
  fs::path workdir = fs::temp_directory_path() / "xfrag_library";
  fs::create_directories(workdir);

  // --- 1. Write the raw XML library -------------------------------------
  std::printf("writing %zu XML files to %s\n", documents,
              workdir.string().c_str());
  for (size_t i = 0; i < documents; ++i) {
    xfrag::gen::CorpusProfile profile;
    profile.target_nodes = 600;
    profile.seed = 9000 + i;
    xfrag::gen::RawCorpus raw = xfrag::gen::GenerateRaw(profile);
    xfrag::Rng rng(9500 + i);
    xfrag::gen::PlantKeyword(&raw, "replication", 6,
                             xfrag::gen::PlantMode::kClustered, &rng);
    if (i % 2 == 0) {
      xfrag::gen::PlantKeyword(&raw, "consensus", 5,
                               xfrag::gen::PlantMode::kClustered, &rng);
    }
    std::ofstream out(workdir / ("vol" + std::to_string(i) + ".xml"));
    out << xfrag::gen::ToXml(raw);
  }

  // --- 2. Index each file into a bundle ----------------------------------
  xfrag::Timer index_timer;
  size_t total_nodes = 0;
  for (size_t i = 0; i < documents; ++i) {
    fs::path xml_path = workdir / ("vol" + std::to_string(i) + ".xml");
    std::ifstream in(xml_path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    auto dom = xfrag::xml::Parse(content);
    if (!dom.ok()) {
      std::fprintf(stderr, "%s\n", dom.status().ToString().c_str());
      return 1;
    }
    auto document = xfrag::doc::Document::FromDom(*dom);
    if (!document.ok()) return 1;
    auto index = xfrag::text::InvertedIndex::Build(*document);
    total_nodes += document->size();
    auto status = xfrag::storage::SaveBundleToFile(
        (workdir / ("vol" + std::to_string(i) + ".xdb")).string(), *document,
        &index);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  std::printf("indexed %zu nodes into bundles in %.1f ms\n", total_nodes,
              index_timer.ElapsedMillis());

  // --- 3. Reload bundles and query the collection ------------------------
  xfrag::Timer load_timer;
  xfrag::collection::Collection library;
  for (size_t i = 0; i < documents; ++i) {
    std::string name = "vol" + std::to_string(i);
    auto bundle = xfrag::storage::LoadBundleFromFile(
        (workdir / (name + ".xdb")).string());
    if (!bundle.ok()) {
      std::fprintf(stderr, "%s\n", bundle.status().ToString().c_str());
      return 1;
    }
    if (!library.Add(name, std::move(bundle->document)).ok()) return 1;
  }
  std::printf("reloaded %zu bundles in %.1f ms (no re-parsing)\n",
              library.size(), load_timer.ElapsedMillis());

  xfrag::collection::CollectionEngine engine(library);
  xfrag::query::Query query;
  query.terms = {"replication", "consensus"};
  query.filter = *xfrag::query::ParseFilterExpression("size<=5 & height<=2");
  auto result = engine.Evaluate(query);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\nquery %s: %zu fragments from %zu/%zu documents (%zu skipped) in "
      "%.2f ms\n",
      query.ToString().c_str(), result->answers.size(),
      result->documents_evaluated, library.size(),
      result->documents_skipped, result->elapsed_ms);

  // Group per document for presentation.
  size_t shown = 0;
  for (const auto& answer : result->answers) {
    if (shown++ == 6) {
      std::printf("  ... (%zu more)\n", result->answers.size() - 6);
      break;
    }
    std::printf("  [%s] %s\n",
                library.entry(answer.document_index).name.c_str(),
                answer.fragment.ToString().c_str());
  }
  return 0;
}
