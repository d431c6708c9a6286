// xfrag_cli — keyword search over XML files from the command line.
//
//   usage: xfrag_cli <file.xml|file.xdb>... <keyword>... [options]
//
//   Files are recognized by extension: .xml is parsed, .xdb is a binary
//   bundle written by --save-bundle. Multiple files form a collection and
//   answers carry document provenance.
//
//   options:
//     --filter EXPR        e.g. --filter 'size<=3 & height<=2'
//     --strategy S         auto|brute|naive|reduced|pushdown
//     --cost-model         resolve 'auto' with the Section-5 cost model
//     --leaf-strict        Definition-8 leaf condition
//     --explain            print the executed plan (single-document mode)
//     --max N              print at most N fragments (default 10)
//     --save-bundle PATH   persist the parsed document + index (single file)
//     --xml                print each answer fragment as an XML snippet
//
//   $ ./xfrag_cli paper.xml xquery optimization --filter 'size<=3' --explain

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "collection/collection_engine.h"
#include "common/strings.h"
#include "query/answers.h"
#include "query/engine.h"
#include "storage/storage.h"
#include "xml/parser.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <file.xml|file.xdb>... <keyword>... [options]\n"
      "  --filter EXPR | --strategy S | --cost-model | --leaf-strict\n"
      "  --explain | --analyze | --max N\n"
      "  --save-bundle PATH | --xml\n",
      argv0);
  return 2;
}

xfrag::StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return xfrag::Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage(argv[0]);

  std::vector<std::string> files;
  std::vector<std::string> terms;
  std::string filter_expr = "true";
  std::string strategy_name = "auto";
  std::string save_bundle_path;
  bool leaf_strict = false, explain = false, cost_model = false,
       print_xml = false, analyze = false;
  size_t max_print = 10;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--filter" && i + 1 < argc) {
      filter_expr = argv[++i];
    } else if (arg == "--strategy" && i + 1 < argc) {
      strategy_name = argv[++i];
    } else if (arg == "--save-bundle" && i + 1 < argc) {
      save_bundle_path = argv[++i];
    } else if (arg == "--leaf-strict") {
      leaf_strict = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--analyze") {
      explain = true;
      analyze = true;
    } else if (arg == "--cost-model") {
      cost_model = true;
    } else if (arg == "--xml") {
      print_xml = true;
    } else if (arg == "--max" && i + 1 < argc) {
      max_print = static_cast<size_t>(std::atol(argv[++i]));
    } else if (arg.rfind("--", 0) == 0) {
      return Usage(argv[0]);
    } else if (xfrag::EndsWith(arg, ".xml") || xfrag::EndsWith(arg, ".xdb")) {
      files.push_back(arg);
    } else {
      terms.push_back(arg);
    }
  }
  if (files.empty() || terms.empty()) return Usage(argv[0]);

  // Load everything into a collection.
  xfrag::collection::Collection collection;
  for (const std::string& path : files) {
    if (xfrag::EndsWith(path, ".xdb")) {
      auto bundle = xfrag::storage::LoadBundleFromFile(path);
      if (!bundle.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     bundle.status().ToString().c_str());
        return 1;
      }
      auto status = collection.Add(path, std::move(bundle->document));
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
    } else {
      auto content = ReadFile(path);
      if (!content.ok()) {
        std::fprintf(stderr, "%s\n", content.status().ToString().c_str());
        return 1;
      }
      auto status = collection.AddXml(path, *content);
      if (!status.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     status.ToString().c_str());
        return 1;
      }
    }
  }

  if (!save_bundle_path.empty()) {
    if (collection.size() != 1) {
      std::fprintf(stderr, "--save-bundle requires exactly one input file\n");
      return 1;
    }
    const auto& entry = collection.entry(0);
    auto status = xfrag::storage::SaveBundleToFile(
        save_bundle_path, entry.document, &entry.index);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("saved bundle: %s (%zu nodes)\n", save_bundle_path.c_str(),
                entry.document.size());
  }

  // Build the query.
  xfrag::query::Query query;
  query.terms = terms;
  auto filter = xfrag::query::ParseFilterExpression(filter_expr);
  if (!filter.ok()) {
    std::fprintf(stderr, "filter error: %s\n",
                 filter.status().ToString().c_str());
    return 1;
  }
  query.filter = *filter;

  xfrag::query::EvalOptions options;
  if (strategy_name == "auto") {
    options.strategy = xfrag::query::Strategy::kAuto;
  } else if (strategy_name == "brute") {
    options.strategy = xfrag::query::Strategy::kBruteForce;
  } else if (strategy_name == "naive") {
    options.strategy = xfrag::query::Strategy::kFixedPointNaive;
  } else if (strategy_name == "reduced") {
    options.strategy = xfrag::query::Strategy::kFixedPointReduced;
  } else if (strategy_name == "pushdown") {
    options.strategy = xfrag::query::Strategy::kPushDown;
  } else {
    return Usage(argv[0]);
  }
  options.optimizer.use_cost_model = cost_model;
  options.analyze = analyze;
  if (leaf_strict) {
    options.answer_mode = xfrag::query::AnswerMode::kLeafStrict;
  }

  // Evaluate over the collection.
  xfrag::collection::CollectionEngine engine(collection);
  xfrag::collection::CollectionEvalOptions collection_options;
  collection_options.per_document = options;
  auto result = engine.Evaluate(query, collection_options);
  if (!result.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("%zu fragment(s) for %s across %zu document(s) "
              "(%zu evaluated, %zu skipped) in %.2f ms\n",
              result->answers.size(), query.ToString().c_str(),
              collection.size(), result->documents_evaluated,
              result->documents_skipped, result->elapsed_ms);

  size_t shown = 0;
  for (const auto& answer : result->answers) {
    if (shown++ == max_print) {
      std::printf("... (%zu more; raise --max to see them)\n",
                  result->answers.size() - max_print);
      break;
    }
    const auto& entry = collection.entry(answer.document_index);
    std::printf("\n-- %s %s (root <%s>, size %zu) --\n",
                entry.name.c_str(),
                answer.fragment.ToString().c_str(),
                std::string(entry.document.tag(answer.fragment.root())).c_str(),
                answer.fragment.size());
    if (print_xml) {
      std::printf("%s", xfrag::query::FragmentToXml(
                            answer.fragment, entry.document,
                            /*mark_elisions=*/true)
                            .c_str());
    } else {
      for (auto n : answer.fragment.nodes()) {
        std::string text(entry.document.text(n));
        if (text.size() > 70) text = text.substr(0, 67) + "...";
        std::printf("  n%-5u <%s> %s\n", n, std::string(entry.document.tag(n)).c_str(),
                    text.c_str());
      }
    }
  }

  if (explain && collection.size() == 1) {
    const auto& entry = collection.entry(0);
    xfrag::query::QueryEngine single(entry.document, entry.index);
    options.executor.subtree_classes = &entry.classes;
    auto single_result = single.Evaluate(query, options);
    if (single_result.ok()) {
      std::printf("\nEXPLAIN:\n%s", single_result->explain.c_str());
    }
  }
  return 0;
}
