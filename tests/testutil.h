// Shared helpers for the test suites.

#ifndef XFRAG_TESTS_TESTUTIL_H_
#define XFRAG_TESTS_TESTUTIL_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "algebra/fragment.h"
#include "algebra/fragment_set.h"
#include "common/rng.h"
#include "doc/document.h"

namespace xfrag::testutil {

/// A directory under ::testing::TempDir() unique to this process (mkdtemp),
/// created on first use and removed with its contents at exit. ctest runs
/// every test case as its own process, so paths built from it never collide
/// between concurrently running tests.
inline const std::string& ProcessTempDir() {
  struct Dir {
    std::string path;
    bool created = false;
    Dir() {
      std::string pattern = ::testing::TempDir();
      if (pattern.empty() || pattern.back() != '/') pattern += '/';
      pattern += "xfrag_test_XXXXXX";
      created = ::mkdtemp(pattern.data()) != nullptr;
      path = created ? pattern : ::testing::TempDir();
      if (!created) ADD_FAILURE() << "mkdtemp failed for " << pattern;
    }
    ~Dir() {
      std::error_code ignored;
      if (created) std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// Builds a document from a parent array; tags default to "n", texts empty.
inline doc::Document TreeFromParents(std::vector<doc::NodeId> parents) {
  std::vector<std::string> tags(parents.size(), "n");
  std::vector<std::string> texts(parents.size(), "");
  auto doc = doc::Document::FromParents(std::move(parents), std::move(tags),
                                        std::move(texts));
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

/// Builds a validated fragment; fails the test on invalid input.
inline algebra::Fragment Frag(const doc::Document& document,
                              std::vector<doc::NodeId> nodes) {
  auto fragment = algebra::Fragment::Create(document, std::move(nodes));
  EXPECT_TRUE(fragment.ok()) << fragment.status().ToString();
  return std::move(fragment).value();
}

/// Builds a set of single-node fragments.
inline algebra::FragmentSet Singles(std::vector<doc::NodeId> nodes) {
  algebra::FragmentSet out;
  for (doc::NodeId n : nodes) out.Insert(algebra::Fragment::Single(n));
  return out;
}

/// Random tree in *pre-order* numbering: node i attaches to one of the last
/// `window` nodes of the current rightmost path (which is exactly the set of
/// legal pre-order parents). window 1 ⇒ chain; larger windows ⇒ bushier,
/// shallower shapes.
inline doc::Document RandomTree(size_t n, size_t window, uint64_t seed) {
  Rng rng(seed);
  std::vector<doc::NodeId> parents{doc::kNoNode};
  std::vector<doc::NodeId> path{0};  // Rightmost path, root first.
  for (size_t i = 1; i < n; ++i) {
    size_t w = std::min(window, path.size());
    size_t index = path.size() - 1 - static_cast<size_t>(rng.Uniform(w));
    parents.push_back(path[index]);
    path.resize(index + 1);
    path.push_back(static_cast<doc::NodeId>(i));
  }
  return TreeFromParents(std::move(parents));
}

/// `count` distinct random single-node fragments of `document`.
inline algebra::FragmentSet RandomSingles(const doc::Document& document,
                                          size_t count, Rng* rng) {
  algebra::FragmentSet out;
  size_t guard = 0;
  while (out.size() < count && guard++ < count * 20) {
    out.Insert(algebra::Fragment::Single(
        static_cast<doc::NodeId>(rng->Uniform(document.size()))));
  }
  return out;
}

}  // namespace xfrag::testutil

#endif  // XFRAG_TESTS_TESTUTIL_H_
