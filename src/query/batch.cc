#include "query/batch.h"

#include <numeric>
#include <utility>

#include "common/strings.h"

namespace xfrag::query {

std::string ScanMemo::Key(size_t document_index, std::string_view term,
                          const std::string& filter_text) {
  std::string key = StrFormat("%zu", document_index);
  key += '\x1f';
  key += AsciiToLower(term);
  key += '\x1f';
  key += filter_text;
  return key;
}

const ScanMemo::Entry* ScanMemo::Find(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

void ScanMemo::Insert(std::string key, Entry entry) {
  entries_.emplace(std::move(key), std::move(entry));
}

std::vector<std::vector<size_t>> GroupQueriesByTerms(
    const std::vector<const Query*>& queries) {
  // Union-find over item indices; terms link the items that share them.
  std::vector<size_t> parent(queries.size());
  std::iota(parent.begin(), parent.end(), size_t{0});
  auto find = [&parent](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  };
  std::unordered_map<std::string, size_t> term_owner;
  for (size_t i = 0; i < queries.size(); ++i) {
    for (const std::string& term : queries[i]->terms) {
      auto [it, inserted] = term_owner.emplace(AsciiToLower(term), i);
      if (!inserted) {
        size_t a = find(it->second);
        size_t b = find(i);
        // Smaller root wins so group identity is deterministic.
        if (a < b) parent[b] = a;
        else if (b < a) parent[a] = b;
      }
    }
  }
  // Collect members per root; roots are the smallest member of their group,
  // and a first pass in ascending index order yields groups ordered by it.
  std::unordered_map<size_t, size_t> group_of_root;
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < queries.size(); ++i) {
    size_t root = find(i);
    auto [it, inserted] = group_of_root.emplace(root, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  return groups;
}

}  // namespace xfrag::query
