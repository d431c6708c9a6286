#include "collection/collection.h"

#include "xml/parser.h"

namespace xfrag::collection {

Status Collection::Add(std::string name, doc::Document document) {
  if (frozen_) {
    return Status::InvalidArgument(
        "collection is snapshot-backed (immutable); rebuild the snapshot to "
        "add documents");
  }
  if (by_name_.count(name) > 0) {
    return Status::InvalidArgument("duplicate document name '" + name + "'");
  }
  text::InvertedIndex index =
      text::InvertedIndex::Build(document, index_options_);
  doc::SubtreeClassIndex classes =
      doc::SubtreeClassIndex::Build(document, &interner_);
  Append(std::move(name), std::move(document), std::move(index),
         std::move(classes));
  return Status::OK();
}

Status Collection::AddPrebuilt(std::string name, doc::Document document,
                               text::InvertedIndex index,
                               doc::SubtreeClassIndex classes) {
  if (by_name_.count(name) > 0) {
    return Status::InvalidArgument("duplicate document name '" + name + "'");
  }
  Append(std::move(name), std::move(document), std::move(index),
         std::move(classes));
  return Status::OK();
}

void Collection::Append(std::string name, doc::Document document,
                        text::InvertedIndex index,
                        doc::SubtreeClassIndex classes) {
  const size_t i = entries_.size();
  by_name_[name] = i;
  entries_.push_back(std::make_unique<CollectionEntry>(
      std::move(name), std::move(document), std::move(index),
      std::move(classes)));
  auto [first, inserted] =
      first_of_root_class_.emplace(entries_[i]->classes.root_class(), i);
  if (!inserted) {
    entries_[first->second]->root_class_shared = true;
    entries_[i]->root_class_shared = true;
  }
}

Status Collection::AddXml(std::string name, std::string_view xml_text) {
  auto dom = xml::Parse(xml_text);
  if (!dom.ok()) return dom.status();
  auto document = doc::Document::FromDom(*dom);
  if (!document.ok()) return document.status();
  return Add(std::move(name), std::move(document).value());
}

StatusOr<const CollectionEntry*> Collection::Find(
    std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return Status::NotFound("no document named '" + std::string(name) + "'");
  }
  return const_cast<const CollectionEntry*>(entries_[it->second].get());
}

std::vector<std::string> Collection::Names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry->name);
  return out;
}

size_t Collection::DocumentFrequency(std::string_view term) const {
  size_t count = 0;
  for (const auto& entry : entries_) {
    if (!entry->index.Lookup(term).empty()) ++count;
  }
  return count;
}

size_t Collection::TotalNodes() const {
  size_t total = 0;
  for (const auto& entry : entries_) total += entry->document.size();
  return total;
}

}  // namespace xfrag::collection
