// A collection of named XML documents with per-document keyword indexes —
// the deployment shape the paper claims for the model ("can accommodate a
// very large collection of XML documents", §7). Documents are independent
// retrieval units: a fragment never spans documents, so collection-level
// evaluation is per-document evaluation plus a merge
// (collection_engine.h).

#ifndef XFRAG_COLLECTION_COLLECTION_H_
#define XFRAG_COLLECTION_COLLECTION_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "doc/document.h"
#include "doc/subtree_classes.h"
#include "text/inverted_index.h"

namespace xfrag::collection {

/// \brief One member document with its index and subtree-class view.
struct CollectionEntry {
  std::string name;
  doc::Document document;
  text::InvertedIndex index;
  /// Subtree equivalence classes of `document`, interned against the
  /// collection-global interner at Add time (doc/subtree_classes.h). Drives
  /// DAG-compressed evaluation: `classes.root_class()` identifies duplicate
  /// documents, and the kernels consume the per-node class structure.
  doc::SubtreeClassIndex classes;
  /// True when another member document has the same root class (is
  /// byte-identical): only such documents can be served by replay.
  bool root_class_shared = false;

  CollectionEntry(std::string n, doc::Document d, text::InvertedIndex i,
                  doc::SubtreeClassIndex c)
      : name(std::move(n)),
        document(std::move(d)),
        index(std::move(i)),
        classes(std::move(c)) {}
};

/// \brief An ordered, name-addressable set of documents.
class Collection {
 public:
  Collection() = default;

  /// Indexing configuration applied to documents added afterwards.
  explicit Collection(text::IndexOptions index_options)
      : index_options_(index_options) {}

  /// \brief Adds a document under `name` (must be unique). Builds its index.
  /// Fails on a frozen (snapshot-backed) collection.
  Status Add(std::string name, doc::Document document);

  /// \brief Parses `xml_text` and adds it under `name`.
  Status AddXml(std::string name, std::string_view xml_text);

  /// \brief Adds an already-constructed entry (the snapshot load path:
  /// document, index, and classes were rebuilt zero-copy over the mapping,
  /// so nothing is re-derived here). `name` must still be unique.
  Status AddPrebuilt(std::string name, doc::Document document,
                     text::InvertedIndex index, doc::SubtreeClassIndex classes);

  /// \brief Replaces the collection-global interner (snapshot load path —
  /// the per-class statistics come from the file's class table). Only valid
  /// while the collection is empty of interned state, i.e. before any Add.
  void AdoptSubtreeClassStats(doc::SubtreeClassInterner interner) {
    interner_ = std::move(interner);
  }

  /// \brief Anchors an external resource (the snapshot mapping) for the
  /// collection's lifetime. Entries built over mmap-ed columns borrow from
  /// it, so it must die after them.
  void HoldResource(std::shared_ptr<void> resource) {
    resources_.push_back(std::move(resource));
    frozen_ = true;
  }

  /// True when the collection is snapshot-backed and thus immutable.
  bool frozen() const { return frozen_; }

  /// Number of documents.
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Entries in insertion order.
  const CollectionEntry& entry(size_t i) const { return *entries_[i]; }

  /// Entry by name, or NotFound.
  StatusOr<const CollectionEntry*> Find(std::string_view name) const;

  /// Document names in insertion order.
  std::vector<std::string> Names() const;

  /// Number of member documents whose index contains `term`.
  size_t DocumentFrequency(std::string_view term) const;

  /// Total nodes across all documents.
  size_t TotalNodes() const;

  /// Number of distinct root classes, i.e. of pairwise non-identical
  /// documents.
  size_t DistinctDocuments() const { return first_of_root_class_.size(); }

  /// The collection-global subtree-class interner (class ids are comparable
  /// across member documents).
  const doc::SubtreeClassInterner& subtree_classes() const {
    return interner_;
  }

 private:
  text::IndexOptions index_options_;
  doc::SubtreeClassInterner interner_;
  // Declared before entries_ so the mapping outlives the views during
  // destruction (members are destroyed in reverse declaration order).
  std::vector<std::shared_ptr<void>> resources_;
  std::vector<std::unique_ptr<CollectionEntry>> entries_;
  std::unordered_map<std::string, size_t> by_name_;
  /// The first member of each root class, for root_class_shared.
  std::unordered_map<doc::SubtreeClassId, size_t> first_of_root_class_;
  bool frozen_ = false;

  /// Appends an entry, marking it and its first same-class member shared.
  void Append(std::string name, doc::Document document,
              text::InvertedIndex index, doc::SubtreeClassIndex classes);
};

}  // namespace xfrag::collection

#endif  // XFRAG_COLLECTION_COLLECTION_H_
