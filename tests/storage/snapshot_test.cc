// Snapshot format: write → mmap → zero-copy load round-trips, metadata
// fidelity, and the adversarial-input surface — truncation at every layer,
// bit flips over the whole file (superblock, TOC, and every section), and
// structurally invalid columns whose checksums have been made consistent
// again, which only the structural validation pass can catch — plus
// concurrent writers to one path.

#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "../testutil.h"
#include "collection/collection.h"
#include "gen/corpus.h"
#include "gen/paper_document.h"
#include "storage/format.h"

namespace xfrag::storage {
namespace {

constexpr const char* kDocA = R"(
  <paper>
    <title>XQuery optimization</title>
    <section>algebra for fragments
      <par>query algebra</par>
      <par>optimization rules</par>
    </section>
  </paper>)";
constexpr const char* kDocB = R"(
  <book>
    <chapter>fragment retrieval
      <par>xquery engines</par>
      <par>ranking fragments</par>
    </chapter>
    <chapter>fragment retrieval
      <par>xquery engines</par>
      <par>ranking fragments</par>
    </chapter>
  </book>)";

std::string TestPath(const std::string& name) {
  return testutil::ProcessTempDir() + "/" + name;
}

/// A small mixed collection: two XML documents (kDocB has duplicate
/// subtrees, so the class table is non-trivial) plus the paper example.
collection::Collection BuildCollection() {
  collection::Collection collection;
  EXPECT_TRUE(collection.AddXml("a.xml", kDocA).ok());
  EXPECT_TRUE(collection.AddXml("b.xml", kDocB).ok());
  auto paper = gen::BuildPaperDocument();
  EXPECT_TRUE(paper.ok());
  EXPECT_TRUE(collection.Add("paper.xml", std::move(*paper)).ok());
  return collection;
}

std::string WriteTestSnapshot(const collection::Collection& collection,
                              const std::string& name) {
  std::string path = TestPath(name);
  auto written = WriteSnapshot(collection, text::IndexOptions{}, path);
  EXPECT_TRUE(written.ok()) << written.ToString();
  return path;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

void WriteWholeFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  EXPECT_TRUE(out.good()) << path;
}

uint64_t ReadU64At(const std::string& data, size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, data.data() + offset, sizeof(v));
  return v;
}

void WriteU64At(std::string* data, size_t offset, uint64_t v) {
  std::memcpy(data->data() + offset, &v, sizeof(v));
}

// Superblock field offsets (must match snapshot.cc).
constexpr size_t kOffTocOffset = 32;
constexpr size_t kOffTocBytes = 40;
constexpr size_t kOffTocChecksum = 48;
constexpr size_t kOffHeaderChecksum = 56;

struct TocEntry {
  uint64_t kind = 0;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint64_t checksum = 0;
  size_t checksum_position = 0;  // Absolute file offset of the fixed64.
};

/// Parses the TOC out of raw file bytes, remembering where each section
/// checksum lives so tests can rewrite it in place.
std::vector<TocEntry> ParseToc(const std::string& data) {
  std::vector<TocEntry> entries;
  uint64_t toc_offset = ReadU64At(data, kOffTocOffset);
  uint64_t toc_bytes = ReadU64At(data, kOffTocBytes);
  std::string_view toc(data.data() + toc_offset, toc_bytes);
  Reader reader(toc);
  auto count = reader.ReadVarint();
  EXPECT_TRUE(count.ok());
  for (uint64_t i = 0; i < *count; ++i) {
    TocEntry entry;
    entry.kind = *reader.ReadVarint();
    entry.offset = *reader.ReadVarint();
    entry.bytes = *reader.ReadVarint();
    entry.checksum_position =
        static_cast<size_t>(toc_offset) + reader.position();
    entry.checksum = *reader.ReadFixed64();
    entries.push_back(entry);
  }
  return entries;
}

/// After a test mutates section bytes, make the file checksum-consistent
/// again: recompute each section checksum, the TOC checksum, and the header
/// checksum. What remains wrong afterwards is only the structure itself.
void FixupChecksums(std::string* data) {
  for (const TocEntry& entry : ParseToc(*data)) {
    uint64_t checksum = Checksum(
        std::string_view(data->data() + entry.offset, entry.bytes));
    WriteU64At(data, entry.checksum_position, checksum);
  }
  uint64_t toc_offset = ReadU64At(*data, kOffTocOffset);
  uint64_t toc_bytes = ReadU64At(*data, kOffTocBytes);
  WriteU64At(data, kOffTocChecksum,
             Checksum(std::string_view(data->data() + toc_offset, toc_bytes)));
  WriteU64At(data, kOffHeaderChecksum,
             Checksum(std::string_view(data->data(), kOffHeaderChecksum)));
}

const TocEntry& FindSection(const std::vector<TocEntry>& toc,
                            SectionKind kind) {
  for (const TocEntry& entry : toc) {
    if (entry.kind == static_cast<uint64_t>(kind)) return entry;
  }
  ADD_FAILURE() << "section " << static_cast<uint64_t>(kind) << " missing";
  static TocEntry missing;
  return missing;
}

TEST(SnapshotTest, EmptyCollectionRejected) {
  collection::Collection empty;
  auto written =
      WriteSnapshot(empty, text::IndexOptions{}, TestPath("empty.snap"));
  EXPECT_FALSE(written.ok());
}

TEST(SnapshotTest, MetadataRoundTrip) {
  auto collection = BuildCollection();
  std::string path = WriteTestSnapshot(collection, "meta.snap");
  auto reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const SnapshotMeta& meta = (*reader)->meta();
  EXPECT_EQ(meta.doc_count, collection.size());
  EXPECT_EQ(meta.node_count, collection.TotalNodes());
  EXPECT_EQ(meta.child_count, meta.node_count - meta.doc_count);
  ASSERT_EQ((*reader)->documents().size(), collection.size());
  uint64_t node_base = 0, term_base = 0;
  for (size_t i = 0; i < collection.size(); ++i) {
    const SnapshotDocRecord& record = (*reader)->documents()[i];
    const auto& entry = collection.entry(i);
    EXPECT_EQ(record.name, entry.name);
    EXPECT_EQ(record.node_count, entry.document.size());
    EXPECT_EQ(record.term_count, entry.index.term_count());
    EXPECT_EQ(record.node_base, node_base);
    EXPECT_EQ(record.term_base, term_base);
    node_base += record.node_count;
    term_base += record.term_count;
  }
  const SnapshotOpenStats& stats = (*reader)->open_stats();
  EXPECT_GT(stats.file_bytes, 0u);
  EXPECT_EQ(stats.mapped_bytes, stats.file_bytes);
  EXPECT_GE(stats.open_ms, 0.0);
  EXPECT_TRUE((*reader)->VerifyChecksums().ok());
}

TEST(SnapshotTest, LoadedCollectionMatchesOriginal) {
  auto collection = BuildCollection();
  std::string path = WriteTestSnapshot(collection, "roundtrip.snap");
  auto loaded = LoadCollectionFromSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->collection.size(), collection.size());
  EXPECT_TRUE(loaded->collection.frozen());
  for (size_t i = 0; i < collection.size(); ++i) {
    const auto& original = collection.entry(i);
    const auto& copy = loaded->collection.entry(i);
    SCOPED_TRACE(original.name);
    EXPECT_EQ(copy.name, original.name);
    ASSERT_EQ(copy.document.size(), original.document.size());
    EXPECT_TRUE(copy.document.snapshot_backed());
    for (doc::NodeId n = 0; n < original.document.size(); ++n) {
      EXPECT_EQ(copy.document.parent(n), original.document.parent(n)) << n;
      EXPECT_EQ(copy.document.tag(n), original.document.tag(n)) << n;
      EXPECT_EQ(copy.document.text(n), original.document.text(n)) << n;
      EXPECT_EQ(copy.document.depth(n), original.document.depth(n)) << n;
      EXPECT_EQ(copy.document.subtree_size(n),
                original.document.subtree_size(n))
          << n;
      auto copy_children = copy.document.children(n);
      auto original_children = original.document.children(n);
      ASSERT_EQ(copy_children.size(), original_children.size()) << n;
      for (size_t c = 0; c < copy_children.size(); ++c) {
        EXPECT_EQ(copy_children[c], original_children[c]);
      }
    }
    // LCA agrees on every pair (the snapshot path climbs parents, the
    // in-memory path uses the sparse table).
    for (doc::NodeId a = 0; a < original.document.size(); ++a) {
      for (doc::NodeId b = a; b < original.document.size(); ++b) {
        EXPECT_EQ(copy.document.Lca(a, b), original.document.Lca(a, b))
            << a << "," << b;
      }
    }
    // The text index answers identically for every stored term.
    EXPECT_EQ(copy.index.term_count(), original.index.term_count());
    EXPECT_EQ(copy.index.posting_count(), original.index.posting_count());
    for (const auto& term : original.index.Terms()) {
      EXPECT_EQ(copy.index.Lookup(term), original.index.Lookup(term)) << term;
    }
    EXPECT_TRUE(copy.index.Lookup("no-such-term-anywhere").empty());
    // Subtree classes: same per-document duplication statistics.
    EXPECT_EQ(copy.classes.duplicated_nodes(),
              original.classes.duplicated_nodes());
    for (doc::NodeId n = 0; n < original.document.size(); ++n) {
      EXPECT_EQ(copy.classes.class_of(n), original.classes.class_of(n)) << n;
    }
  }
}

TEST(SnapshotTest, LoadedCollectionIsImmutable) {
  auto collection = BuildCollection();
  std::string path = WriteTestSnapshot(collection, "frozen.snap");
  auto loaded = LoadCollectionFromSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  auto added = loaded->collection.AddXml("late.xml", "<a>text</a>");
  EXPECT_FALSE(added.ok());
}

TEST(SnapshotTest, CollectionOutlivesReaderHandle) {
  auto collection = BuildCollection();
  std::string path = WriteTestSnapshot(collection, "anchor.snap");
  auto loaded = LoadCollectionFromSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  // Dropping the reader handle must not unmap the file: the collection
  // anchors it. Touch every document afterwards.
  loaded->reader.reset();
  collection::Collection survivor = std::move(loaded->collection);
  for (size_t i = 0; i < survivor.size(); ++i) {
    const auto& entry = survivor.entry(i);
    for (doc::NodeId n = 0; n < entry.document.size(); ++n) {
      EXPECT_FALSE(entry.document.tag(n).empty());
    }
  }
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  auto reader = SnapshotReader::Open("/nonexistent/dir/x.snap");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, BadMagicRejected) {
  auto collection = BuildCollection();
  std::string path = WriteTestSnapshot(collection, "magic.snap");
  std::string data = ReadWholeFile(path);
  data[0] = 'Y';
  WriteWholeFile(path, data);
  auto reader = SnapshotReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
}

TEST(SnapshotTest, UnsupportedVersionRejected) {
  auto collection = BuildCollection();
  std::string path = WriteTestSnapshot(collection, "version.snap");
  std::string data = ReadWholeFile(path);
  // Patch the version and re-seal the header checksum, so the version check
  // itself (not the checksum) must reject the file.
  WriteU64At(&data, 8, kSnapshotFormatVersion + 1);
  WriteU64At(&data, kOffHeaderChecksum,
             Checksum(std::string_view(data.data(), kOffHeaderChecksum)));
  WriteWholeFile(path, data);
  auto reader = SnapshotReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("version"), std::string::npos)
      << reader.status().ToString();
}

TEST(SnapshotTest, TruncationRejectedEverywhere) {
  auto collection = BuildCollection();
  std::string path = WriteTestSnapshot(collection, "truncate.snap");
  std::string data = ReadWholeFile(path);
  std::string chopped = TestPath("truncate_chopped.snap");
  for (size_t keep : {size_t{0}, size_t{7}, size_t{63}, size_t{4095},
                      size_t{4096}, data.size() / 2, data.size() - 1}) {
    WriteWholeFile(chopped, data.substr(0, keep));
    auto reader = SnapshotReader::Open(chopped);
    EXPECT_FALSE(reader.ok()) << "kept " << keep << " of " << data.size();
  }
  std::remove(chopped.c_str());
}

TEST(SnapshotTest, TrailingGarbageRejected) {
  auto collection = BuildCollection();
  std::string path = WriteTestSnapshot(collection, "trailing.snap");
  std::string data = ReadWholeFile(path) + std::string(512, 'Z');
  WriteWholeFile(path, data);
  // file_bytes in the superblock no longer matches the mapping.
  EXPECT_FALSE(SnapshotReader::Open(path).ok());
}

// The meta and directory sections are interpreted at open, before any
// VerifyChecksums pass could run, so a flip inside them must be rejected by
// Open itself — not parsed cleanly (a flipped tokenizer option would
// silently change query normalization).
TEST(SnapshotTest, MetaFlipRejectedAtOpen) {
  auto collection = BuildCollection();
  std::string path = WriteTestSnapshot(collection, "metaflip.snap");
  std::string data = ReadWholeFile(path);
  std::vector<TocEntry> toc = ParseToc(data);
  const TocEntry& meta = FindSection(toc, SectionKind::kMeta);
  // The section's last byte is the index_tag_names flag varint; the flip
  // yields an equally well-formed record, so only the checksum can object.
  data[meta.offset + meta.bytes - 1] ^= 0x01;
  WriteWholeFile(path, data);
  auto reader = SnapshotReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
}

TEST(SnapshotTest, DirectoryFlipRejectedAtOpen) {
  auto collection = BuildCollection();
  std::string path = WriteTestSnapshot(collection, "dirflip.snap");
  std::string data = ReadWholeFile(path);
  std::vector<TocEntry> toc = ParseToc(data);
  const TocEntry& directory = FindSection(toc, SectionKind::kDirectory);
  // Flip a byte of the first document's name ("a.xml" follows its length
  // prefix): still a well-formed record, a silently different name.
  data[directory.offset + 1] ^= 0x02;
  WriteWholeFile(path, data);
  auto reader = SnapshotReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
}

// Flip the first byte of every page. Page starts are never padding (the
// superblock starts page 0, each section starts its own page, the TOC
// starts the last), so every flip lands in a checksummed region and must be
// caught by Open (superblock/TOC) or VerifyChecksums (section data).
TEST(SnapshotTest, BitFlipOnEveryPageIsDetected) {
  auto collection = BuildCollection();
  std::string path = WriteTestSnapshot(collection, "bitflip.snap");
  std::string pristine = ReadWholeFile(path);
  std::string flipped_path = TestPath("bitflip_mutated.snap");
  for (size_t page = 0; page * kSnapshotPageSize < pristine.size(); ++page) {
    std::string mutated = pristine;
    mutated[page * kSnapshotPageSize] ^= 0x5A;
    WriteWholeFile(flipped_path, mutated);
    auto reader = SnapshotReader::Open(flipped_path);
    if (!reader.ok()) continue;  // Caught at open — good.
    EXPECT_FALSE((*reader)->VerifyChecksums().ok())
        << "undetected flip on page " << page;
  }
  std::remove(flipped_path.c_str());
}

// Random in-page flips: whatever happens, the validated load must either
// fail cleanly or produce a healthy collection — never crash (ASan backs
// this up in the check.sh storage stage).
TEST(SnapshotTest, RandomBitFlipsNeverCrashValidatedLoad) {
  auto collection = BuildCollection();
  std::string path = WriteTestSnapshot(collection, "fuzzflip.snap");
  std::string pristine = ReadWholeFile(path);
  std::string mutated_path = TestPath("fuzzflip_mutated.snap");
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int trial = 0; trial < 200; ++trial) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    size_t offset = static_cast<size_t>(state % pristine.size());
    std::string mutated = pristine;
    mutated[offset] ^= static_cast<char>(1u << (state >> 61));
    WriteWholeFile(mutated_path, mutated);
    auto loaded = LoadCollectionFromSnapshot(mutated_path);
    if (!loaded.ok()) continue;
    // Flip landed in padding or produced an equally valid file — reading
    // every column must still be safe.
    for (size_t i = 0; i < loaded->collection.size(); ++i) {
      const auto& entry = loaded->collection.entry(i);
      for (doc::NodeId n = 0; n < entry.document.size(); ++n) {
        (void)entry.document.tag(n);
        (void)entry.document.text(n);
        (void)entry.document.children(n);
      }
    }
  }
  std::remove(mutated_path.c_str());
}

// Several writers publish different snapshots to one path at once while a
// reader keeps opening it. Every file a reader or the final state ever sees
// must be one writer's complete snapshot, byte for byte: a temp file shared
// between writers would publish torn bytes, or make a writer's rename fail.
// No temp file may survive.
TEST(SnapshotTest, ConcurrentWritersPublishOnlyCompleteSnapshots) {
  constexpr int kWriters = 4;
  constexpr int kRounds = 12;
  std::vector<collection::Collection> collections;
  std::vector<std::string> expected;
  for (int w = 0; w < kWriters; ++w) {
    collection::Collection collection;
    gen::CorpusProfile profile;
    profile.target_nodes = 1500 + 400 * static_cast<size_t>(w);
    profile.seed = 40 + static_cast<uint64_t>(w);
    auto document = gen::Materialize(gen::GenerateRaw(profile));
    ASSERT_TRUE(document.ok());
    ASSERT_TRUE(
        collection.Add("writer" + std::to_string(w), std::move(*document))
            .ok());
    expected.push_back(ReadWholeFile(WriteTestSnapshot(
        collection, "writer" + std::to_string(w) + ".snap")));
    collections.push_back(std::move(collection));
  }
  const std::string target = WriteTestSnapshot(collections[0], "shared.snap");

  auto matches_a_writer = [&expected](const std::string& bytes) {
    return std::find(expected.begin(), expected.end(), bytes) !=
           expected.end();
  };
  std::atomic<int> ready{0};
  std::atomic<bool> done{false};
  std::atomic<int> write_failures{0};
  std::atomic<int> torn_reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      ready.fetch_add(1);
      while (ready.load() < kWriters + 1) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        if (!WriteSnapshot(collections[w], text::IndexOptions{}, target)
                 .ok()) {
          write_failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    ready.fetch_add(1);
    while (ready.load() < kWriters + 1) std::this_thread::yield();
    while (!done.load()) {
      auto reader = SnapshotReader::Open(target);
      if (!reader.ok() || !(*reader)->VerifyChecksums().ok() ||
          !matches_a_writer(ReadWholeFile(target))) {
        torn_reads.fetch_add(1);
      }
    }
  });
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  done.store(true);
  threads.back().join();

  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_EQ(torn_reads.load(), 0);
  auto reader = SnapshotReader::Open(target);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE((*reader)->VerifyChecksums().ok());
  EXPECT_TRUE(LoadCollectionFromSnapshot(target).ok());
  EXPECT_TRUE(matches_a_writer(ReadWholeFile(target)));
  for (const auto& entry :
       std::filesystem::directory_iterator(testutil::ProcessTempDir())) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << "temp file left behind: " << entry.path();
  }
}

class SnapshotStructuralAttackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto collection = BuildCollection();
    path_ = WriteTestSnapshot(collection, "attack.snap");
    pristine_ = ReadWholeFile(path_);
    toc_ = ParseToc(pristine_);
  }

  /// Overwrites one u32 inside `kind` at element `index`, re-seals every
  /// checksum, and expects the fully validated load to reject the file.
  void AttackU32(SectionKind kind, size_t index, uint32_t value,
                 const char* what) {
    std::string mutated = pristine_;
    const TocEntry& section = FindSection(toc_, kind);
    ASSERT_LT(index * sizeof(uint32_t), section.bytes);
    std::memcpy(mutated.data() + section.offset + index * sizeof(uint32_t),
                &value, sizeof(value));
    FixupChecksums(&mutated);
    std::string mutated_path = TestPath("attack_mutated.snap");
    WriteWholeFile(mutated_path, mutated);
    // Checksums are consistent again...
    auto reader = SnapshotReader::Open(mutated_path);
    if (reader.ok()) {
      EXPECT_TRUE((*reader)->VerifyChecksums().ok());
    }
    // ...so only structural validation can refuse the load.
    auto loaded = LoadCollectionFromSnapshot(mutated_path);
    EXPECT_FALSE(loaded.ok()) << what;
    std::remove(mutated_path.c_str());
  }

  std::string path_;
  std::string pristine_;
  std::vector<TocEntry> toc_;
};

TEST_F(SnapshotStructuralAttackTest, ForwardParentRejected) {
  // parents[1] = 5: a pre-order violation (parent after child).
  AttackU32(SectionKind::kParents, 1, 5, "forward parent");
}

TEST_F(SnapshotStructuralAttackTest, OutOfRangeParentRejected) {
  AttackU32(SectionKind::kParents, 2, 0x7FFFFFFF, "out-of-range parent");
}

TEST_F(SnapshotStructuralAttackTest, WrongDepthRejected) {
  AttackU32(SectionKind::kDepth, 1, 9, "depth != parent depth + 1");
}

TEST_F(SnapshotStructuralAttackTest, WrongSubtreeSizeRejected) {
  AttackU32(SectionKind::kSubtreeSize, 0, 1, "root subtree size 1");
}

TEST_F(SnapshotStructuralAttackTest, BrokenChildOffsetsRejected) {
  AttackU32(SectionKind::kChildOffsets, 1, 0x40000000, "CSR offset jump");
}

TEST_F(SnapshotStructuralAttackTest, InflatedFirstChildOffsetRejected) {
  // Inflate only the CSR base: the first document's slice would start ~4GB
  // into the child-id column.
  AttackU32(SectionKind::kChildOffsets, 0, 0x40000000, "inflated CSR base");
}

TEST_F(SnapshotStructuralAttackTest, ShiftedChildOffsetColumnRejected) {
  // Add a constant to *every* child_offsets entry. Every per-document
  // relative check (monotonicity, span == node_count - 1, shared
  // boundaries) still passes, so only the global anchor
  // (child_offsets[0] == 0) and the per-document column-extent bound stand
  // between the validator and dereferencing child_ids ~4GB past the mapped
  // section — this is the crafted file that used to SIGSEGV the validated
  // load.
  std::string mutated = pristine_;
  const TocEntry& section = FindSection(toc_, SectionKind::kChildOffsets);
  for (size_t i = 0; i * sizeof(uint32_t) < section.bytes; ++i) {
    char* at = mutated.data() + section.offset + i * sizeof(uint32_t);
    uint32_t value;
    std::memcpy(&value, at, sizeof(value));
    value += 0x40000000;
    std::memcpy(at, &value, sizeof(value));
  }
  FixupChecksums(&mutated);
  std::string mutated_path = TestPath("attack_shifted_csr.snap");
  WriteWholeFile(mutated_path, mutated);
  auto loaded = LoadCollectionFromSnapshot(mutated_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  std::remove(mutated_path.c_str());
}

TEST_F(SnapshotStructuralAttackTest, OutOfRangeChildIdRejected) {
  AttackU32(SectionKind::kChildIds, 0, 0x7FFFFFFF, "child id out of range");
}

TEST_F(SnapshotStructuralAttackTest, OutOfRangeTagIdRejected) {
  AttackU32(SectionKind::kTagIds, 0, 0x7FFFFFFF, "tag id out of dictionary");
}

TEST_F(SnapshotStructuralAttackTest, NonAncestorDupAnchorRejected) {
  // Point node 1's anchor at the last node, which cannot be its ancestor.
  const TocEntry& section = FindSection(toc_, SectionKind::kDupAnchor);
  uint32_t last = static_cast<uint32_t>(section.bytes / sizeof(uint32_t) - 1);
  AttackU32(SectionKind::kDupAnchor, 1, last, "non-ancestor dup anchor");
}

TEST_F(SnapshotStructuralAttackTest, OutOfRangeClassRejected) {
  AttackU32(SectionKind::kClassOf, 0, 0x7FFFFFFF, "class id out of table");
}

TEST_F(SnapshotStructuralAttackTest, CorruptPostingRunRejected) {
  // Stomp the head of the postings blob: decoding must fail validation (an
  // id out of range, a zero delta, or a run-length mismatch), never wander.
  std::string mutated = pristine_;
  const TocEntry& section = FindSection(toc_, SectionKind::kPostingsBlob);
  std::memset(mutated.data() + section.offset, 0xFF,
              std::min<uint64_t>(section.bytes, 8));
  FixupChecksums(&mutated);
  std::string mutated_path = TestPath("attack_postings.snap");
  WriteWholeFile(mutated_path, mutated);
  auto loaded = LoadCollectionFromSnapshot(mutated_path);
  EXPECT_FALSE(loaded.ok());
  std::remove(mutated_path.c_str());
}

TEST_F(SnapshotStructuralAttackTest, UnsortedTermDictionaryRejected) {
  // Swap the first byte of the term blob with 0x7E '~' (> any lowercase
  // letter), breaking the sorted-dictionary invariant.
  std::string mutated = pristine_;
  const TocEntry& section = FindSection(toc_, SectionKind::kTermBlob);
  ASSERT_GT(section.bytes, 0u);
  mutated[section.offset] = '~';
  FixupChecksums(&mutated);
  std::string mutated_path = TestPath("attack_terms.snap");
  WriteWholeFile(mutated_path, mutated);
  auto loaded = LoadCollectionFromSnapshot(mutated_path);
  EXPECT_FALSE(loaded.ok());
  std::remove(mutated_path.c_str());
}

}  // namespace
}  // namespace xfrag::storage
