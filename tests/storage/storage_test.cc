// Storage: varint/string primitives, document & index round-trips,
// corruption detection, and file persistence.

#include "storage/storage.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "../testutil.h"
#include "gen/corpus.h"
#include "gen/paper_document.h"
#include "storage/format.h"

namespace xfrag::storage {
namespace {

TEST(FormatTest, VarintRoundTrip) {
  for (uint64_t value :
       {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
        0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}) {
    std::string buffer;
    PutVarint(value, &buffer);
    Reader reader(buffer);
    auto decoded = reader.ReadVarint();
    ASSERT_TRUE(decoded.ok()) << value;
    EXPECT_EQ(*decoded, value);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(FormatTest, VarintEncodingIsCompact) {
  std::string one_byte, two_bytes;
  PutVarint(127, &one_byte);
  PutVarint(128, &two_bytes);
  EXPECT_EQ(one_byte.size(), 1u);
  EXPECT_EQ(two_bytes.size(), 2u);
}

TEST(FormatTest, TruncatedVarintRejected) {
  std::string buffer;
  PutVarint(300, &buffer);
  Reader reader(std::string_view(buffer).substr(0, 1));
  EXPECT_FALSE(reader.ReadVarint().ok());
}

TEST(FormatTest, MaxLengthVarintAccepted) {
  // UINT64_MAX encodes to exactly kMaxVarintBytes bytes.
  std::string buffer;
  PutVarint(0xFFFFFFFFFFFFFFFFull, &buffer);
  EXPECT_EQ(buffer.size(), static_cast<size_t>(kMaxVarintBytes));
  Reader reader(buffer);
  auto decoded = reader.ReadVarint();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, 0xFFFFFFFFFFFFFFFFull);
}

TEST(FormatTest, OverlongVarintRejected) {
  // Eleven continuation bytes: a malicious encoding that would decode to a
  // value no 64-bit varint can hold. The reader must stop at the 10-byte
  // cap with ParseError instead of looping or wrapping.
  std::string buffer(11, '\x80');
  buffer.push_back('\x01');
  Reader reader(buffer);
  auto decoded = reader.ReadVarint();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(FormatTest, VarintHighBitOverflowRejected) {
  // Ten bytes whose final byte carries more than the single bit that fits
  // into bit 63: accepting it would silently truncate the value.
  std::string buffer(9, '\x80');
  buffer.push_back('\x02');  // Shift 63, payload 2 > 1.
  Reader reader(buffer);
  auto decoded = reader.ReadVarint();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(FormatTest, AllContinuationBytesRejected) {
  // No terminator at all — must be truncation/overflow, never a hang.
  std::string buffer(64, '\x80');
  Reader reader(buffer);
  EXPECT_FALSE(reader.ReadVarint().ok());
}

TEST(FormatTest, StringRoundTrip) {
  std::string buffer;
  PutString("", &buffer);
  PutString("hello", &buffer);
  std::string binary("\x00\xFF\x80 raw", 8);
  PutString(binary, &buffer);
  Reader reader(buffer);
  EXPECT_EQ(*reader.ReadString(), "");
  EXPECT_EQ(*reader.ReadString(), "hello");
  EXPECT_EQ(*reader.ReadString(), binary);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(FormatTest, TruncatedStringRejected) {
  std::string buffer;
  PutString("hello world", &buffer);
  Reader reader(std::string_view(buffer).substr(0, 4));
  EXPECT_FALSE(reader.ReadString().ok());
}

TEST(FormatTest, Fixed64RoundTrip) {
  std::string buffer;
  PutFixed64(0xdeadbeefcafef00dULL, &buffer);
  EXPECT_EQ(buffer.size(), 8u);
  Reader reader(buffer);
  EXPECT_EQ(*reader.ReadFixed64(), 0xdeadbeefcafef00dULL);
}

TEST(FormatTest, ChecksumDetectsChanges) {
  EXPECT_EQ(Checksum("abc"), Checksum("abc"));
  EXPECT_NE(Checksum("abc"), Checksum("abd"));
  EXPECT_NE(Checksum("abc"), Checksum("ab"));
}

void ExpectDocumentsEqual(const doc::Document& a, const doc::Document& b) {
  ASSERT_EQ(a.size(), b.size());
  for (doc::NodeId n = 0; n < a.size(); ++n) {
    EXPECT_EQ(a.parent(n), b.parent(n)) << n;
    EXPECT_EQ(a.tag(n), b.tag(n)) << n;
    EXPECT_EQ(a.text(n), b.text(n)) << n;
  }
}

TEST(BundleTest, DocumentOnlyRoundTrip) {
  auto document = gen::BuildPaperDocument();
  ASSERT_TRUE(document.ok());
  std::string data = WriteBundle(*document);
  auto bundle = ReadBundle(data);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ExpectDocumentsEqual(*document, bundle->document);
  EXPECT_FALSE(bundle->index.has_value());
}

TEST(BundleTest, DocumentAndIndexRoundTrip) {
  auto document = gen::BuildPaperDocument();
  ASSERT_TRUE(document.ok());
  auto index = text::InvertedIndex::Build(*document);
  std::string data = WriteBundle(*document, &index);
  auto bundle = ReadBundle(data);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ASSERT_TRUE(bundle->index.has_value());
  EXPECT_EQ(bundle->index->term_count(), index.term_count());
  EXPECT_EQ(bundle->index->posting_count(), index.posting_count());
  EXPECT_EQ(bundle->index->Lookup("xquery"), index.Lookup("xquery"));
  EXPECT_EQ(bundle->index->Lookup("optimization"),
            index.Lookup("optimization"));
}

TEST(BundleTest, GeneratedCorpusRoundTrip) {
  gen::CorpusProfile profile;
  profile.target_nodes = 800;
  profile.seed = 33;
  gen::RawCorpus raw = gen::GenerateRaw(profile);
  Rng rng(34);
  gen::PlantKeyword(&raw, "kwone", 10, gen::PlantMode::kClustered, &rng);
  auto document = gen::Materialize(raw);
  ASSERT_TRUE(document.ok());
  auto index = text::InvertedIndex::Build(*document);
  std::string data = WriteBundle(*document, &index);
  auto bundle = ReadBundle(data);
  ASSERT_TRUE(bundle.ok());
  ExpectDocumentsEqual(*document, bundle->document);
  // Reloaded index answers queries identically.
  ASSERT_TRUE(bundle->index.has_value());
  for (const auto& term : index.Terms()) {
    EXPECT_EQ(bundle->index->Lookup(term), index.Lookup(term)) << term;
  }
}

TEST(BundleTest, CorruptionRejected) {
  auto document = gen::BuildPaperDocument();
  ASSERT_TRUE(document.ok());
  std::string data = WriteBundle(*document);
  // Flip one byte in the middle (inside the sections payload).
  std::string corrupted = data;
  corrupted[corrupted.size() / 2] ^= 0x40;
  auto bundle = ReadBundle(corrupted);
  ASSERT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), StatusCode::kParseError);
}

TEST(BundleTest, TruncationRejected) {
  auto document = gen::BuildPaperDocument();
  ASSERT_TRUE(document.ok());
  std::string data = WriteBundle(*document);
  for (size_t keep : {size_t{3}, data.size() / 2, data.size() - 1}) {
    EXPECT_FALSE(ReadBundle(std::string_view(data).substr(0, keep)).ok())
        << "kept " << keep << " bytes";
  }
}

TEST(BundleTest, BadMagicRejected) {
  EXPECT_FALSE(ReadBundle("NOTADB..").ok());
  EXPECT_FALSE(ReadBundle("").ok());
}

TEST(BundleTest, FileRoundTrip) {
  auto document = gen::BuildPaperDocument();
  ASSERT_TRUE(document.ok());
  auto index = text::InvertedIndex::Build(*document);
  std::string path = testutil::ProcessTempDir() + "/xfrag_bundle_test.xdb";
  ASSERT_TRUE(SaveBundleToFile(path, *document, &index).ok());
  auto bundle = LoadBundleFromFile(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ExpectDocumentsEqual(*document, bundle->document);
  ASSERT_TRUE(bundle->index.has_value());
  std::remove(path.c_str());
}

TEST(BundleTest, LoadErrorNamesThePath) {
  std::string path = testutil::ProcessTempDir() + "/xfrag_bundle_corrupt.xdb";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "XFRAGDB1 but then garbage";
  }
  auto bundle = LoadBundleFromFile(path);
  ASSERT_FALSE(bundle.ok());
  EXPECT_NE(bundle.status().message().find(path), std::string::npos)
      << bundle.status().ToString();
  std::remove(path.c_str());
}

TEST(BundleTest, FailedSaveLeavesNoTempFile) {
  auto document = gen::BuildPaperDocument();
  ASSERT_TRUE(document.ok());
  // Target an occupied directory: the temp file writes fine but the final
  // rename must fail, and the temp must be cleaned up afterwards.
  std::string dir = testutil::ProcessTempDir() + "/xfrag_save_target_dir";
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  std::string inner = dir + "/occupant";
  { std::ofstream out(inner); out << "x"; }
  auto saved = SaveBundleToFile(dir, *document, nullptr);
  EXPECT_FALSE(saved.ok());
  for (const auto& entry :
       std::filesystem::directory_iterator(testutil::ProcessTempDir())) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << "temp file survived a failed save: " << entry.path();
  }
  std::remove(inner.c_str());
  ::rmdir(dir.c_str());
}

TEST(BundleTest, MissingFileIsNotFound) {
  auto bundle = LoadBundleFromFile("/nonexistent/path/file.xdb");
  ASSERT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), StatusCode::kNotFound);
}

TEST(IndexFromPostingsTest, Validation) {
  std::unordered_map<std::string, std::vector<doc::NodeId>> good{
      {"alpha", {1, 3, 5}}};
  EXPECT_TRUE(text::InvertedIndex::FromPostings(good).ok());
  std::unordered_map<std::string, std::vector<doc::NodeId>> unsorted{
      {"alpha", {3, 1}}};
  EXPECT_FALSE(text::InvertedIndex::FromPostings(unsorted).ok());
  std::unordered_map<std::string, std::vector<doc::NodeId>> duplicate{
      {"alpha", {1, 1}}};
  EXPECT_FALSE(text::InvertedIndex::FromPostings(duplicate).ok());
  std::unordered_map<std::string, std::vector<doc::NodeId>> uppercase{
      {"Alpha", {1}}};
  EXPECT_FALSE(text::InvertedIndex::FromPostings(uppercase).ok());
  std::unordered_map<std::string, std::vector<doc::NodeId>> empty_term{
      {"", {1}}};
  EXPECT_FALSE(text::InvertedIndex::FromPostings(empty_term).ok());
}

}  // namespace
}  // namespace xfrag::storage
