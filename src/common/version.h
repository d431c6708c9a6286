// Build identification shared by the CLIs and the server's /version endpoint.
// Deliberately free of timestamps so identical sources produce identical
// binaries and test output.

#ifndef XFRAG_COMMON_VERSION_H_
#define XFRAG_COMMON_VERSION_H_

#include <string>

namespace xfrag {

/// Library version, bumped with each serving-visible change.
inline constexpr const char* kVersion = "0.6.0";

/// \brief Revision of the router↔shard and client↔router protocol: the
/// /query and /query_batch request fields the router understands
/// (`require_complete`), the `"partial"` response contract, and the
/// cross-shard merge ordering. Bumped whenever any of those change shape.
/// Revision 4 dropped the two-phase top-k bound exchange: top-k is one
/// scatter and an exact k-way merge. The exchange's shard endpoint is gone,
/// and its five request fields are unknown fields (a 400) like any other
/// (docs/SERVING.md, "Distributed top-k").
/// The router later began sending a /query to the shards as a one-item
/// /query_batch without a bump: the request fields, "partial" and the merge
/// order are unchanged, and every revision-4 shard serves /query_batch.
inline constexpr int kRouterProtocolRevision = 4;

/// \brief One-line build description: version, compiler, language level.
inline std::string BuildInfo(const char* binary_name) {
  std::string info = binary_name;
  info += " ";
  info += kVersion;
  info += " (xfrag algebraic XML fragment retrieval; ";
#if defined(__clang__)
  info += "clang " __clang_version__;
#elif defined(__GNUC__)
  info += "gcc " __VERSION__;
#else
  info += "unknown compiler";
#endif
  info += ", C++" + std::to_string(__cplusplus / 100 % 100) + ")";
  return info;
}

}  // namespace xfrag

#endif  // XFRAG_COMMON_VERSION_H_
