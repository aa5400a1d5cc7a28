// CellStore — the content-addressed cell directory shared by the sweep
// artifact layer (ArtifactStore) and the estimation service's posterior
// cache (src/serve/).
//
// A cell file is `<dir>/cells/<hash>.json`: a pretty-printed JSON envelope
// whose "hash" member must round-trip the file name (a moved or corrupted
// file fails loudly) and whose "schema_version" must match this build.
// Writes are atomic (write-to-temp-then-rename), so concurrent readers —
// including a serve process warming its cache from a sweep's artifact
// directory — only ever see complete files.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "support/error.hpp"
#include "support/json.hpp"

namespace srm::artifact {

/// Artifact directory schema version; bumped on any layout or
/// serialization change so stale directories fail loudly instead of being
/// misread.
inline constexpr std::int64_t kSchemaVersion = 6;

/// A well-formed cell written under another kSchemaVersion: this build
/// must not read it, but it is not corrupt either (CellStore::load).
class StaleCell : public InvalidArgument {
 public:
  using InvalidArgument::InvalidArgument;
};

/// Library identity stamped into manifests.
inline constexpr const char* kLibraryVersion = "bayes-srm 0.5.0";

/// Reads a whole file as bytes; throws srm::Error on open/read failure.
[[nodiscard]] std::string read_text_file(const std::filesystem::path& path);

/// Write-to-temp-then-rename: readers of `path` only ever see a complete
/// file, and a killed run leaves at worst a stray .tmp that the next run
/// overwrites.
void write_file_atomic(const std::filesystem::path& path,
                       const std::string& content);

class CellStore {
 public:
  /// Opens (creating if needed) the cells/ directory under `dir`.
  explicit CellStore(std::filesystem::path dir);

  [[nodiscard]] const std::filesystem::path& directory() const { return dir_; }
  [[nodiscard]] std::filesystem::path cell_path(const std::string& hash) const;
  [[nodiscard]] bool contains(const std::string& hash) const;

  /// Loads and validates the envelope for `hash`, or nullopt if no such
  /// cell file exists. Throws srm::InvalidArgument when the file's "hash"
  /// member disagrees with its name, and StaleCell (a subclass) when its
  /// schema version is foreign.
  [[nodiscard]] std::optional<support::Json> load(
      const std::string& hash) const;

  /// Atomically writes the envelope (pretty-printed, stable bytes for a
  /// given envelope) under `hash`.
  void save(const std::string& hash, const support::Json& envelope) const;

 private:
  std::filesystem::path dir_;
};

}  // namespace srm::artifact
