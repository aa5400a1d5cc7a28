// PosteriorCache — the service's two-tier result cache.
//
//   memory tier  insertion-ordered LRU of result envelopes, keyed by the
//                request's canonical hash (serve/protocol.hpp). Capacity
//                is --cache-size entries; eviction is strictly
//                least-recently-used and, because every mutation happens
//                on the dispatcher thread in request order, the eviction
//                sequence is a deterministic function of the request
//                stream.
//   disk tier    an artifact::CellStore (--store DIR) sharing the exact
//                cells/<hash>.json envelope format with sweep artifact
//                directories — a finished sweep warm-starts the service,
//                and a long-lived service leaves a directory a sweep can
//                resume from. Optional; without it misses always compute.
//
// Byte-identity across tiers: a memory hit returns the envelope that was
// inserted; a disk hit returns Json::parse of the file that envelope was
// dumped to; a fresh computation returns the serializer's output directly.
// artifact/serialize.cpp's round-trip contract (parse(dump(x)) == x at the
// bit level) is what makes all three produce identical response bytes.
//
// Threading: NOT thread-safe by design. All cache calls happen on the
// dispatcher thread; only fit computations fan out to the pool.
#pragma once

#include <cstddef>
#include <filesystem>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "artifact/cell_store.hpp"
#include "support/json.hpp"

namespace srm::serve {

/// Where a response body came from; the `cache` meta tag.
enum class CacheTier { kMemory, kDisk, kComputed };

[[nodiscard]] const char* to_string(CacheTier tier);

class PosteriorCache {
 public:
  /// capacity >= 1 entries in memory; `store_dir` empty disables the disk
  /// tier.
  PosteriorCache(std::size_t capacity,
                 const std::optional<std::filesystem::path>& store_dir);

  /// Memory first, then disk (promoting the envelope into memory). The
  /// returned tier says which one answered; nullopt means the caller must
  /// compute, which includes a disk cell from another schema version.
  /// Throws when a disk cell exists but is unreadable (corrupt, moved).
  [[nodiscard]] std::optional<std::pair<support::Json, CacheTier>> lookup(
      const std::string& hash);

  /// Records a freshly computed envelope: inserted into the memory tier
  /// (evicting the LRU entry past capacity) and persisted to the disk tier
  /// when one is attached.
  void insert(const std::string& hash, support::Json envelope);

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t evictions() const { return evictions_; }
  [[nodiscard]] bool has_disk_tier() const { return store_.has_value(); }
  /// Memory-tier membership only (no disk probe, no LRU promotion).
  [[nodiscard]] bool contains_in_memory(const std::string& hash) const {
    return index_.find(hash) != index_.end();
  }

 private:
  void touch(std::list<std::pair<std::string, support::Json>>::iterator it);
  void insert_memory(const std::string& hash, support::Json envelope);

  std::size_t capacity_;
  std::size_t evictions_ = 0;
  /// Front = most recently used. The list owns the envelopes.
  std::list<std::pair<std::string, support::Json>> order_;
  std::map<std::string,
           std::list<std::pair<std::string, support::Json>>::iterator>
      index_;
  std::optional<artifact::CellStore> store_;
};

}  // namespace srm::serve
