#include "serve/cache.hpp"

#include "support/error.hpp"

namespace srm::serve {

const char* to_string(CacheTier tier) {
  switch (tier) {
    case CacheTier::kMemory: return "hit";
    case CacheTier::kDisk: return "disk";
    case CacheTier::kComputed: return "computed";
  }
  return "?";
}

PosteriorCache::PosteriorCache(
    std::size_t capacity,
    const std::optional<std::filesystem::path>& store_dir)
    : capacity_(capacity) {
  SRM_EXPECTS(capacity >= 1, "cache capacity must be >= 1");
  if (store_dir.has_value()) store_.emplace(*store_dir);
}

void PosteriorCache::touch(
    std::list<std::pair<std::string, support::Json>>::iterator it) {
  order_.splice(order_.begin(), order_, it);
}

void PosteriorCache::insert_memory(const std::string& hash,
                                   support::Json envelope) {
  if (const auto it = index_.find(hash); it != index_.end()) {
    // Re-insert of a live entry (e.g. dedup shares): refresh in place so
    // the list never carries two nodes for one hash.
    it->second->second = std::move(envelope);
    touch(it->second);
    return;
  }
  order_.emplace_front(hash, std::move(envelope));
  index_[hash] = order_.begin();
  while (index_.size() > capacity_) {
    const auto& victim = order_.back();
    index_.erase(victim.first);
    order_.pop_back();
    ++evictions_;
  }
}

std::optional<std::pair<support::Json, CacheTier>> PosteriorCache::lookup(
    const std::string& hash) {
  if (const auto it = index_.find(hash); it != index_.end()) {
    touch(it->second);
    return std::make_pair(it->second->second, CacheTier::kMemory);
  }
  if (!store_.has_value()) return std::nullopt;
  std::optional<support::Json> envelope;
  try {
    envelope = store_->load(hash);
  } catch (const artifact::StaleCell&) {
    // Written by a build with another schema version: a miss, so the cell
    // is recomputed and insert() overwrites the file.
    return std::nullopt;
  }
  if (!envelope.has_value()) return std::nullopt;
  insert_memory(hash, *envelope);
  return std::make_pair(std::move(*envelope), CacheTier::kDisk);
}

void PosteriorCache::insert(const std::string& hash, support::Json envelope) {
  if (store_.has_value()) store_->save(hash, envelope);
  insert_memory(hash, std::move(envelope));
}

}  // namespace srm::serve
