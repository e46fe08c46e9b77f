#include "gosh/cache/semantic_cache.hpp"

#include <cstring>

#include "gosh/store/checksum.hpp"
#include "gosh/trace/trace.hpp"

namespace gosh::cache {

namespace {

/// One hash over the vector bytes plus k, so the exact-match path can
/// reject almost every entry without a memcmp. Float bit patterns are the
/// identity here on purpose: "exact" means byte-identical, the only
/// equality that preserves the bit-identical-results guarantee.
std::uint64_t entry_hash(std::span<const float> vec, unsigned k) {
  std::uint64_t h =
      store::fnv1a64(vec.data(), vec.size() * sizeof(float));
  return store::fnv1a64(&k, sizeof(k), h);
}

}  // namespace

SemanticCache::SemanticCache(SemanticCacheOptions options)
    : options_(options) {}

std::uint64_t SemanticCache::now_ns() const {
  return options_.clock_ns != nullptr ? options_.clock_ns()
                                      : trace::now_ns();
}

bool SemanticCache::expired(const Entry& entry, std::uint64_t now) const {
  if (options_.ttl_ms == 0) return false;
  return now - entry.inserted_ns > options_.ttl_ms * 1000000ull;
}

std::optional<std::vector<query::Neighbor>> SemanticCache::lookup(
    std::span<const float> vec, unsigned k) {
  const std::uint64_t hash = entry_hash(vec, k);
  const std::uint64_t now = now_ns();
  // The proximity comparison normalizes the probe once, outside the lock.
  const bool proximity = options_.threshold < 1.0;
  const float probe_inv =
      proximity && !vec.empty()
          ? query::inverse_norm(vec.data(), static_cast<unsigned>(vec.size()))
          : 0.0f;

  common::MutexLock lock(mutex_);
  auto best = entries_.end();
  float best_cosine = 0.0f;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (expired(*it, now)) {
      it = entries_.erase(it);
      ++stats_.evictions;
      continue;
    }
    if (it->k == k && it->vec.size() == vec.size()) {
      // Exact-byte match always hits, at every threshold.
      if (it->hash == hash &&
          std::memcmp(it->vec.data(), vec.data(),
                      vec.size() * sizeof(float)) == 0) {
        best = it;
        break;
      }
      if (proximity) {
        const float cosine =
            query::dot(vec.data(), it->vec.data(),
                       static_cast<unsigned>(vec.size())) *
            probe_inv * it->inv_norm;
        // >= so a cosine exactly at the threshold is a hit — the boundary
        // the unit tests pin down.
        if (static_cast<double>(cosine) >= options_.threshold &&
            (best == entries_.end() || cosine > best_cosine)) {
          best = it;
          best_cosine = cosine;
        }
      }
    }
    ++it;
  }
  if (best == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  entries_.splice(entries_.begin(), entries_, best);
  ++stats_.hits;
  return entries_.front().results;
}

InsertOutcome SemanticCache::insert(std::span<const float> vec, unsigned k,
                                    std::vector<query::Neighbor> results) {
  InsertOutcome outcome;
  if (vec.empty() || options_.capacity == 0) return outcome;
  Entry entry;
  entry.hash = entry_hash(vec, k);
  entry.k = k;
  entry.vec.assign(vec.begin(), vec.end());
  entry.inv_norm =
      query::inverse_norm(vec.data(), static_cast<unsigned>(vec.size()));
  entry.results = std::move(results);
  entry.inserted_ns = now_ns();

  common::MutexLock lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->hash == entry.hash && it->k == k &&
        it->vec.size() == vec.size() &&
        std::memcmp(it->vec.data(), vec.data(),
                    vec.size() * sizeof(float)) == 0) {
      *it = std::move(entry);
      entries_.splice(entries_.begin(), entries_, it);
      ++stats_.insertions;
      outcome.inserted = true;
      outcome.replaced = true;
      return outcome;
    }
  }
  entries_.push_front(std::move(entry));
  ++stats_.insertions;
  outcome.inserted = true;
  while (entries_.size() > options_.capacity) {
    entries_.pop_back();
    ++stats_.evictions;
    outcome.evicted = true;
  }
  return outcome;
}

void SemanticCache::set_generation(std::uint64_t generation) {
  common::MutexLock lock(mutex_);
  if (generation == generation_) return;
  stats_.evictions += entries_.size();
  entries_.clear();
  generation_ = generation;
}

std::uint64_t SemanticCache::generation() const {
  common::MutexLock lock(mutex_);
  return generation_;
}

void SemanticCache::clear() {
  common::MutexLock lock(mutex_);
  entries_.clear();
}

std::size_t SemanticCache::size() const {
  common::MutexLock lock(mutex_);
  return entries_.size();
}

CacheStats SemanticCache::stats() const {
  common::MutexLock lock(mutex_);
  return stats_;
}

}  // namespace gosh::cache
