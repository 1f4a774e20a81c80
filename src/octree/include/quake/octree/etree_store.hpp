#pragma once

// The etree database (§2.3): a disk-backed B+-tree keyed by linear-octree
// keys (Morton code of the octant anchor, with the level appended), holding
// fixed-size payloads per octant. This is what makes mesh generation
// out-of-core: the tree lives in a file and is accessed through a small LRU
// buffer pool, so the largest mesh is limited by disk, not memory.
//
// Simplifications vs a production storage engine, documented here:
//   * deletion is lazy (no page merging) — etree workloads are
//     insert/scan-heavy and octants removed during construction are
//     re-split immediately;
//   * no concurrency control — the mesher is a single writer.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "quake/octree/octant.hpp"

namespace quake::octree {

class EtreeStore {
 public:
  struct Stats {
    std::uint64_t page_reads = 0;   // pages fetched from disk
    std::uint64_t page_writes = 0;  // pages flushed to disk
    std::uint64_t cache_hits = 0;   // fetches served from the buffer pool
    // Every page (v2 format) carries a trailing CRC32 of its contents,
    // verified on read; a mismatch or a short (truncated) read raises a
    // descriptive error instead of handing the mesher garbage.
    std::uint64_t pages_verified = 0;        // checksum-verified page reads
    std::uint64_t page_verify_failures = 0;  // checksum mismatches seen
  };

  // Opens (or creates, when `create` is true) the store at `path`.
  // `value_size` is the fixed payload size in bytes (must match an existing
  // file); `pool_pages` is the buffer-pool capacity.
  EtreeStore(std::string path, std::uint32_t value_size,
             std::size_t pool_pages, bool create);
  ~EtreeStore();

  EtreeStore(const EtreeStore&) = delete;
  EtreeStore& operator=(const EtreeStore&) = delete;

  // Inserts or overwrites the payload for `o`. `value.size()` must equal
  // the store's `value_size`.
  void put(const Octant& o, std::span<const std::byte> value);

  // Copies the payload for `o` into `value_out` (same size requirement).
  // Returns false when absent.
  bool get(const Octant& o, std::span<std::byte> value_out) const;

  // Removes `o`; returns false when absent.
  bool erase(const Octant& o);

  // Number of live records.
  [[nodiscard]] std::uint64_t count() const;

  // In-order (space-filling-curve order) scan over all records.
  void scan(const std::function<void(const Octant&, std::span<const std::byte>)>&
                fn) const;

  // Flushes all dirty pages to disk.
  void flush();

  [[nodiscard]] Stats stats() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace quake::octree
