// Tests for the disk-backed etree B-tree store: CRUD, ordering, persistence
// across close/reopen, buffer-pool behavior, and bulk loads that force many
// page splits.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "quake/obs/obs.hpp"
#include "quake/octree/etree_store.hpp"
#include "quake/octree/linear_octree.hpp"
#include "quake/util/checkpoint.hpp"
#include "quake/util/rng.hpp"

namespace {

using namespace quake::octree;

std::string temp_path(const char* name) {
  return testing::TempDir() + "/" + name + ".etree";
}

std::span<const std::byte> bytes_of(const double& v) {
  return std::as_bytes(std::span<const double, 1>(&v, 1));
}

TEST(EtreeStore, PutGetSingle) {
  EtreeStore store(temp_path("single"), sizeof(double), 16, /*create=*/true);
  const Octant o = Octant{}.child(3).child(5);
  const double v = 3.25;
  store.put(o, bytes_of(v));
  double out = 0.0;
  ASSERT_TRUE(store.get(o, std::as_writable_bytes(std::span<double, 1>(&out, 1))));
  EXPECT_DOUBLE_EQ(out, 3.25);
  EXPECT_EQ(store.count(), 1u);
}

TEST(EtreeStore, GetMissingReturnsFalse) {
  EtreeStore store(temp_path("missing"), sizeof(double), 16, true);
  double out;
  EXPECT_FALSE(
      store.get(Octant{}.child(1), std::as_writable_bytes(std::span<double, 1>(&out, 1))));
}

TEST(EtreeStore, OverwriteDoesNotGrowCount) {
  EtreeStore store(temp_path("overwrite"), sizeof(double), 16, true);
  const Octant o = Octant{}.child(0);
  store.put(o, bytes_of(1.0));
  store.put(o, bytes_of(2.0));
  EXPECT_EQ(store.count(), 1u);
  double out;
  ASSERT_TRUE(store.get(o, std::as_writable_bytes(std::span<double, 1>(&out, 1))));
  EXPECT_DOUBLE_EQ(out, 2.0);
}

TEST(EtreeStore, EraseRemoves) {
  EtreeStore store(temp_path("erase"), sizeof(double), 16, true);
  const Octant o = Octant{}.child(2);
  store.put(o, bytes_of(1.0));
  EXPECT_TRUE(store.erase(o));
  EXPECT_EQ(store.count(), 0u);
  double out;
  EXPECT_FALSE(store.get(o, std::as_writable_bytes(std::span<double, 1>(&out, 1))));
  EXPECT_FALSE(store.erase(o));
}

TEST(EtreeStore, WrongValueSizeThrows) {
  EtreeStore store(temp_path("valsize"), sizeof(double), 16, true);
  float f = 0.0f;
  EXPECT_THROW(
      store.put(Octant{}, std::as_bytes(std::span<const float, 1>(&f, 1))),
      std::invalid_argument);
}

TEST(EtreeStore, BulkLoadManySplitsAndScanInOrder) {
  // Enough records to force leaf and internal splits (leaf holds ~200
  // 20-byte entries per 4 KiB page).
  const std::string path = temp_path("bulk");
  const LinearOctree tree =
      build_octree([](const Octant& o) { return o.level < 4; }, 4);
  ASSERT_EQ(tree.size(), 4096u);
  {
    EtreeStore store(path, sizeof(double), 16, true);
    for (std::size_t i = 0; i < tree.size(); ++i) {
      const double v = static_cast<double>(i);
      store.put(tree[i], bytes_of(v));
    }
    EXPECT_EQ(store.count(), tree.size());
    // Scan returns records in space-filling-curve order.
    std::size_t idx = 0;
    store.scan([&](const Octant& o, std::span<const std::byte> val) {
      EXPECT_EQ(o, tree[idx]);
      double v;
      std::memcpy(&v, val.data(), sizeof v);
      EXPECT_DOUBLE_EQ(v, static_cast<double>(idx));
      ++idx;
    });
    EXPECT_EQ(idx, tree.size());
    store.flush();
  }
  // Reopen: everything persisted.
  {
    EtreeStore store(path, sizeof(double), 16, /*create=*/false);
    EXPECT_EQ(store.count(), tree.size());
    double out;
    ASSERT_TRUE(store.get(tree[1234],
                          std::as_writable_bytes(std::span<double, 1>(&out, 1))));
    EXPECT_DOUBLE_EQ(out, 1234.0);
  }
}

TEST(EtreeStore, RandomInsertionOrderScansSorted) {
  const LinearOctree tree =
      build_octree([](const Octant& o) { return o.level < 3; }, 3);
  std::vector<Octant> shuffled(tree.leaves().begin(), tree.leaves().end());
  quake::util::Rng rng(5);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[static_cast<std::size_t>(rng.next_u64() % i)]);
  }
  EtreeStore store(temp_path("random"), sizeof(double), 8, true);
  for (const Octant& o : shuffled) store.put(o, bytes_of(1.0));
  std::size_t idx = 0;
  OctantLess less;
  Octant prev{};
  store.scan([&](const Octant& o, std::span<const std::byte>) {
    if (idx > 0) {
      EXPECT_TRUE(less(prev, o));
    }
    prev = o;
    ++idx;
  });
  EXPECT_EQ(idx, tree.size());
}

TEST(EtreeStore, SmallPoolForcesEvictionsButStaysCorrect) {
  // A 4-page pool on a multi-hundred-page tree: correctness must not depend
  // on cache capacity.
  EtreeStore store(temp_path("evict"), sizeof(double), 4, true);
  const LinearOctree tree =
      build_octree([](const Octant& o) { return o.level < 4; }, 4);
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const double v = static_cast<double>(i * 7);
    store.put(tree[i], bytes_of(v));
  }
  quake::util::Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const std::size_t k = rng.next_u64() % tree.size();
    double out;
    ASSERT_TRUE(store.get(tree[k],
                          std::as_writable_bytes(std::span<double, 1>(&out, 1))));
    EXPECT_DOUBLE_EQ(out, static_cast<double>(k * 7));
  }
  const auto st = store.stats();
  EXPECT_GT(st.page_reads, 0u);   // evictions forced re-reads
  EXPECT_GT(st.cache_hits, 0u);
}

TEST(EtreeStore, PoolHitRateGaugePublished) {
  // Every pool access updates the etree/pool_hit_rate gauge:
  // cache_hits / (cache_hits + page_reads), consistent with stats().
  quake::obs::set_enabled(true);
  quake::obs::Registry reg;
  {
    const quake::obs::ScopedRegistry install(reg);
    EtreeStore store(temp_path("hitrate"), sizeof(double), 4, true);
    const LinearOctree tree =
        build_octree([](const Octant& o) { return o.level < 4; }, 4);
    for (std::size_t i = 0; i < tree.size(); ++i) {
      const double v = static_cast<double>(i);
      store.put(tree[i], bytes_of(v));
    }
    quake::util::Rng rng(7);
    for (int i = 0; i < 200; ++i) {
      double out;
      ASSERT_TRUE(store.get(
          tree[rng.next_u64() % tree.size()],
          std::as_writable_bytes(std::span<double, 1>(&out, 1))));
    }
    const auto st = store.stats();
    ASSERT_GT(st.cache_hits + st.page_reads, 0u);
    const auto it = reg.gauges.find("etree/pool_hit_rate");
    ASSERT_NE(it, reg.gauges.end());
    EXPECT_DOUBLE_EQ(it->second,
                     static_cast<double>(st.cache_hits) /
                         static_cast<double>(st.cache_hits + st.page_reads));
    EXPECT_GE(it->second, 0.0);
    EXPECT_LE(it->second, 1.0);
  }
  quake::obs::set_enabled(false);
}

// ---- page integrity (v2 format: trailing per-page CRC32) ------------------

TEST(EtreeStore, VerifiedPageReadsCounted) {
  const std::string path = temp_path("verify_counts");
  {
    EtreeStore store(path, sizeof(double), 8, /*create=*/true);
    for (int i = 0; i < 200; ++i) {
      store.put(Octant{}.child(i % 8).child((i / 8) % 8), bytes_of(1.0 * i));
    }
    store.flush();
  }
  // Reopen and scan: every page comes back from disk through the checksum.
  EtreeStore store(path, sizeof(double), 8, /*create=*/false);
  std::size_t seen = 0;
  store.scan([&](const Octant&, std::span<const std::byte>) { ++seen; });
  EXPECT_GT(seen, 0u);
  const auto st = store.stats();
  EXPECT_GT(st.page_reads, 0u);
  EXPECT_GT(st.pages_verified, 0u);
  EXPECT_EQ(st.page_verify_failures, 0u);
}

TEST(EtreeStore, CorruptedPageRaisesDescriptiveError) {
  const std::string path = temp_path("corrupt");
  {
    EtreeStore store(path, sizeof(double), 8, /*create=*/true);
    for (int i = 0; i < 500; ++i) {
      store.put(Octant{}.child(i % 8).child((i / 8) % 8).child((i / 64) % 8),
                bytes_of(1.0 * i));
    }
    store.flush();
  }
  // Flip one byte in the middle of page 1 (the first tree page).
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 4096 + 100, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 4096 + 100, SEEK_SET);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  // A pool too small to hold the whole tree forces real disk reads; the
  // poisoned page must surface as a checksum error naming page and file,
  // not as garbage records.
  EtreeStore store(path, sizeof(double), 4, /*create=*/false);
  try {
    store.scan([](const Octant&, std::span<const std::byte>) {});
    FAIL() << "scan over a corrupted page must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST(EtreeStore, TruncatedPageRaisesDescriptiveError) {
  const std::string path = temp_path("truncated");
  {
    EtreeStore store(path, sizeof(double), 8, /*create=*/true);
    for (int i = 0; i < 500; ++i) {
      store.put(Octant{}.child(i % 8).child((i / 8) % 8).child((i / 64) % 8),
                bytes_of(1.0 * i));
    }
    store.flush();
  }
  // Chop the file mid-page: the partial page must be reported as truncated
  // (so is a page wholly past EOF; a well-formed store never reads one).
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, 4096u + 2048u);
  std::filesystem::resize_file(path, size - 2048);
  EtreeStore store(path, sizeof(double), 4, /*create=*/false);
  try {
    store.scan([](const Octant&, std::span<const std::byte>) {});
    FAIL() << "scan over a truncated page must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated page"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST(EtreeStore, PreChecksumFormatRejectedWithVersionError) {
  const std::string path = temp_path("old_format");
  {
    EtreeStore store(path, sizeof(double), 8, /*create=*/true);
    store.put(Octant{}.child(1), bytes_of(1.0));
    store.flush();
  }
  // Stamp an old version number into the header and refresh the header
  // page's CRC so the version check (not the checksum) is what fires.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::vector<unsigned char> page(4096);
    ASSERT_EQ(std::fread(page.data(), 1, page.size(), f), page.size());
    const std::uint32_t old_version = 1;
    std::memcpy(page.data() + 4, &old_version, 4);  // after the magic
    const std::uint32_t crc = quake::util::crc32({page.data(), 4092});
    std::memcpy(page.data() + 4092, &crc, 4);
    std::fseek(f, 0, SEEK_SET);
    ASSERT_EQ(std::fwrite(page.data(), 1, page.size(), f), page.size());
    std::fclose(f);
  }
  try {
    EtreeStore store(path, sizeof(double), 8, /*create=*/false);
    FAIL() << "opening a pre-v2 file must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos) << what;
  }
}

TEST(EtreeStore, MutatedHeadersUnderValidCrcThrow) {
  // A page whose header fields were changed under a recomputed CRC passes
  // the checksum; the store must still never index past the 4 KiB frame
  // (the ASan + UBSan lane runs this) nor walk a link cycle forever. Part
  // one breaks one rule the store checks pages against — a known type, a
  // key count within capacity, links to tree pages, the root in range — and
  // each must surface as a corrupt-page error. Part two writes arbitrary
  // values into the same fields; some of those make a valid but different
  // tree, so reading may succeed, but any failure must be a runtime_error.
  constexpr std::size_t kPage = 4096;
  constexpr std::size_t kData = kPage - 4;
  constexpr std::size_t kChildren = 8 + 255 * 12;  // internal child slots
  constexpr std::uint16_t kLeafCap = (kData - 8) / (12 + sizeof(double));
  constexpr std::uint16_t kInternalCap = 255;
  const std::string path = temp_path("mutated_headers");
  const LinearOctree tree =
      build_octree([](const Octant& o) { return o.level < 4; }, 4);
  {
    EtreeStore store(path, sizeof(double), 16, /*create=*/true);
    for (std::size_t i = 0; i < tree.size(); ++i) {
      store.put(tree[i], bytes_of(static_cast<double>(i)));
    }
  }
  std::vector<unsigned char> good(std::filesystem::file_size(path));
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fread(good.data(), 1, good.size(), f), good.size());
    std::fclose(f);
  }
  const auto field = [](const std::vector<unsigned char>& b, std::size_t off,
                        auto v) {
    std::memcpy(&v, b.data() + off, sizeof v);
    return v;
  };
  const std::uint32_t page_count = field(good, 16, std::uint32_t{});
  ASSERT_EQ(good.size(), page_count * kPage);
  ASSERT_GT(page_count, 8u);  // an internal root over several leaves
  const auto is_leaf = [&](std::uint32_t p) {
    return field(good, p * kPage, std::uint16_t{}) == 1;
  };
  // Writes `value` at byte `off` of page `p` and re-stamps the page CRC.
  const auto patch = [](std::vector<unsigned char>& b, std::uint32_t p,
                        std::size_t off, auto value) {
    unsigned char* page = b.data() + p * kPage;
    std::memcpy(page + off, &value, sizeof value);
    const std::uint32_t crc = quake::util::crc32({page, kData});
    std::memcpy(page + kData, &crc, sizeof crc);
  };
  // Writes `bytes` as the store, then reads every page: a scan, a get per
  // 64 records (the root on every path), an erase and a put.
  const auto read_all = [&](const std::vector<unsigned char>& bytes) {
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
      std::fclose(f);
    }
    EtreeStore store(path, sizeof(double), 4, /*create=*/false);
    store.scan([](const Octant&, std::span<const std::byte>) {});
    double v = 0.0;
    for (std::size_t i = 0; i < tree.size(); i += 64) {
      store.get(tree[i], std::as_writable_bytes(std::span<double, 1>(&v, 1)));
    }
    store.erase(tree[100]);
    store.put(tree[100], bytes_of(v));
  };
  ASSERT_NO_THROW(read_all(good));

  quake::util::Rng rng(2027);
  const auto out_of_range = [&] {  // 0 (the file header) or >= page_count
    const std::uint64_t r = rng.next_u64();
    return r % 4 == 0 ? 0u
                      : page_count + static_cast<std::uint32_t>(
                                         r % (0xfffffffeu - page_count));
  };
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<unsigned char> bad = good;
    const std::uint32_t p =
        1 + static_cast<std::uint32_t>(rng.next_u64() % (page_count - 1));
    const std::uint16_t nkeys = field(good, p * kPage + 2, std::uint16_t{});
    const int rule = static_cast<int>(rng.next_u64() % 5);
    if (rule == 0) {  // type neither leaf (1) nor internal (2)
      std::uint16_t type = 0;
      do {
        type = static_cast<std::uint16_t>(rng.next_u64());
      } while (type == 1 || type == 2);
      patch(bad, p, 0, type);
    } else if (rule == 1) {  // key count past the page's capacity
      const std::uint16_t cap = is_leaf(p) ? kLeafCap : kInternalCap;
      const std::uint16_t n =
          rng.next_u64() % 2 == 0
              ? cap + 1
              : static_cast<std::uint16_t>(
                    cap + 1 + rng.next_u64() % (0xffffu - cap));
      patch(bad, p, 2, n);
    } else if (rule == 2) {  // a sibling or child link off the tree
      if (is_leaf(p)) {
        patch(bad, p, 4, out_of_range());
      } else {
        const std::size_t slot = rng.next_u64() % (nkeys + 1u);
        patch(bad, p, kChildren + 4 * slot, out_of_range());
      }
    } else if (rule == 3) {  // the root page off the tree
      patch(bad, 0, 12, out_of_range());
    } else {  // a page count that cuts off pages the tree links to
      patch(bad, 0, 16,
            static_cast<std::uint32_t>(rng.next_u64() % page_count));
    }
    try {
      read_all(bad);
      ADD_FAILURE() << "trial " << trial << " rule " << rule << " page " << p
                    << ": no error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("corrupt page"), std::string::npos)
          << "trial " << trial << " rule " << rule << ": " << e.what();
    }
  }

  // Arbitrary values, small links included: type flips, short key counts,
  // links back up the tree or along the leaf chain (cycles).
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<unsigned char> bad = good;
    const std::uint64_t n_mut = 1 + rng.next_u64() % 3;
    for (std::uint64_t m = 0; m < n_mut; ++m) {
      const std::uint32_t p =
          static_cast<std::uint32_t>(rng.next_u64() % page_count);
      const auto small = static_cast<std::uint32_t>(
          rng.next_u64() % (page_count + 2));
      switch (rng.next_u64() % 5) {
        case 0:
          patch(bad, p, 0, static_cast<std::uint16_t>(1 + rng.next_u64() % 3));
          break;
        case 1:
          patch(bad, p, 2, static_cast<std::uint16_t>(rng.next_u64() % 300));
          break;
        case 2:
          patch(bad, p, 4, small);
          break;
        case 3:
          patch(bad, p, kChildren + 4 * (rng.next_u64() % 8), small);
          break;
        default:
          patch(bad, 0, 12 + 4 * (rng.next_u64() % 2), small);
          break;
      }
    }
    try {
      read_all(bad);
    } catch (const std::runtime_error&) {
    }
  }
  std::remove(path.c_str());
}

TEST(EtreeStore, DistinguishesLevelsAtSameAnchor) {
  // An octant and its first child share the anchor; keys must differ.
  EtreeStore store(temp_path("levels"), sizeof(double), 8, true);
  const Octant parent = Octant{}.child(0);
  const Octant child = parent.child(0);
  store.put(parent, bytes_of(1.0));
  store.put(child, bytes_of(2.0));
  EXPECT_EQ(store.count(), 2u);
  double a, b;
  ASSERT_TRUE(store.get(parent, std::as_writable_bytes(std::span<double, 1>(&a, 1))));
  ASSERT_TRUE(store.get(child, std::as_writable_bytes(std::span<double, 1>(&b, 1))));
  EXPECT_DOUBLE_EQ(a, 1.0);
  EXPECT_DOUBLE_EQ(b, 2.0);
}

}  // namespace
