#include "quake/util/checkpoint.hpp"

#include <array>
#include <cstdio>
#include <memory>
#include <utility>

namespace quake::util {
namespace {

constexpr std::uint32_t kMagic = 0x50'4B'43'51;  // "QCKP" little-endian
// Version 2 stores one double array. Version 1 (a step plus named fields)
// loads as kCorrupt, so a directory of version-1 files starts fresh.
constexpr std::uint32_t kVersion = 2;

struct Header {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint64_t count;  // doubles in the array
};
static_assert(sizeof(Header) == 16);

// Slicing-by-8 tables: t[0] is the bytewise table of the reflected
// polynomial 0xEDB88320; t[k][b] is the CRC register after byte b followed
// by k zero bytes, so eight table lookups advance the CRC by eight bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

// Little-endian load of four bytes (byte order fixed, so the CRC does not
// depend on the host's).
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// CRC32 of the header followed by the array, as stored in the file.
std::uint32_t file_crc(const Header& h, std::span<const double> data) {
  return crc32({reinterpret_cast<const unsigned char*>(data.data()),
                data.size_bytes()},
               crc32({reinterpret_cast<const unsigned char*>(&h), sizeof h}));
}

}  // namespace

std::uint32_t crc32(std::span<const unsigned char> data, std::uint32_t seed) {
  static const CrcTables t = make_crc_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const unsigned char* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string snapshot_generation_path(const std::string& path, int gen) {
  return gen <= 0 ? path : path + "." + std::to_string(gen);
}

bool save_snapshot_rotating(const std::string& path,
                            std::span<const double> data, int keep,
                            std::string* error) {
  if (keep < 1) keep = 1;
  const std::string tmp = path + ".tmp";
  const auto fail = [&](const std::string& what) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = what;
    return false;
  };
  // Write the new data first: until it is safely on disk, the existing
  // generation chain is not touched, so a failure here (ENOSPC, read-only
  // filesystem) leaves every previous restore target intact. Header, array
  // and CRC go straight from the caller's memory; an empty array writes no
  // payload at all.
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) {
      if (error != nullptr) *error = "cannot open " + tmp;
      return false;
    }
    const Header h{kMagic, kVersion, data.size()};
    const std::uint32_t crc = file_crc(h, data);
    if (std::fwrite(&h, sizeof h, 1, f.get()) != 1 ||
        (!data.empty() &&
         std::fwrite(data.data(), sizeof(double), data.size(), f.get()) !=
             data.size()) ||
        std::fwrite(&crc, sizeof crc, 1, f.get()) != 1 ||
        std::ferror(f.get()) != 0) {
      f.reset();
      return fail("short write to " + tmp);
    }
    if (std::fclose(f.release()) != 0) {  // delayed ENOSPC surfaces here
      return fail("close failed for " + tmp);
    }
  }
  // Rotate newest -> oldest; the rename onto `path.(keep-1)` atomically
  // replaces (= prunes) the oldest retained generation. A missing link in
  // the chain is fine — rename of a nonexistent source just fails and the
  // younger generations still shift up.
  for (int gen = keep - 1; gen >= 1; --gen) {
    std::rename(snapshot_generation_path(path, gen - 1).c_str(),
                snapshot_generation_path(path, gen).c_str());
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("rename to " + path + " failed");
  }
  // Prune generations beyond the retention window (e.g. after `keep` was
  // lowered between runs); only after the successful rename above, so a
  // failed save never costs us a usable snapshot.
  std::remove(snapshot_generation_path(path, keep).c_str());
  return true;
}

SnapshotLoadStatus load_snapshot_status(const std::string& path,
                                        std::vector<double>* out) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return SnapshotLoadStatus::kMissing;
  // From here on the file exists: any failure to decode it is kCorrupt.
  Header h{};
  if (std::fread(&h, sizeof h, 1, f.get()) != 1 || h.magic != kMagic ||
      h.version != kVersion || std::fseek(f.get(), 0, SEEK_END) != 0) {
    return SnapshotLoadStatus::kCorrupt;
  }
  // The count must account for the file's exact length before anything is
  // allocated, so a corrupted count never asks for more than the file holds.
  const long end = std::ftell(f.get());
  constexpr long kFraming = sizeof(Header) + sizeof(std::uint32_t);
  if (end < kFraming || (end - kFraming) % sizeof(double) != 0 ||
      h.count != static_cast<std::uint64_t>(end - kFraming) / sizeof(double) ||
      std::fseek(f.get(), sizeof h, SEEK_SET) != 0) {
    return SnapshotLoadStatus::kCorrupt;
  }
  std::vector<double> data(static_cast<std::size_t>(h.count));
  std::uint32_t stored_crc = 0;
  if ((!data.empty() &&
       std::fread(data.data(), sizeof(double), data.size(), f.get()) !=
           data.size()) ||
      std::fread(&stored_crc, sizeof stored_crc, 1, f.get()) != 1 ||
      file_crc(h, data) != stored_crc) {
    return SnapshotLoadStatus::kCorrupt;
  }
  *out = std::move(data);
  return SnapshotLoadStatus::kOk;
}

}  // namespace quake::util
