// Unit tests for quake::util — filters, statistics, RNG, IO.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <numbers>

#include "quake/util/checkpoint.hpp"
#include "quake/util/delta_codec.hpp"
#include "quake/util/filter.hpp"
#include "quake/util/io.hpp"
#include "quake/util/rng.hpp"
#include "quake/util/stats.hpp"
#include "quake/util/timer.hpp"

namespace {

using namespace quake::util;

std::vector<double> sine(double f, double fs, int n) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] =
        std::sin(2.0 * std::numbers::pi * f * i / fs);
  }
  return x;
}

TEST(Filter, PassesLowFrequency) {
  const double fs = 100.0;
  auto x = sine(0.5, fs, 4000);
  auto y = lowpass_zero_phase(x, 5.0, fs);
  // Interior samples nearly unchanged.
  double max_err = 0.0;
  for (int i = 500; i < 3500; ++i) {
    max_err = std::max(max_err, std::abs(y[static_cast<std::size_t>(i)] -
                                         x[static_cast<std::size_t>(i)]));
  }
  EXPECT_LT(max_err, 0.01);
}

TEST(Filter, AttenuatesHighFrequency) {
  const double fs = 100.0;
  auto x = sine(25.0, fs, 4000);
  auto y = lowpass_zero_phase(x, 2.0, fs);
  EXPECT_LT(norm_max(std::span<const double>(y).subspan(500, 3000)), 1e-3);
}

TEST(Filter, ZeroPhasePreservesPeakLocation) {
  const double fs = 200.0;
  std::vector<double> x(2000, 0.0);
  // Gaussian pulse centered at sample 1000.
  for (int i = 0; i < 2000; ++i) {
    x[static_cast<std::size_t>(i)] = std::exp(-0.5 * std::pow((i - 1000) / 40.0, 2));
  }
  auto y = lowpass_zero_phase(x, 3.0, fs);
  int peak = 0;
  for (int i = 1; i < 2000; ++i) {
    if (y[static_cast<std::size_t>(i)] > y[static_cast<std::size_t>(peak)]) peak = i;
  }
  EXPECT_NEAR(peak, 1000, 2);
}

TEST(Filter, RejectsBadCutoff) {
  EXPECT_THROW(butterworth_lowpass(60.0, 100.0), std::invalid_argument);
  EXPECT_THROW(butterworth_lowpass(0.0, 100.0), std::invalid_argument);
}

TEST(Stats, Norms) {
  std::vector<double> x = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm_l2(x), 5.0);
  EXPECT_DOUBLE_EQ(norm_max(x), 4.0);
}

TEST(Stats, RelL2AndCorrelation) {
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y = {2.0, 4.0, 6.0};
  EXPECT_NEAR(correlation(x, y), 1.0, 1e-15);
  EXPECT_NEAR(rel_l2(x, x), 0.0, 1e-15);
  std::vector<double> z = {0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(correlation(x, z), 0.0);
}

TEST(Stats, SizeMismatchThrows) {
  std::vector<double> x = {1.0};
  std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW(diff_l2(x, y), std::invalid_argument);
  EXPECT_THROW(dot(x, y), std::invalid_argument);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng r(123);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Io, CsvRoundTripShape) {
  const std::string path = testing::TempDir() + "/quake_test.csv";
  std::vector<std::string> names = {"t", "u"};
  std::vector<std::vector<double>> cols = {{0.0, 0.1}, {1.0, 2.0}};
  write_csv(path, names, cols);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[256];
  ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
  EXPECT_STREQ(line, "t,u\n");
  std::fclose(f);
}

TEST(Io, CsvRejectsRagged) {
  std::vector<std::string> names = {"a", "b"};
  std::vector<std::vector<double>> cols = {{0.0, 0.1}, {1.0}};
  EXPECT_THROW(write_csv("/tmp/x.csv", names, cols), std::invalid_argument);
}

TEST(Io, PgmWritesHeader) {
  const std::string path = testing::TempDir() + "/quake_test.pgm";
  std::vector<double> v(16, 0.5);
  write_pgm(path, v, 4, 4, 0.0, 1.0);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[3] = {};
  ASSERT_EQ(std::fread(magic, 1, 2, f), 2u);
  EXPECT_STREQ(magic, "P5");
  std::fclose(f);
}

TEST(Io, PgmRejectsBadDims) {
  std::vector<double> v(10, 0.0);
  EXPECT_THROW(write_pgm("/tmp/x.pgm", v, 4, 4, 0.0, 1.0),
               std::invalid_argument);
}

TEST(Io, WritersSurfaceDiskFullAsError) {
  // /dev/full accepts the open but fails every flushed write — the classic
  // silent-truncation trap the writers must surface as an exception.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP();
  const std::vector<std::string> names = {"a"};
  const std::vector<std::vector<double>> cols = {{1.0, 2.0, 3.0}};
  EXPECT_THROW(write_csv("/dev/full", names, cols), std::runtime_error);
  std::vector<double> v(64 * 64, 0.5);
  EXPECT_THROW(write_pgm("/dev/full", v, 64, 64, 0.0, 1.0),
               std::runtime_error);
}

TEST(StopWatch, UnmatchedStopIsNoOp) {
  // Regression: stop() without a pending start() used to add whatever time
  // happened to elapse since construction (garbage into the total).
  StopWatch w;
  w.stop();
  EXPECT_DOUBLE_EQ(w.total_seconds(), 0.0);
  EXPECT_FALSE(w.running());
}

TEST(StopWatch, DoubleStopAddsNothing) {
  StopWatch w;
  w.start();
  EXPECT_TRUE(w.running());
  w.stop();
  const double t = w.total_seconds();
  EXPECT_GE(t, 0.0);
  w.stop();  // second stop with no start in between: no-op
  EXPECT_DOUBLE_EQ(w.total_seconds(), t);
}

TEST(StopWatch, ClearResetsRunningState) {
  StopWatch w;
  w.start();
  w.clear();
  EXPECT_FALSE(w.running());
  w.stop();  // must still be a no-op after clear()
  EXPECT_DOUBLE_EQ(w.total_seconds(), 0.0);
}

TEST(StopWatch, AccumulatesAcrossIntervals) {
  StopWatch w;
  w.start();
  w.stop();
  const double t1 = w.total_seconds();
  w.start();
  w.stop();
  EXPECT_GE(w.total_seconds(), t1);
}

TEST(Io, TextFileRoundTrip) {
  const std::string path = "/tmp/quake_util_text_test.txt";
  const std::string content = "line1\nline2 \xE2\x82\xAC\n";
  write_text_file(path, content);
  EXPECT_EQ(read_text_file(path), content);
  std::remove(path.c_str());
  EXPECT_THROW(read_text_file(path), std::runtime_error);
  EXPECT_THROW(write_text_file("/nonexistent-dir/x.txt", "y"),
               std::runtime_error);
}

TEST(Crc32, KnownAnswer) {
  // IEEE 802.3 check value for the ASCII string "123456789".
  const unsigned char msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32({msg, sizeof(msg)}), 0xCBF43926u);
  // Streaming in two chunks matches one-shot.
  const std::uint32_t part = crc32({msg, 4});
  EXPECT_EQ(crc32({msg + 4, 5}, part), 0xCBF43926u);
  EXPECT_EQ(crc32({msg, 0u}), 0u);
}

// The bytewise table loop, one byte per step: the oracle for crc32's
// eight-byte slices. Any difference would change the etree page and
// checkpoint file formats.
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t n,
                             std::uint32_t seed) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Checkpoint, Crc32MatchesBytewiseReference) {
  Rng rng(4092);
  std::vector<unsigned char> buf(277 * 1024 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.next_u64());
  // Every length 0..64 at every alignment 0..7, across the 8-byte body and
  // the byte tail.
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(crc32({buf.data() + off, len}),
                crc32_bytewise(buf.data() + off, len, 0))
          << "offset " << off << " length " << len;
    }
  }
  // An etree page's data area and a checkpoint-cut-sized buffer.
  for (const std::size_t len : {std::size_t{4092}, std::size_t{277 * 1024}}) {
    EXPECT_EQ(crc32({buf.data() + 3, len}),
              crc32_bytewise(buf.data() + 3, len, 0))
        << "length " << len;
  }
  // Chained seeds: streaming in uneven chunks equals one pass.
  std::uint32_t chained = 0;
  std::size_t at = 0;
  for (const std::size_t len : {5u, 8u, 13u, 4092u, 1u, 777u, 64u}) {
    const std::uint32_t seed = chained;
    chained = crc32({buf.data() + at, len}, seed);
    EXPECT_EQ(chained, crc32_bytewise(buf.data() + at, len, seed));
    at += len;
  }
  EXPECT_EQ(chained, crc32({buf.data(), at}));
}

TEST(Checkpoint, SnapshotRoundTrip) {
  const std::string path = testing::TempDir() + "/quake_snap_test.ckpt";
  const std::vector<double> data = {1234.0, 1.0, -2.5, 3.25, 0.125};
  ASSERT_TRUE(save_snapshot_rotating(path, data, 1));

  std::vector<double> loaded;
  ASSERT_EQ(load_snapshot_status(path, &loaded), SnapshotLoadStatus::kOk);
  EXPECT_EQ(loaded, data);
  // An empty array round-trips too: the file is header and CRC only.
  ASSERT_TRUE(save_snapshot_rotating(path, {}, 1));
  ASSERT_EQ(load_snapshot_status(path, &loaded), SnapshotLoadStatus::kOk);
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

// Seeded mutation test of the snapshot decoder (the etree_fuzz_test
// pattern, no external fuzzer). Every single-byte flip and every truncation
// of a valid file is kCorrupt and leaves *out untouched; a version-1 header
// is kCorrupt even under a recomputed valid CRC; random multi-byte
// mutations never crash and never decode to a different array.
TEST(Checkpoint, MutatedSnapshotsNeverDecodeWrong) {
  const std::string path = testing::TempDir() + "/quake_snap_mut.ckpt";
  Rng rng(2026);
  std::vector<double> data(12);
  for (auto& v : data) v = rng.normal();
  ASSERT_TRUE(save_snapshot_rotating(path, data, 1));
  std::ifstream in(path, std::ios::binary);
  const std::vector<unsigned char> good{std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>()};
  ASSERT_EQ(good.size(), 16 + 8 * data.size() + 4);

  const std::vector<double> sentinel = {-7.0};
  // Writes `bytes` as the file and loads it into a sentinel-filled array.
  const auto load_bytes = [&](std::span<const unsigned char> bytes,
                              std::vector<double>* out) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    *out = sentinel;
    return load_snapshot_status(path, out);
  };
  std::vector<double> out;
  for (std::size_t off = 0; off < good.size(); ++off) {
    for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
      std::vector<unsigned char> bad = good;
      bad[off] ^= mask;
      ASSERT_EQ(load_bytes(bad, &out), SnapshotLoadStatus::kCorrupt)
          << "offset " << off << " mask " << int{mask};
      ASSERT_EQ(out, sentinel);
    }
  }
  for (std::size_t len = 0; len < good.size(); ++len) {
    ASSERT_EQ(load_bytes({good.data(), len}, &out),
              SnapshotLoadStatus::kCorrupt)
        << "length " << len;
    ASSERT_EQ(out, sentinel);
  }
  // Version 1 under a valid CRC: the format version alone rejects it.
  std::vector<unsigned char> v1 = good;
  const std::uint32_t version = 1;
  std::memcpy(v1.data() + 4, &version, sizeof version);
  const std::uint32_t crc = crc32({v1.data(), v1.size() - 4});
  std::memcpy(v1.data() + v1.size() - 4, &crc, sizeof crc);
  EXPECT_EQ(load_bytes(v1, &out), SnapshotLoadStatus::kCorrupt);
  EXPECT_EQ(out, sentinel);

  // Random multi-byte overwrites, some also truncated or extended.
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<unsigned char> bad = good;
    const std::uint64_t n_mut = 1 + rng.next_u64() % 8;
    for (std::uint64_t m = 0; m < n_mut; ++m) {
      bad[rng.next_u64() % bad.size()] =
          static_cast<unsigned char>(rng.next_u64());
    }
    if (rng.uniform() < 0.25) bad.resize(rng.next_u64() % (bad.size() + 16));
    const SnapshotLoadStatus st = load_bytes(bad, &out);
    ASSERT_NE(st, SnapshotLoadStatus::kMissing) << "trial " << trial;
    ASSERT_EQ(out, st == SnapshotLoadStatus::kOk ? data : sentinel)
        << "trial " << trial;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadStatusSplitsMissingFromCorrupt) {
  const std::string path = testing::TempDir() + "/quake_snap_status.ckpt";
  std::remove(path.c_str());
  std::vector<double> out;

  // No file at all: kMissing — nothing was ever written here.
  EXPECT_EQ(load_snapshot_status(path, &out), SnapshotLoadStatus::kMissing);

  const std::vector<double> snap = {42.0, 1.0, 2.0, 3.0};
  ASSERT_TRUE(save_snapshot_rotating(path, snap, 1));
  EXPECT_EQ(load_snapshot_status(path, &out), SnapshotLoadStatus::kOk);
  EXPECT_EQ(out[0], 42.0);

  // A flipped byte fails CRC: kCorrupt, not kMissing.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 20, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 20, SEEK_SET);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  EXPECT_EQ(load_snapshot_status(path, &out), SnapshotLoadStatus::kCorrupt);

  // Truncation is corruption too — the file exists but cannot be decoded.
  ASSERT_TRUE(save_snapshot_rotating(path, snap, 1));
  std::filesystem::resize_file(path, 3);
  EXPECT_EQ(load_snapshot_status(path, &out), SnapshotLoadStatus::kCorrupt);
  std::remove(path.c_str());
}

TEST(Checkpoint, RotatingSaveKeepsLastKGenerations) {
  const std::string path = testing::TempDir() + "/quake_snap_rot.ckpt";
  for (int gen = 0; gen <= 4; ++gen) {
    std::remove(snapshot_generation_path(path, gen).c_str());
  }
  const int keep = 3;
  for (int step = 1; step <= 5; ++step) {
    const std::vector<double> snap = {static_cast<double>(step)};
    ASSERT_TRUE(save_snapshot_rotating(path, snap, keep));
  }
  // Newest three survive (steps 5, 4, 3), older generations are pruned.
  std::vector<double> out;
  for (int gen = 0; gen < keep; ++gen) {
    ASSERT_EQ(load_snapshot_status(snapshot_generation_path(path, gen), &out),
              SnapshotLoadStatus::kOk)
        << "generation " << gen;
    EXPECT_EQ(out[0], 5 - gen);
  }
  EXPECT_EQ(load_snapshot_status(snapshot_generation_path(path, keep), &out),
            SnapshotLoadStatus::kMissing);
  for (int gen = 0; gen < keep; ++gen) {
    std::remove(snapshot_generation_path(path, gen).c_str());
  }
}

TEST(Checkpoint, RotatingSaveFailureLeavesPreviousChainIntact) {
  const std::string dir = testing::TempDir() + "/quake_snap_rot_fail";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/state.ckpt";
  std::vector<double> snap = {11.0, 1.0, 2.0};
  ASSERT_TRUE(save_snapshot_rotating(path, snap, 2));

  // Squat on the temp-file name with a directory so the next write fails
  // (EISDIR) the way a full disk would; the existing generation must stay
  // loadable. (Permission tricks don't work here: tests may run as root.)
  std::filesystem::create_directories(path + ".tmp");
  snap[0] = 12.0;
  std::string error;
  EXPECT_FALSE(save_snapshot_rotating(path, snap, 2, &error));
  EXPECT_FALSE(error.empty());
  std::filesystem::remove_all(path + ".tmp");
  std::vector<double> out;
  ASSERT_EQ(load_snapshot_status(path, &out), SnapshotLoadStatus::kOk);
  EXPECT_EQ(out[0], 11.0);  // the failed save cost nothing
  std::filesystem::remove_all(dir);
}

TEST(DeltaCodec, RoundTripIsBitExact) {
  Rng rng(42);
  std::vector<double> prev(257), cur(257);
  for (auto& v : prev) v = rng.normal();
  // Mix of smooth drift (small mantissa deltas), identical entries (zero
  // XOR words), sign flips, and specials — everything a ghost payload
  // stepping through time can produce.
  for (std::size_t i = 0; i < cur.size(); ++i) {
    switch (i % 5) {
      case 0: cur[i] = prev[i]; break;
      case 1: cur[i] = prev[i] * (1.0 + 1e-15); break;
      case 2: cur[i] = -prev[i]; break;
      case 3: cur[i] = rng.normal() * 1e12; break;
      default: cur[i] = 0.0; break;
    }
  }
  cur[7] = std::numeric_limits<double>::infinity();
  cur[11] = -0.0;
  std::vector<std::uint8_t> code;
  delta_encode(prev, cur, code);
  std::vector<double> rt = prev;
  delta_decode_inplace(rt, code);
  EXPECT_EQ(std::memcmp(rt.data(), cur.data(), cur.size() * sizeof(double)),
            0);
  // Identical payloads collapse to a single zero-run token.
  delta_encode(cur, cur, code);
  EXPECT_LE(code.size(), 3u);
  rt = cur;
  delta_decode_inplace(rt, code);
  EXPECT_EQ(std::memcmp(rt.data(), cur.data(), cur.size() * sizeof(double)),
            0);
}

TEST(DeltaCodec, DecodeRejectsMalformedStreams) {
  const std::vector<double> base = {1.0, 2.0, 3.0};
  const std::vector<double> next = {1.5, 2.0, 3.0};
  std::vector<std::uint8_t> code;
  delta_encode(base, next, code);
  std::vector<double> buf = base;
  // Truncation mid-token.
  std::vector<std::uint8_t> cut(code.begin(), code.end() - 1);
  EXPECT_THROW(delta_decode_inplace(buf, cut), std::runtime_error);
  // Zero-run overrunning the payload.
  buf = base;
  const std::vector<std::uint8_t> overrun = {0x00, 0x04};
  EXPECT_THROW(delta_decode_inplace(buf, overrun), std::runtime_error);
  // Trailing garbage past the last word.
  std::vector<std::uint8_t> fat = code;
  fat.insert(fat.end(), {0x00, 0x01});
  buf = base;
  EXPECT_THROW(delta_decode_inplace(buf, fat), std::runtime_error);
}

TEST(DeltaRing, EvictionReanchorsAndForEachDecodes) {
  constexpr std::size_t kN = 32;
  Rng rng(7);
  DeltaRing ring(kN, /*capacity=*/4);
  std::vector<std::vector<double>> truth;
  std::vector<double> pay(kN, 0.0);
  for (int k = 0; k < 10; ++k) {
    // Wavefront-like evolution: most entries hold their value step to
    // step (zero XOR words), a few change — the regime the ring's delta
    // encoding is built for.
    for (std::size_t i = 0; i < 3; ++i) {
      pay[(static_cast<std::size_t>(k) * 3 + i) % kN] = rng.normal();
    }
    truth.push_back(pay);
    ring.push(k, pay);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.front_step(), 6);
  EXPECT_TRUE(ring.contains(6));
  EXPECT_TRUE(ring.contains(9));
  EXPECT_FALSE(ring.contains(5));
  EXPECT_FALSE(ring.contains(10));
  int seen = 0;
  ring.for_each(7, 10, [&](int step, std::span<const double> p) {
    ASSERT_GE(step, 7);
    ASSERT_LT(step, 10);
    const auto& want = truth[static_cast<std::size_t>(step)];
    EXPECT_EQ(std::memcmp(p.data(), want.data(), kN * sizeof(double)), 0);
    ++seen;
  });
  EXPECT_EQ(seen, 3);
  // Deltas of a smoothly evolving payload must beat raw storage.
  EXPECT_LT(ring.stored_bytes(), ring.raw_bytes());
  // A non-contiguous step resets the ring rather than storing a bogus
  // delta chain.
  ring.push(20, pay);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.front_step(), 20);
  EXPECT_FALSE(ring.contains(9));
}

}  // namespace
