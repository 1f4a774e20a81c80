// Tests for the quake::obs telemetry layer: scope nesting, counter/gauge/
// series recording, report encode/decode, the across-rank merge through the
// real quake::par communicator, JSON round-trips, and the disabled-mode
// zero-allocation guarantee.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <optional>
#include <stdexcept>
#include <thread>

#include "quake/obs/json.hpp"
#include "quake/obs/obs.hpp"
#include "quake/obs/report.hpp"
#include "quake/obs/sink.hpp"
#include "quake/par/communicator.hpp"
#include "quake/util/rng.hpp"

namespace {

using namespace quake;

// Global operator new/delete override counting allocations, to verify the
// disabled hot path allocates nothing. Counting is toggled so gtest's own
// bookkeeping does not pollute the measurement.
std::atomic<bool> g_count_allocs{false};
std::atomic<long> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    reg_.clear();
  }
  void TearDown() override { obs::set_enabled(false); }
  obs::Registry reg_;
};

TEST_F(ObsTest, NestedScopeAccumulation) {
  const obs::ScopedRegistry install(reg_);
  for (int i = 0; i < 3; ++i) {
    QUAKE_OBS_SCOPE("outer");
    {
      QUAKE_OBS_SCOPE("inner");
    }
    {
      QUAKE_OBS_SCOPE("inner");
    }
  }
  ASSERT_EQ(reg_.scopes.count("outer"), 1u);
  ASSERT_EQ(reg_.scopes.count("outer/inner"), 1u);
  EXPECT_EQ(reg_.scopes["outer"].calls, 3u);
  EXPECT_EQ(reg_.scopes["outer/inner"].calls, 6u);
  // Inclusive timing: the outer scope covers its nested scopes.
  EXPECT_GE(reg_.scopes["outer"].seconds, reg_.scopes["outer/inner"].seconds);
}

TEST_F(ObsTest, SlashInScopeNameJoinsPath) {
  const obs::ScopedRegistry install(reg_);
  {
    QUAKE_OBS_SCOPE("step/exchange");
    QUAKE_OBS_SCOPE("send");
  }
  EXPECT_EQ(reg_.scopes.count("step/exchange/send"), 1u);
}

TEST_F(ObsTest, CountersGaugesSeries) {
  const obs::ScopedRegistry install(reg_);
  obs::counter_add("n", 2);
  obs::counter_add("n", 3);
  obs::gauge_set("g", 1.5);
  obs::gauge_set("g", 2.5);  // last write wins
  obs::series_append("s", 1.0);
  obs::series_append("s", 4.0);
  EXPECT_EQ(reg_.counters["n"], 5);
  EXPECT_DOUBLE_EQ(reg_.gauges["g"], 2.5);
  ASSERT_EQ(reg_.series["s"].size(), 2u);
  EXPECT_DOUBLE_EQ(reg_.series["s"][1], 4.0);
}

TEST_F(ObsTest, DisabledCallsRecordNothing) {
  obs::set_enabled(false);
  const obs::ScopedRegistry install(reg_);
  {
    QUAKE_OBS_SCOPE("x");
    obs::counter_add("n", 1);
    obs::gauge_set("g", 1.0);
    obs::series_append("s", 1.0);
  }
  EXPECT_TRUE(reg_.empty());
}

TEST_F(ObsTest, DisabledHotPathAllocatesNothing) {
  obs::set_enabled(false);
  const obs::ScopedRegistry install(reg_);
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < 1000; ++i) {
    QUAKE_OBS_SCOPE("kernel");
    obs::counter_add("elements", 64);
    obs::series_append("trace", static_cast<double>(i));
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0);
}

TEST_F(ObsTest, ScopedRegistryRestoresPrevious) {
  const obs::ScopedRegistry outer(reg_);
  obs::Registry inner_reg;
  {
    const obs::ScopedRegistry inner(inner_reg);
    obs::counter_add("k", 1);
  }
  obs::counter_add("k", 10);
  EXPECT_EQ(inner_reg.counters["k"], 1);
  EXPECT_EQ(reg_.counters["k"], 10);
}

TEST_F(ObsTest, MergeFromAccumulates) {
  obs::Registry a, b;
  a.scopes["s"] = {2, 1.0};
  a.counters["c"] = 5;
  a.series["t"] = {1.0};
  b.scopes["s"] = {3, 2.0};
  b.counters["c"] = 7;
  b.gauges["g"] = 9.0;
  b.series["t"] = {2.0, 3.0};
  a.merge_from(b);
  EXPECT_EQ(a.scopes["s"].calls, 5u);
  EXPECT_DOUBLE_EQ(a.scopes["s"].seconds, 3.0);
  EXPECT_EQ(a.counters["c"], 12);
  EXPECT_DOUBLE_EQ(a.gauges["g"], 9.0);
  EXPECT_EQ(a.series["t"].size(), 3u);
}

TEST_F(ObsTest, EncodeDecodeRoundTrip) {
  obs::RankReport r;
  r.rank = 3;
  r.metrics.scopes["step/compute"] = {41, 0.125};
  r.metrics.scopes["step/exchange/recv"] = {41, 0.5};
  r.metrics.counters["comm/bytes_sent"] = (1ll << 53);
  r.metrics.counters["neg"] = -7;
  r.metrics.gauges["par/n_elems"] = 1234.0;
  r.metrics.series["gn/misfit"] = {3.0, 2.0, 1.5};

  const std::vector<double> enc = obs::encode_report(r);
  const obs::RankReport d = obs::decode_report(enc);
  EXPECT_EQ(d.rank, 3);
  EXPECT_EQ(d.metrics.scopes.at("step/compute").calls, 41u);
  EXPECT_DOUBLE_EQ(d.metrics.scopes.at("step/exchange/recv").seconds, 0.5);
  EXPECT_EQ(d.metrics.counters.at("comm/bytes_sent"), 1ll << 53);
  EXPECT_EQ(d.metrics.counters.at("neg"), -7);
  EXPECT_DOUBLE_EQ(d.metrics.gauges.at("par/n_elems"), 1234.0);
  ASSERT_EQ(d.metrics.series.at("gn/misfit").size(), 3u);
  EXPECT_DOUBLE_EQ(d.metrics.series.at("gn/misfit")[2], 1.5);
}

TEST_F(ObsTest, DecodeRejectsTruncatedBuffer) {
  obs::RankReport r;
  r.rank = 0;
  r.metrics.counters["c"] = 1;
  std::vector<double> enc = obs::encode_report(r);
  enc.pop_back();
  EXPECT_THROW(obs::decode_report(enc), std::runtime_error);
  EXPECT_THROW(obs::decode_report(std::vector<double>{}), std::runtime_error);
}

// Seeded mutation test of the report decoder (the
// Checkpoint.MutatedSnapshotsNeverDecodeWrong pattern). Each integer field
// overwritten with NaN, +-Inf, a fraction or a value out of its type's
// range throws; an in-range integer decodes to exactly that value. Random
// overwrites of any field, counts and key characters included, some also
// truncated, either throw std::runtime_error or return a report: a count
// the buffer cannot hold is rejected before a string or vector is sized
// from it.
TEST_F(ObsTest, MutatedReportsNeverDecodeWrong) {
  obs::RankReport r;
  r.rank = 2;
  r.metrics.scopes["s"] = {5, 0.25};
  r.metrics.counters["c"] = -3;
  r.metrics.gauges["g"] = 1.5;
  r.metrics.series["t"] = {1.0, 2.0};
  const std::vector<double> good = obs::encode_report(r);
  // [rank, 1 scope, "s", calls, seconds, 1 counter, "c", value, ...]
  constexpr std::size_t kRank = 0, kCalls = 4, kCounter = 9;
  ASSERT_EQ(good[kRank], 2.0);
  ASSERT_EQ(good[kCalls], 5.0);
  ASSERT_EQ(good[kCounter], -3.0);

  const double kInf = std::numeric_limits<double>::infinity();
  const double two31 = 2147483648.0, two63 = 9223372036854775808.0;
  const std::vector<double> poison = {
      std::numeric_limits<double>::quiet_NaN(), kInf, -kInf, -1.0, 1e300,
      -1e300, 0.5, -2.5, 1e12, 1e18, 127.0, -128.0, 128.0, -129.0, two31,
      -two31, -two31 - 1.0, two63, -two63, -two63 - 4096.0, 2.0 * two63,
      static_cast<double>(good.size() + 1)};
  const auto decode = [](const std::vector<double>& buf)
      -> std::optional<obs::RankReport> {
    try {
      return obs::decode_report(buf);
    } catch (const std::runtime_error&) {
      return std::nullopt;
    }
  };
  for (const double v : poison) {
    std::vector<double> bad = good;
    bad[kRank] = v;
    if (const auto d = decode(bad)) {
      EXPECT_EQ(static_cast<double>(d->rank), v) << v;
    }
    bad = good;
    bad[kCalls] = v;
    if (const auto d = decode(bad)) {
      EXPECT_EQ(static_cast<double>(d->metrics.scopes.at("s").calls), v) << v;
    }
    bad = good;
    bad[kCounter] = v;
    if (const auto d = decode(bad)) {
      EXPECT_EQ(static_cast<double>(d->metrics.counters.at("c")), v) << v;
    }
  }

  util::Rng rng(2027);
  int decoded = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<double> bad = good;
    const std::uint64_t n_mut = 1 + rng.next_u64() % 4;
    for (std::uint64_t m = 0; m < n_mut; ++m) {
      bad[rng.next_u64() % bad.size()] =
          rng.uniform() < 0.8 ? poison[rng.next_u64() % poison.size()]
                              : rng.uniform(-300.0, 300.0);
    }
    if (rng.uniform() < 0.25) bad.resize(rng.next_u64() % (bad.size() + 1));
    if (decode(bad)) ++decoded;
  }
  // Both outcomes occur: the mutations reach fields any double may hold.
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, 4000);
}

TEST_F(ObsTest, MergeReportsMinMeanMaxAndMissingKeysAsZero) {
  std::vector<obs::RankReport> reports(3);
  for (int i = 0; i < 3; ++i) reports[static_cast<std::size_t>(i)].rank = i;
  reports[0].metrics.counters["c"] = 2;
  reports[1].metrics.counters["c"] = 4;
  reports[2].metrics.counters["c"] = 6;
  // "only01" missing on rank 2: contributes 0 (all-ranks reduce).
  reports[0].metrics.counters["only01"] = 3;
  reports[1].metrics.counters["only01"] = 3;
  reports[0].metrics.scopes["s"] = {1, 1.0};
  reports[1].metrics.scopes["s"] = {1, 3.0};
  reports[2].metrics.scopes["s"] = {2, 2.0};

  const obs::MergedReport m = obs::merge_reports(reports);
  EXPECT_EQ(m.n_ranks, 3);
  EXPECT_DOUBLE_EQ(m.counters.at("c").min, 2.0);
  EXPECT_DOUBLE_EQ(m.counters.at("c").mean, 4.0);
  EXPECT_DOUBLE_EQ(m.counters.at("c").max, 6.0);
  EXPECT_DOUBLE_EQ(m.counters.at("c").sum, 12.0);
  EXPECT_DOUBLE_EQ(m.counters.at("only01").min, 0.0);
  EXPECT_DOUBLE_EQ(m.counters.at("only01").mean, 2.0);
  EXPECT_EQ(m.scopes.at("s").calls_total, 4u);
  EXPECT_DOUBLE_EQ(m.scopes.at("s").seconds.max, 3.0);
}

// The tentpole integration check: per-rank registries recorded on real SPMD
// threads, shipped through the communicator as encoded reports, merged at
// rank 0 — the transport run_parallel uses.
TEST_F(ObsTest, CounterMergeAcrossRanksViaCommunicator) {
  constexpr int kRanks = 4;
  std::vector<obs::Registry> regs(kRanks);
  par::Communicator comm(kRanks);
  obs::MergedReport merged;
  comm.run([&](par::Rank& rank) {
    const obs::ScopedRegistry install(
        regs[static_cast<std::size_t>(rank.id())]);
    {
      QUAKE_OBS_SCOPE("work");
      obs::counter_add("items", 10 * (rank.id() + 1));
    }
    if (rank.id() == 0) {
      std::vector<obs::RankReport> reports;
      reports.push_back({0, regs[0]});
      for (int s = 1; s < kRanks; ++s) {
        reports.push_back(obs::decode_report(rank.recv(s, /*tag=*/5)));
      }
      merged = obs::merge_reports(reports);
    } else {
      rank.send(0, /*tag=*/5,
                obs::encode_report(
                    {rank.id(), regs[static_cast<std::size_t>(rank.id())]}));
    }
  });
  EXPECT_EQ(merged.n_ranks, kRanks);
  EXPECT_DOUBLE_EQ(merged.counters.at("items").min, 10.0);
  EXPECT_DOUBLE_EQ(merged.counters.at("items").max, 40.0);
  EXPECT_DOUBLE_EQ(merged.counters.at("items").mean, 25.0);
  EXPECT_DOUBLE_EQ(merged.counters.at("items").sum, 100.0);
  EXPECT_EQ(merged.scopes.at("work").calls_total, 4u);
  // The per-rank traffic counters recorded by Rank::send/recv stayed in
  // each rank's own registry.
  EXPECT_EQ(regs[0].counters.count("comm/bytes_sent"), 0u);
  EXPECT_GT(regs[1].counters.at("comm/bytes_sent"), 0);
}

TEST_F(ObsTest, JsonRoundTrip) {
  obs::Json root = obs::Json::object();
  root.set("name", "bench \"x\"\n\t\\");
  root.set("count", 42);
  root.set("pi", 3.141592653589793);
  root.set("tiny", 1.25e-17);
  root.set("flag", true);
  root.set("nothing", obs::Json());
  obs::Json arr = obs::Json::array();
  arr.push_back(1.0);
  arr.push_back(-2.5);
  root.set("vals", std::move(arr));
  obs::Json nested = obs::Json::object();
  nested.set("k", "v");
  root.set("obj", std::move(nested));

  const std::string text = root.dump();
  obs::Json parsed;
  std::string err;
  ASSERT_TRUE(obs::Json::parse(text, &parsed, &err)) << err;
  EXPECT_EQ(parsed.find("name")->as_string(), "bench \"x\"\n\t\\");
  EXPECT_DOUBLE_EQ(parsed.find("count")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parsed.find("pi")->as_number(), 3.141592653589793);
  EXPECT_DOUBLE_EQ(parsed.find("tiny")->as_number(), 1.25e-17);
  EXPECT_TRUE(parsed.find("flag")->as_bool());
  EXPECT_EQ(parsed.find("nothing")->type(), obs::Json::Type::kNull);
  ASSERT_EQ(parsed.find("vals")->items().size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.find("vals")->items()[1].as_number(), -2.5);
  EXPECT_EQ(parsed.find("obj")->find("k")->as_string(), "v");
  // Dump of the parse matches the original dump (stable member order).
  EXPECT_EQ(parsed.dump(), text);
}

TEST_F(ObsTest, JsonParseErrors) {
  obs::Json v;
  std::string err;
  EXPECT_FALSE(obs::Json::parse("{\"a\": }", &v, &err));
  EXPECT_FALSE(obs::Json::parse("[1, 2", &v, &err));
  EXPECT_FALSE(obs::Json::parse("\"unterminated", &v, &err));
  EXPECT_FALSE(obs::Json::parse("12abc", &v, &err));
  EXPECT_FALSE(obs::Json::parse("{} trailing", &v, &err));
  EXPECT_TRUE(obs::Json::parse("  null  ", &v, &err));
}

TEST_F(ObsTest, SinkEnvelopeRoundTrip) {
  obs::MetricsSink sink("unit");
  obs::Json& row = sink.new_row();
  row.set("params", obs::Json::object().set("n", 4));
  row.set("metrics", obs::Json::object().set("t", 0.5));
  const std::string text = sink.envelope().dump();
  obs::Json parsed;
  std::string err;
  ASSERT_TRUE(obs::Json::parse(text, &parsed, &err)) << err;
  EXPECT_EQ(parsed.find("schema")->as_string(), "quake.bench/1");
  EXPECT_EQ(parsed.find("bench")->as_string(), "unit");
  ASSERT_EQ(parsed.find("rows")->items().size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.find("rows")
                       ->items()[0]
                       .find("metrics")
                       ->find("t")
                       ->as_number(),
                   0.5);
}

}  // namespace
