// Tests for the SPMD substrate: communicator semantics, SFC partitioning,
// equivalence of the step loop with the serial reference stepper, fault
// tolerance, batching, the per-run hooks (initial conditions, the component
// mask, snapshots), and the matrix of what composes in ParallelSetup::solve.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "quake/fem/hex_element.hpp"
#include "quake/mesh/meshgen.hpp"
#include "quake/obs/obs.hpp"
#include "quake/obs/report.hpp"
#include "quake/obs/sink.hpp"
#include "quake/par/communicator.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/par/partition.hpp"
#include "quake/util/stats.hpp"
#include "reference_stepper.hpp"

namespace {

using namespace quake;
using namespace quake::par;
using testsupport::same_bits;

TEST(Communicator, PingPong) {
  Communicator comm(2);
  comm.run([](Rank& r) {
    if (r.id() == 0) {
      std::vector<double> msg = {1.0, 2.0, 3.0};
      r.send(1, 7, msg);
      const auto reply = r.recv(1, 7);
      ASSERT_EQ(reply.size(), 1u);
      EXPECT_DOUBLE_EQ(reply[0], 6.0);
    } else {
      const auto msg = r.recv(0, 7);
      ASSERT_EQ(msg.size(), 3u);
      std::vector<double> reply = {msg[0] + msg[1] + msg[2]};
      r.send(0, 7, reply);
    }
  });
}

TEST(Communicator, RecvIntoFillsCallerBuffer) {
  Communicator comm(2);
  comm.run([](Rank& r) {
    if (r.id() == 0) {
      const std::vector<double> msg = {1.5, -2.0, 3.25};
      r.send(1, /*tag=*/7, msg);
    } else {
      std::vector<double> buf(3, 0.0);
      r.recv_into(0, /*tag=*/7, buf);
      EXPECT_DOUBLE_EQ(buf[0], 1.5);
      EXPECT_DOUBLE_EQ(buf[1], -2.0);
      EXPECT_DOUBLE_EQ(buf[2], 3.25);
    }
  });
}

TEST(Communicator, RecvIntoSizeMismatchThrows) {
  // A preplanned exchange must deliver exactly the agreed size; anything
  // else is a program error, not a message to silently truncate or pad.
  Communicator comm(2);
  std::atomic<bool> threw{false};
  try {
    comm.run([&](Rank& r) {
      if (r.id() == 0) {
        const std::vector<double> msg = {1.0, 2.0};
        r.send(1, 0, msg);
      } else {
        std::vector<double> buf(5, 0.0);
        try {
          r.recv_into(0, 0, buf);
        } catch (const CommError&) {
          threw = true;
          throw;
        }
      }
    });
  } catch (const RankFailedError&) {
  }
  EXPECT_TRUE(threw);
}

TEST(Communicator, MessagesArriveInOrder) {
  Communicator comm(2);
  comm.run([](Rank& r) {
    if (r.id() == 0) {
      for (int i = 0; i < 50; ++i) {
        std::vector<double> msg = {static_cast<double>(i)};
        r.send(1, 0, msg);
      }
    } else {
      for (int i = 0; i < 50; ++i) {
        const auto msg = r.recv(0, 0);
        EXPECT_DOUBLE_EQ(msg[0], static_cast<double>(i));
      }
    }
  });
}

TEST(Communicator, AllReduce) {
  Communicator comm(4);
  comm.run([](Rank& r) {
    const double s = r.allreduce_sum(static_cast<double>(r.id() + 1));
    EXPECT_DOUBLE_EQ(s, 10.0);
    const double m = r.allreduce_max(static_cast<double>(r.id()));
    EXPECT_DOUBLE_EQ(m, 3.0);
    // Second round: generation counters must reset correctly.
    const double s2 = r.allreduce_sum(1.0);
    EXPECT_DOUBLE_EQ(s2, 4.0);
  });
}

TEST(Communicator, BarrierSynchronizes) {
  Communicator comm(4);
  std::atomic<int> before{0}, after{0};
  comm.run([&](Rank& r) {
    before.fetch_add(1);
    r.barrier();
    EXPECT_EQ(before.load(), 4);
    after.fetch_add(1);
    r.barrier();
    EXPECT_EQ(after.load(), 4);
  });
}

TEST(Communicator, ExceptionPropagates) {
  Communicator comm(2);
  EXPECT_THROW(comm.run([](Rank& r) {
    if (r.id() == 1) throw std::runtime_error("rank fault");
    // Rank 0 must not deadlock waiting; it simply finishes.
  }),
               std::runtime_error);
}

// Regression: before communicator poisoning, a throwing rank left every
// peer blocked inside recv/barrier forever and run() never returned.
TEST(Communicator, PeerFailureWakesBlockedRecv) {
  Communicator comm(3);
  try {
    comm.run([](Rank& r) {
      if (r.id() == 2) throw std::runtime_error("rank 2 died");
      if (r.id() == 0) r.recv(2, 0);  // would hang: rank 2 never sends
      if (r.id() == 1) r.barrier();   // would hang: never completed
    });
    FAIL() << "run() must throw after a rank failure";
  } catch (const RankFailedError& e) {
    ASSERT_EQ(e.failed_ranks().size(), 1u);
    EXPECT_EQ(e.failed_ranks()[0], 2);
    EXPECT_NE(std::string(e.what()).find("rank 2 died"), std::string::npos);
  }
}

TEST(Communicator, RunAggregatesAllRankErrors) {
  Communicator comm(4);
  try {
    comm.run([](Rank& r) {
      if (r.id() == 1) throw std::runtime_error("fault A");
      if (r.id() == 3) throw std::runtime_error("fault B");
    });
    FAIL() << "run() must throw";
  } catch (const RankFailedError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fault A"), std::string::npos);
    EXPECT_NE(what.find("fault B"), std::string::npos);
    ASSERT_EQ(e.failed_ranks().size(), 2u);
  }
}

TEST(Communicator, DeadlockDetectedOnMismatchedTags) {
  // Classic mismatched exchange: each rank waits on a tag the other never
  // sends. Must throw DeadlockError naming both blocked operations, not
  // hang forever.
  Communicator comm(2);
  try {
    comm.run([](Rank& r) {
      if (r.id() == 0) {
        r.recv(1, /*tag=*/1);
      } else {
        r.recv(0, /*tag=*/2);
      }
    });
    FAIL() << "run() must diagnose the deadlock";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0: recv(src=1, tag=1)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 1: recv(src=0, tag=2)"), std::string::npos)
        << what;
  }
}

TEST(Communicator, DeadlockDetectedWhenPeerExitsBeforeBarrier) {
  // Every collective is the one rendezvous; each report names its call.
  const std::vector<std::pair<std::string, std::function<void(Rank&)>>> ops =
      {{"barrier", [](Rank& r) { r.barrier(); }},
       {"allreduce_max", [](Rank& r) { (void)r.allreduce_max(1.0); }},
       {"allgather", [](Rank& r) { (void)r.allgather(1.0); }}};
  for (const auto& [name, op] : ops) {
    Communicator comm(2);
    try {
      comm.run([&](Rank& r) {
        if (r.id() == 0) op(r);  // rank 1 returns without reaching it
      });
      FAIL() << name << ": run() must diagnose the deadlock";
    } catch (const DeadlockError& e) {
      EXPECT_NE(std::string(e.what()).find("rank 0: " + name),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Communicator, MismatchedCollectivesThrowCommError) {
  // A barrier must never pair with an allreduce, whichever arrives first:
  // the late call finds a round of the other kind and throws.
  for (const int late : {0, 1}) {
    Communicator comm(2);
    std::atomic<int> returned{0};
    EXPECT_THROW(comm.run([&](Rank& r) {
      if (r.id() == late) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      if (r.id() == 0) {
        r.barrier();
      } else {
        (void)r.allreduce_max(1.0);
      }
      returned.fetch_add(1);
    }),
                 CommError);
    EXPECT_EQ(returned.load(), 0) << "late rank " << late;
  }
}

TEST(Communicator, AllReduceSumFoldsInRankOrder) {
  // Contributions whose sum depends on the order of addition, arriving in
  // the order 3, 1, 2, 0: the rank-ordered fold ((1e16 + 1) - 1e16) + 1 is
  // 1 on every rank (the arrival-ordered sum would be 2).
  const std::array<double, 4> value = {1e16, 1.0, -1e16, 1.0};
  const std::array<int, 4> delay_ms = {60, 20, 40, 0};
  Communicator comm(4);
  std::array<double, 4> got{};
  comm.run([&](Rank& r) {
    const auto i = static_cast<std::size_t>(r.id());
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms[i]));
    got[i] = r.allreduce_sum(value[i]);
  });
  for (const double g : got) EXPECT_EQ(g, 1.0);
}

TEST(Communicator, DeadlockNotDeclaredWhileMessagePending) {
  // A message posted just before the sender finishes satisfies the blocked
  // receiver: no deadlock, clean completion.
  Communicator comm(2);
  comm.run([](Rank& r) {
    if (r.id() == 0) {
      const std::vector<double> msg = {1.0};
      r.send(1, 0, msg);
    } else {
      EXPECT_DOUBLE_EQ(r.recv(0, 0)[0], 1.0);
    }
  });
}

TEST(Communicator, ReusableAfterFailedRun) {
  Communicator comm(2);
  EXPECT_THROW(comm.run([](Rank& r) {
    if (r.id() == 1) throw std::runtime_error("boom");
    r.recv(1, 0);
  }),
               RankFailedError);
  // The same communicator must support a clean run afterwards.
  comm.run([](Rank& r) {
    if (r.id() == 0) {
      const std::vector<double> msg = {4.0};
      r.send(1, 0, msg);
    } else {
      EXPECT_DOUBLE_EQ(r.recv(0, 0)[0], 4.0);
    }
    r.barrier();
    EXPECT_DOUBLE_EQ(r.allreduce_sum(1.0), 2.0);
  });
}

TEST(FaultInjection, KillRankAtStepThrowsAggregatedError) {
  Communicator comm(3);
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/1, /*step=*/5});
  comm.install_fault_plan(plan);
  try {
    comm.run([](Rank& r) {
      for (int k = 0; k < 10; ++k) {
        r.fault_point(k);
        r.barrier();
      }
    });
    FAIL() << "injected kill must surface";
  } catch (const RankFailedError& e) {
    ASSERT_EQ(e.failed_ranks().size(), 1u);
    EXPECT_EQ(e.failed_ranks()[0], 1);
    EXPECT_NE(std::string(e.what()).find("injected fault"),
              std::string::npos);
  }
  // One-shot: a retry on the same communicator passes the kill step.
  comm.run([](Rank& r) {
    for (int k = 0; k < 10; ++k) {
      r.fault_point(k);
      r.barrier();
    }
  });
}

TEST(FaultInjection, DroppedMessageDiagnosedAsDeadlock) {
  Communicator comm(2);
  FaultPlan plan;
  plan.msg_faults.push_back(
      {/*src=*/0, /*dst=*/1, /*tag=*/0, /*occurrence=*/0,
       FaultPlan::MsgAction::kDrop});
  comm.install_fault_plan(plan);
  EXPECT_THROW(comm.run([](Rank& r) {
    if (r.id() == 0) {
      const std::vector<double> msg = {1.0};
      r.send(1, 0, msg);
    } else {
      r.recv(0, 0);  // the message was dropped; sender has finished
    }
  }),
               DeadlockError);
}

TEST(FaultInjection, DuplicatedMessageArrivesTwice) {
  Communicator comm(2);
  FaultPlan plan;
  plan.msg_faults.push_back(
      {0, 1, 0, 0, FaultPlan::MsgAction::kDuplicate});
  comm.install_fault_plan(plan);
  comm.run([](Rank& r) {
    if (r.id() == 0) {
      const std::vector<double> msg = {7.0};
      r.send(1, 0, msg);
    } else {
      EXPECT_DOUBLE_EQ(r.recv(0, 0)[0], 7.0);
      EXPECT_DOUBLE_EQ(r.recv(0, 0)[0], 7.0);  // the duplicate
    }
  });
}

TEST(FaultInjection, CorruptedMessageDiffersFromSent) {
  Communicator comm(2);
  FaultPlan plan;
  plan.seed = 42;
  plan.msg_faults.push_back({0, 1, 0, 0, FaultPlan::MsgAction::kCorrupt});
  comm.install_fault_plan(plan);
  comm.run([](Rank& r) {
    const std::vector<double> original = {1.0, 2.0, 3.0, 4.0};
    if (r.id() == 0) {
      r.send(1, 0, original);
    } else {
      const auto got = r.recv(0, 0);
      ASSERT_EQ(got.size(), original.size());
      int n_diff = 0;
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i] != original[i]) ++n_diff;
      }
      EXPECT_EQ(n_diff, 1);  // exactly one element bit-flipped
    }
  });
}

TEST(FaultInjection, DelayedMessageReordersEdge) {
  Communicator comm(2);
  FaultPlan plan;
  plan.msg_faults.push_back({0, 1, 0, 0, FaultPlan::MsgAction::kDelay});
  comm.install_fault_plan(plan);
  comm.run([](Rank& r) {
    if (r.id() == 0) {
      const std::vector<double> a = {1.0}, b = {2.0};
      r.send(1, 0, a);
      r.send(1, 0, b);
    } else {
      // First send was held back until the second: order inverted.
      EXPECT_DOUBLE_EQ(r.recv(0, 0)[0], 2.0);
      EXPECT_DOUBLE_EQ(r.recv(0, 0)[0], 1.0);
    }
  });
}

TEST(FaultInjection, DelayedMessageFlushedInsteadOfDeadlock) {
  // The delayed message is the only one on its edge; when the receiver
  // blocks and nothing else can make progress, the deadlock checker must
  // flush it rather than declare a (false) deadlock.
  Communicator comm(2);
  FaultPlan plan;
  plan.msg_faults.push_back({0, 1, 0, 0, FaultPlan::MsgAction::kDelay});
  comm.install_fault_plan(plan);
  comm.run([](Rank& r) {
    if (r.id() == 0) {
      const std::vector<double> msg = {3.0};
      r.send(1, 0, msg);
    } else {
      EXPECT_DOUBLE_EQ(r.recv(0, 0)[0], 3.0);
    }
  });
}

TEST(Communicator, TryRecvIntoNonBlocking) {
  Communicator comm(2);
  comm.run([](Rank& r) {
    if (r.id() == 0) {
      std::vector<double> buf(2, 0.0);
      // Nothing posted yet (rank 1 sends only after the first barrier):
      // must return false immediately, not block.
      EXPECT_FALSE(r.try_recv_into(1, /*tag=*/5, buf));
      r.barrier();
      r.barrier();  // rank 1 posts between the two barriers
      EXPECT_TRUE(r.try_recv_into(1, /*tag=*/5, buf));
      EXPECT_DOUBLE_EQ(buf[0], 4.0);
      EXPECT_DOUBLE_EQ(buf[1], -1.5);
      // Edge drained: polling again is false again.
      EXPECT_FALSE(r.try_recv_into(1, /*tag=*/5, buf));
    } else {
      const std::vector<double> msg = {4.0, -1.5};
      r.barrier();
      r.send(0, /*tag=*/5, msg);
      r.barrier();
    }
  });
}

TEST(Communicator, TryRecvIntoSizeMismatchThrows) {
  Communicator comm(2);
  std::atomic<bool> threw{false};
  try {
    comm.run([&](Rank& r) {
      if (r.id() == 0) {
        const std::vector<double> msg = {1.0, 2.0};
        r.send(1, 0, msg);
        r.barrier();
      } else {
        r.barrier();  // ensure the message is posted
        std::vector<double> buf(5, 0.0);
        try {
          (void)r.try_recv_into(0, 0, buf);
        } catch (const CommError&) {
          threw = true;
          throw;
        }
      }
    });
  } catch (const RankFailedError&) {
  }
  EXPECT_TRUE(threw);
}

// The solver's arrival-order drain protocol, distilled: every rank sends a
// deterministic partial to every peer, parks payloads in whatever order
// they arrive (polling with try_recv_into, falling back to a blocking
// recv_into on the lowest pending edge when a pass makes no progress), and
// only then accumulates in ascending rank order. The resulting sums must be
// bitwise identical to a strict ascending-rank blocking drain — regardless
// of arrival order, including a seeded delay fault that makes the lowest
// rank's payload arrive last.
class ArrivalOrderDrain : public ::testing::TestWithParam<int> {};

namespace drain_protocol {

constexpr int kWidth = 7;  // doubles per edge payload

double payload(int src, int dst, int i) {
  // Non-symmetric, magnitude-varied values so accumulation order shows up
  // in the low bits if the protocol got it wrong.
  return std::sin(1.0 + 13.0 * src + 31.0 * dst + 7.0 * i) *
         std::pow(10.0, (src + i) % 5);
}

// Reference: ascending-rank accumulation, computed without any exchange.
std::vector<double> expected_sums_for(int dst, int R) {
  std::vector<double> sums(kWidth, 0.0);
  for (int src = 0; src < R; ++src) {
    for (int i = 0; i < kWidth; ++i) {
      sums[static_cast<std::size_t>(i)] += payload(src, dst, i);
    }
  }
  return sums;
}

// One exchange round with the solver's wait-then-accumulate protocol.
// Returns the order in which the R-1 peer payloads were parked (peer rank
// ids), for asserting who arrived last. With sync_before_drain, ranks
// handshake on tag 1 after posting payloads, so every non-delayed payload
// is already queued when the poll loop starts — that makes the arrival
// position of a delayed edge deterministic instead of scheduler-dependent.
std::vector<int> drain_round(Rank& r, std::vector<double>& sums,
                             bool sync_before_drain = false) {
  const int R = r.size();
  std::vector<double> mine(kWidth);
  for (int i = 0; i < kWidth; ++i) {
    mine[static_cast<std::size_t>(i)] = payload(r.id(), r.id(), i);
  }
  for (int dst = 0; dst < R; ++dst) {
    if (dst == r.id()) continue;
    std::vector<double> msg(kWidth);
    for (int i = 0; i < kWidth; ++i) {
      msg[static_cast<std::size_t>(i)] = payload(r.id(), dst, i);
    }
    r.send(dst, /*tag=*/0, msg);
  }
  if (sync_before_drain) {
    const std::vector<double> ready = {1.0};
    for (int dst = 0; dst < R; ++dst) {
      if (dst != r.id()) r.send(dst, /*tag=*/1, ready);
    }
    std::vector<double> ack(1);
    for (int s = 0; s < R; ++s) {
      if (s != r.id()) r.recv_into(s, /*tag=*/1, ack);
    }
  }
  std::vector<std::vector<double>> parked(static_cast<std::size_t>(R),
                                          std::vector<double>(kWidth, 0.0));
  std::vector<std::uint8_t> arrived(static_cast<std::size_t>(R), 0);
  std::vector<int> order;
  constexpr int kIdlePassLimit = 64;
  int n_pending = R - 1;
  int idle_passes = 0;
  while (n_pending > 0) {
    int progressed = 0;
    int first_pending = -1;
    for (int s = 0; s < R; ++s) {
      if (s == r.id() || arrived[static_cast<std::size_t>(s)] != 0) continue;
      if (r.try_recv_into(s, /*tag=*/0,
                          parked[static_cast<std::size_t>(s)])) {
        arrived[static_cast<std::size_t>(s)] = 1;
        order.push_back(s);
        --n_pending;
        ++progressed;
      } else if (first_pending < 0) {
        first_pending = s;
      }
    }
    if (n_pending == 0 || progressed > 0) {
      idle_passes = 0;
    } else if (++idle_passes < kIdlePassLimit) {
      std::this_thread::yield();
    } else {
      r.recv_into(first_pending, /*tag=*/0,
                  parked[static_cast<std::size_t>(first_pending)]);
      arrived[static_cast<std::size_t>(first_pending)] = 1;
      order.push_back(first_pending);
      --n_pending;
      idle_passes = 0;
    }
  }
  // Deferred ascending-rank accumulation, own partial at own position.
  sums.assign(kWidth, 0.0);
  for (int s = 0; s < R; ++s) {
    const std::vector<double>& src =
        s == r.id() ? mine : parked[static_cast<std::size_t>(s)];
    for (int i = 0; i < kWidth; ++i) {
      sums[static_cast<std::size_t>(i)] += src[static_cast<std::size_t>(i)];
    }
  }
  return order;
}

}  // namespace drain_protocol

TEST_P(ArrivalOrderDrain, BitwiseMatchesRankOrderedSums) {
  const int R = GetParam();
  Communicator comm(R);
  comm.run([R](Rank& r) {
    std::vector<double> sums;
    (void)drain_protocol::drain_round(r, sums);
    const std::vector<double> want =
        drain_protocol::expected_sums_for(r.id(), R);
    for (int i = 0; i < drain_protocol::kWidth; ++i) {
      EXPECT_EQ(sums[static_cast<std::size_t>(i)],
                want[static_cast<std::size_t>(i)])
          << "rank " << r.id() << " i=" << i;
    }
    r.barrier();
  });
}

TEST_P(ArrivalOrderDrain, DelayedLowRankArrivesLastSameSums) {
  const int R = GetParam();
  Communicator comm(R);
  // Hold back rank 0's payload to rank R-1: every other edge lands first,
  // and the delayed one is only flushed once the receiver has parked all
  // other peers and blocked on rank 0 (all live ranks blocked). The
  // deferred rank-ordered accumulation must erase the arrival order from
  // the result.
  FaultPlan plan;
  plan.seed = 99;
  plan.msg_faults.push_back(
      {/*src=*/0, /*dst=*/R - 1, /*tag=*/0, /*occurrence=*/0,
       FaultPlan::MsgAction::kDelay});
  comm.install_fault_plan(plan);
  comm.run([R](Rank& r) {
    std::vector<double> sums;
    const std::vector<int> order =
        drain_protocol::drain_round(r, sums, /*sync_before_drain=*/true);
    const std::vector<double> want =
        drain_protocol::expected_sums_for(r.id(), R);
    for (int i = 0; i < drain_protocol::kWidth; ++i) {
      EXPECT_EQ(sums[static_cast<std::size_t>(i)],
                want[static_cast<std::size_t>(i)])
          << "rank " << r.id() << " i=" << i;
    }
    if (r.id() == R - 1) {
      // The delayed low-rank edge really was the last to arrive.
      ASSERT_EQ(order.size(), static_cast<std::size_t>(R - 1));
      EXPECT_EQ(order.back(), 0);
    }
    // Keep every rank alive until the delayed message has been flushed:
    // the flush fires only while all live ranks are blocked.
    r.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, ArrivalOrderDrain,
                         ::testing::Values(2, 4, 8));

mesh::HexMesh small_basin_mesh() {
  const vel::BasinModel basin = vel::BasinModel::demo(20000.0);
  mesh::MeshOptions opt;
  opt.domain_size = 20000.0;
  opt.f_max = 0.04;
  opt.n_lambda = 8.0;
  opt.min_level = 2;
  opt.max_level = 4;
  return mesh::generate_mesh(basin, opt);
}

TEST(Partition, CoversAllElementsContiguously) {
  const auto mesh = small_basin_mesh();
  const Partition p = partition_sfc(mesh, 4);
  std::size_t total = 0;
  int prev_rank = 0;
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    EXPECT_GE(p.elem_rank[e], prev_rank);  // contiguous chunks along SFC
    prev_rank = p.elem_rank[e];
    ++total;
  }
  EXPECT_EQ(total, mesh.n_elements());
  std::size_t sum = 0;
  for (const auto& re : p.rank_elems) sum += re.size();
  EXPECT_EQ(sum, mesh.n_elements());
  EXPECT_LT(p.imbalance(), 1.1);
}

TEST(Partition, NodeOwnershipValid) {
  const auto mesh = small_basin_mesh();
  const Partition p = partition_sfc(mesh, 4);
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    EXPECT_GE(p.node_owner[n], 0);
    EXPECT_LT(p.node_owner[n], 4);
  }
}

TEST(Partition, SharedNodesShrinkRelativeToVolume) {
  // Surface-to-volume: shared fraction should be well below 1 for modest
  // rank counts on a 3D mesh.
  const auto mesh = small_basin_mesh();
  const Partition p = partition_sfc(mesh, 4);
  for (const auto& s : p.stats) {
    EXPECT_GT(s.n_nodes, 0u);
    EXPECT_LT(static_cast<double>(s.n_shared_nodes),
              0.6 * static_cast<double>(s.n_nodes));
  }
}

TEST(Partition, SingleRankHasNoSharing) {
  const auto mesh = small_basin_mesh();
  const Partition p = partition_sfc(mesh, 1);
  EXPECT_EQ(p.stats[0].n_shared_nodes, 0u);
  EXPECT_DOUBLE_EQ(p.imbalance(), 1.0);
}

// A node touched by no element used to keep the out-of-range sentinel
// n_ranks in node_owner, which poisoned any downstream locals[owner]
// indexing; it must now be clamped to a valid rank and counted.
TEST(Partition, OrphanNodeClampedAndCounted) {
  auto mesh = small_basin_mesh();
  mesh.node_coords.push_back({123.0, 456.0, 789.0});
  mesh.node_hanging.push_back(0);

  const Partition p = partition_sfc(mesh, 4);
  EXPECT_EQ(p.n_orphan_nodes, 1u);
  ASSERT_EQ(p.node_owner.size(), mesh.n_nodes());
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    EXPECT_GE(p.node_owner[n], 0);
    EXPECT_LT(p.node_owner[n], 4);
  }
  EXPECT_EQ(p.node_owner[mesh.n_nodes() - 1], 0);  // the orphan

  // The solver runs normally on a mesh with orphan nodes (they carry no
  // dynamics; their u_final entries stay zero)...
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.2;
  const ParallelResult pr = run_parallel(mesh, p, oo, so, {}, {});
  const std::size_t base = 3 * (mesh.n_nodes() - 1);
  EXPECT_DOUBLE_EQ(pr.u_final[base], 0.0);
  EXPECT_DOUBLE_EQ(pr.u_final[base + 1], 0.0);
  EXPECT_DOUBLE_EQ(pr.u_final[base + 2], 0.0);

  // ...but a receiver snapping to the orphan is rejected with a diagnosis
  // instead of undefined behavior.
  const std::array<double, 3> rxs[] = {{123.0, 456.0, 789.0}};
  EXPECT_THROW(run_parallel(mesh, p, oo, so, {}, rxs),
               std::invalid_argument);
}

// The equivalence tolerance across rank counts: each rank pre-folds its
// own partials before the exchange, so results regroup sums at rounding.
void expect_close(const ParallelResult& pr, const std::vector<double>& u_ref,
                  const testsupport::History& rec_ref) {
  const double unorm = quake::util::norm_l2(u_ref);
  EXPECT_LT(quake::util::diff_l2(pr.u_final, u_ref), 1e-9 * (1.0 + unorm));
  ASSERT_EQ(pr.receiver_histories[0].size(), rec_ref.size());
  double max_err = 0.0;
  for (std::size_t k = 0; k < rec_ref.size(); ++k) {
    for (std::size_t c = 0; c < 3; ++c) {
      max_err = std::max(
          max_err, std::abs(pr.receiver_histories[0][k][c] - rec_ref[k][c]));
    }
  }
  EXPECT_LT(max_err, 1e-9);
}

class ParallelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalence, MatchesSerialSolver) {
  const int n_ranks = GetParam();
  const auto mesh = small_basin_mesh();
  ASSERT_GT(mesh.n_hanging(), 0u);  // exercise constraint ghosting

  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  oo.rayleigh = true;
  oo.damping_f_min = 0.01;
  oo.damping_f_max = 0.05;
  solver::SolverOptions so;
  so.t_end = 4.0;
  so.cfl_fraction = 0.4;

  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const std::array<double, 3> rx = {14000.0, 9000.0, 0.0};

  // Serial reference: the straight-line eq. 2.4 stepper.
  const solver::ElasticOperator op(mesh, oo);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {rx};
  const testsupport::Reference serial =
      testsupport::reference_global(op, so, sources, rxs);

  // Parallel run.
  const Partition part = partition_sfc(mesh, n_ranks);
  const ParallelResult pr = run_parallel(mesh, part, oo, so, sources, rxs);

  EXPECT_EQ(pr.n_steps, serial.n_steps);
  ASSERT_EQ(pr.u_final.size(), serial.u_final.size());
  ASSERT_EQ(pr.receiver_histories.size(), 1u);
  ASSERT_EQ(pr.receiver_histories[0].size(), serial.receivers[0].size());
  if (n_ranks == 1) {
    // One rank has no exchange and folds in serial element order, so the
    // step loop must reproduce the serial stepper bit for bit.
    EXPECT_TRUE(same_bits(serial, pr));
    return;
  }
  expect_close(pr, serial.u_final, serial.receivers[0]);
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParallelEquivalence,
                         ::testing::Values(1, 2, 4, 7));

// End-to-end acceptance: a run whose rank 2 is killed mid-flight recovers
// from the last checkpoint and produces results bit-identical to the
// fault-free run.
TEST(ParallelCheckpoint, KillAndRestartBitIdenticalToFaultFreeRun) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  oo.rayleigh = true;
  oo.damping_f_min = 0.01;
  oo.damping_f_max = 0.05;
  solver::SolverOptions so;
  so.t_end = 2.0;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const std::array<double, 3> rx = {14000.0, 9000.0, 0.0};
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {rx};
  const Partition part = partition_sfc(mesh, 4);

  const ParallelResult ref = run_parallel(mesh, part, oo, so, sources, rxs);
  ASSERT_GT(ref.n_steps, 8);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "quake_ckpt_kill_test";
  std::filesystem::remove_all(dir);
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/2, /*step=*/2 * ref.n_steps / 3});
  FaultToleranceOptions ft;
  ft.checkpoint_dir = dir.string();
  ft.checkpoint_every = std::max(1, ref.n_steps / 5);
  ft.max_retries = 2;
  ft.fault_plan = &plan;
  const ParallelResult pr = run_parallel(mesh, part, oo, so, sources, rxs, ft);

  EXPECT_EQ(pr.n_steps, ref.n_steps);
  EXPECT_TRUE(same_bits(pr, ref));
  // Per-rank flop counters cover only the final (successful) attempt; a
  // genuine checkpoint resume re-runs strictly fewer steps than the whole
  // simulation, so this fails if the retry silently restarted from scratch.
  EXPECT_LT(pr.rank_stats[0].flops, ref.rank_stats[0].flops);
  std::filesystem::remove_all(dir);
}

// Rank-ordered accumulation makes a run at a fixed rank count exactly
// repeatable: two identical runs must agree to the last bit even though
// the overlapped exchange interleaves compute and message traffic
// differently every time.
TEST(ParallelDeterminism, RepeatedRunsBitIdentical) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  oo.rayleigh = true;
  oo.damping_f_min = 0.01;
  oo.damping_f_max = 0.05;
  solver::SolverOptions so;
  so.t_end = 2.0;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  const Partition part = partition_sfc(mesh, 4);

  const ParallelResult a = run_parallel(mesh, part, oo, so, sources, rxs);
  const ParallelResult b = run_parallel(mesh, part, oo, so, sources, rxs);
  EXPECT_TRUE(same_bits(a, b));
}

// The full solver's arrival-order drain must be as deterministic as the old
// strict ascending-rank drain: repeated runs at each rank count are bitwise
// identical even though thread scheduling shuffles arrival order per step.
TEST(ParallelDeterminism, ArrivalOrderDrainRepeatedRunsBitIdenticalPerRankCount) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  oo.rayleigh = true;
  oo.damping_f_min = 0.01;
  oo.damping_f_max = 0.05;
  solver::SolverOptions so;
  so.t_end = 1.0;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};

  for (const int R : {2, 4, 8}) {
    SCOPED_TRACE("ranks=" + std::to_string(R));
    const Partition part = partition_sfc(mesh, R);
    const ParallelResult a = run_parallel(mesh, part, oo, so, sources, rxs);
    const ParallelResult b = run_parallel(mesh, part, oo, so, sources, rxs);
    EXPECT_TRUE(same_bits(a, b));
  }
}

// Across rank counts the element contributions regroup (each rank pre-folds
// its own partials before the exchange), so bitwise identity to the 1-rank
// run is not achievable — but the drift is pure rounding, orders of
// magnitude below the serial-equivalence tolerance.
TEST(ParallelDeterminism, MultiRankMatchesSingleRankTightly) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  oo.rayleigh = true;
  oo.damping_f_min = 0.01;
  oo.damping_f_max = 0.05;
  solver::SolverOptions so;
  so.t_end = 2.0;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};

  const Partition p1 = partition_sfc(mesh, 1);
  const ParallelResult r1 = run_parallel(mesh, p1, oo, so, sources, rxs);
  for (int R : {2, 4}) {
    const Partition pR = partition_sfc(mesh, R);
    const ParallelResult rR = run_parallel(mesh, pR, oo, so, sources, rxs);
    const double unorm = quake::util::norm_l2(r1.u_final);
    EXPECT_LT(quake::util::diff_l2(rR.u_final, r1.u_final),
              1e-12 * (1.0 + unorm))
        << "R=" << R;
  }
}

// A rank killed between posting its ghost messages and draining its
// neighbors' — the window the overlapped exchange opens — must recover
// from the last checkpoint bit-identically, exactly like a kill at a step
// boundary. FaultPlan step -(k+1) targets run_parallel's mid-exchange
// fault point at step k.
TEST(ParallelCheckpoint, MidExchangeKillRestoresBitIdentically) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  oo.rayleigh = true;
  oo.damping_f_min = 0.01;
  oo.damping_f_max = 0.05;
  solver::SolverOptions so;
  so.t_end = 2.0;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  const solver::SourceModel* sources[] = {&src};
  const Partition part = partition_sfc(mesh, 4);

  const ParallelResult ref = run_parallel(mesh, part, oo, so, sources, rxs);
  ASSERT_GT(ref.n_steps, 8);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "quake_ckpt_midexchange_test";
  std::filesystem::remove_all(dir);
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/1, /*step=*/-(2 * ref.n_steps / 3 + 1)});
  FaultToleranceOptions ft;
  ft.checkpoint_dir = dir.string();
  ft.checkpoint_every = std::max(1, ref.n_steps / 5);
  ft.max_retries = 2;
  ft.fault_plan = &plan;
  const ParallelResult pr = run_parallel(mesh, part, oo, so, sources, rxs, ft);

  EXPECT_EQ(pr.n_steps, ref.n_steps);
  EXPECT_TRUE(same_bits(pr, ref));
  EXPECT_LT(pr.rank_stats[0].flops, ref.rank_stats[0].flops);
  std::filesystem::remove_all(dir);
}

// Without a checkpoint directory, a supervised retry restarts from scratch
// (receiver histories from the failed attempt must not leak into the
// result).
TEST(ParallelCheckpoint, RetryWithoutCheckpointsRestartsFromScratch) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 1.0;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const std::array<double, 3> rx = {14000.0, 9000.0, 0.0};
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {rx};
  const Partition part = partition_sfc(mesh, 3);

  const ParallelResult ref = run_parallel(mesh, part, oo, so, sources, rxs);

  FaultPlan plan;
  plan.kills.push_back({/*rank=*/1, /*step=*/ref.n_steps / 2});
  FaultToleranceOptions ft;
  ft.max_retries = 1;
  ft.fault_plan = &plan;
  const ParallelResult pr = run_parallel(mesh, part, oo, so, sources, rxs, ft);

  EXPECT_TRUE(same_bits(pr, ref));
}

// A deadlock is a deterministic program error: the supervisor rethrows it
// with restart budget to spare. A planned drop fires once per install, so
// a restarted attempt would complete.
TEST(ParallelCheckpoint, DeadlockIsNotRestarted) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.5;
  const Partition part = partition_sfc(mesh, 2);

  FaultPlan plan;
  plan.msg_faults.push_back(
      {/*src=*/0, /*dst=*/1, /*tag=*/0, /*occurrence=*/0,
       FaultPlan::MsgAction::kDrop});
  FaultToleranceOptions ft;
  ft.max_retries = 3;
  ft.fault_plan = &plan;
  EXPECT_THROW(run_parallel(mesh, part, oo, so, {}, {}, ft), DeadlockError);
}

// Retries exhausted: the aggregated error surfaces.
TEST(ParallelCheckpoint, ExhaustedRetriesSurfaceAggregatedError) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.5;
  const Partition part = partition_sfc(mesh, 2);

  FaultPlan plan;
  plan.kills.push_back({0, 1});
  plan.kills.push_back({0, 1});  // second kill defeats the single retry
  FaultToleranceOptions ft;
  ft.max_retries = 1;
  ft.fault_plan = &plan;
  try {
    run_parallel(mesh, part, oo, so, {}, {}, ft);
    FAIL() << "must throw after retries are exhausted";
  } catch (const RankFailedError& e) {
    ASSERT_EQ(e.failed_ranks().size(), 1u);
    EXPECT_EQ(e.failed_ranks()[0], 0);
  }
}

// ---- in-place recovery ----------------------------------------------------

// Substrate-level epoch fencing: a message posted before a rank failure is
// a pre-failure straggler; after the revival the first receive on that
// edge must discard it and deliver the post-recovery message instead.
TEST(Recovery, ReviveDiscardsPreFailureStragglers) {
  Communicator comm(3);
  comm.set_recovery(/*max_revives=*/1);
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/2, /*step=*/0});
  comm.install_fault_plan(plan);
  std::atomic<int> revived_runs{0};
  comm.run([&](Rank& r) {
    if (r.id() == 0) {
      const std::vector<double> stale = {1.0};
      r.send(1, 5, stale);  // still queued when rank 2 dies: epoch-0 message
      const std::vector<double> go = {0.0};
      r.send(2, 6, go);  // hands rank 2 the go-ahead to die
      try {
        (void)r.recv(2, 7);
        FAIL() << "rank 2 must die before replying";
      } catch (const RankFailedError&) {
        ASSERT_TRUE(r.await_recovery());
      }
      const std::vector<double> fresh = {2.0};
      r.send(1, 5, fresh);  // epoch-1 message
      EXPECT_EQ(r.epoch(), 1u);
    } else if (r.id() == 1) {
      try {
        (void)r.recv(2, 7);
        FAIL() << "rank 2 must die before replying";
      } catch (const RankFailedError&) {
        ASSERT_TRUE(r.await_recovery());
      }
      // The stale {1.0} is still at the head of the (0 -> 1, tag 5) queue;
      // the epoch fence must drop it.
      const auto m = r.recv(0, 5);
      ASSERT_EQ(m.size(), 1u);
      EXPECT_DOUBLE_EQ(m[0], 2.0);
    } else {
      if (r.revived()) {
        revived_runs.fetch_add(1);
        return;  // second life: nothing left to do
      }
      (void)r.recv(0, 6);
      r.fault_point(0);  // planned death
    }
  });
  EXPECT_EQ(revived_runs.load(), 1);
  EXPECT_EQ(comm.epoch(), 1u);
}

// A Kill with times > 1 re-fires after the revival replays the same step:
// the same rank dies twice and is revived twice within one run().
TEST(Recovery, PlannedKillRefiresAcrossEpochs) {
  Communicator comm(2);
  comm.set_recovery(/*max_revives=*/3);
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/1, /*step=*/3, /*times=*/2});
  comm.install_fault_plan(plan);
  std::atomic<int> deaths{0};
  comm.run([&](Rank& r) {
    if (r.id() == 0) {
      for (;;) {
        try {
          const auto m = r.recv(1, 9);
          ASSERT_EQ(m.size(), 1u);
          EXPECT_DOUBLE_EQ(m[0], 42.0);
          break;
        } catch (const RankFailedError&) {
          ASSERT_TRUE(r.await_recovery());
        }
      }
    } else {
      if (r.revived()) deaths.fetch_add(1);
      for (int k = 0; k < 6; ++k) r.fault_point(k);
      const std::vector<double> done = {42.0};
      r.send(0, 9, done);
    }
  });
  EXPECT_EQ(deaths.load(), 2);
  EXPECT_EQ(comm.epoch(), 2u);
}

// Telemetry-observing recovery tests run with obs enabled.
class ParallelRecovery : public ::testing::Test {
 protected:
  void SetUp() override { quake::obs::set_enabled(true); }
  void TearDown() override { quake::obs::set_enabled(false); }
};

// Tentpole acceptance: a seeded single-rank kill at 8 ranks is repaired in
// place — survivors keep their partition, ghost plans, and exchange buffers
// (their body runs exactly once), only the dead rank is respawned, and the
// recovered run is bit-identical to the fault-free one.
TEST_F(ParallelRecovery, InPlaceRecoveryBitIdenticalWithoutSurvivorReSetup) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  solver::SolverOptions so;
  so.t_end = 2.0;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  const Partition part = partition_sfc(mesh, 8);

  const ParallelResult ref = run_parallel(mesh, part, oo, so, sources, rxs);
  ASSERT_GT(ref.n_steps, 8);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "quake_inplace_recovery_test";
  std::filesystem::remove_all(dir);
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/5, /*step=*/2 * ref.n_steps / 3});
  FaultToleranceOptions ft;
  ft.checkpoint_dir = dir.string();
  ft.checkpoint_every = std::max(1, ref.n_steps / 4);
  ft.max_retries = 1;  // fallback stays armed but must not be needed
  ft.max_revives = 2;
  ft.fault_plan = &plan;
  const ParallelResult pr = run_parallel(mesh, part, oo, so, sources, rxs, ft);

  EXPECT_EQ(pr.n_steps, ref.n_steps);
  EXPECT_TRUE(same_bits(pr, ref));

  // Exactly one recovery round: the revived rank re-entered its body once,
  // every survivor ran its body exactly once (a full restart would bump
  // every rank's ft/attempts to 2).
  ASSERT_EQ(pr.obs_reports.size(), 8u);
  for (const auto& rep : pr.obs_reports) {
    const auto it = rep.metrics.counters.find("ft/attempts");
    ASSERT_NE(it, rep.metrics.counters.end());
    if (rep.rank == 5) {
      EXPECT_EQ(it->second, 2) << "revived rank re-enters its body once";
      EXPECT_EQ(rep.metrics.counters.at("par/ranks_revived"), 1);
    } else {
      EXPECT_EQ(it->second, 1)
          << "survivor rank " << rep.rank << " must not re-run setup";
      EXPECT_EQ(rep.metrics.counters.at("par/recoveries"), 1);
    }
  }
  ASSERT_TRUE(pr.obs_summary.counters.count("par/ranks_revived"));
  EXPECT_EQ(pr.obs_summary.counters.at("par/ranks_revived").sum, 1.0);
  ASSERT_TRUE(pr.obs_summary.counters.count("par/steps_rolled_back"));
  ASSERT_TRUE(pr.obs_summary.gauges.count("par/epoch"));
  EXPECT_EQ(pr.obs_summary.gauges.at("par/epoch").max, 1.0);
  for (const char* scope :
       {"recover", "recover/agree", "recover/restore", "recover/resume"}) {
    ASSERT_TRUE(pr.obs_summary.scopes.count(scope)) << scope;
    EXPECT_GT(pr.obs_summary.scopes.at(scope).calls_total, 0u) << scope;
  }
  std::filesystem::remove_all(dir);
}

// With no survivor to park, in-place recovery still recovers: the lone rank
// of a one-rank solve, killed mid-run with no restart budget, is revived
// and restores its newest checkpoint generation, bit-identical to the
// fault-free run.
TEST_F(ParallelRecovery, LoneRankRevivesFromItsNewestCut) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  solver::SolverOptions so;
  so.t_end = 2.0;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  const Partition part = partition_sfc(mesh, 1);

  const ParallelResult ref = run_parallel(mesh, part, oo, so, sources, rxs);
  ASSERT_GT(ref.n_steps, 8);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "quake_lone_rank_revival";
  std::filesystem::remove_all(dir);
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/0, /*step=*/2 * ref.n_steps / 3});
  FaultToleranceOptions ft;
  ft.checkpoint_dir = dir.string();
  ft.checkpoint_every = std::max(1, ref.n_steps / 4);
  ft.max_retries = 0;
  ft.max_revives = 2;
  ft.fault_plan = &plan;
  const ParallelResult pr = run_parallel(mesh, part, oo, so, sources, rxs, ft);

  EXPECT_EQ(pr.n_steps, ref.n_steps);
  EXPECT_TRUE(same_bits(pr, ref));
  EXPECT_EQ(pr.revives_used, 1);
  ASSERT_EQ(pr.obs_reports.size(), 1u);
  EXPECT_EQ(pr.obs_reports[0].metrics.counters.at("ft/attempts"), 2);
  EXPECT_EQ(pr.obs_reports[0].metrics.counters.at("par/ranks_revived"), 1);
  std::filesystem::remove_all(dir);
}

// Both ranks of a two-rank solve killed at one step: no survivor parks, so
// the monitor revives them together and each restores its newest cut,
// bit-identical to the fault-free run, with the tier-1 message log armed
// and without it.
TEST_F(ParallelRecovery, EveryRankKilledAtOneStepRevivesInPlace) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  solver::SolverOptions so;
  so.t_end = 2.0;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  const Partition part = partition_sfc(mesh, 2);

  const ParallelResult ref = run_parallel(mesh, part, oo, so, sources, rxs);
  ASSERT_GT(ref.n_steps, 8);

  for (const int log_steps : {-1, 0}) {
    SCOPED_TRACE("message_log_steps=" + std::to_string(log_steps));
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "quake_all_ranks_revival";
    std::filesystem::remove_all(dir);
    const int step = 2 * ref.n_steps / 3;
    FaultPlan plan;
    plan.kills = {{/*rank=*/0, step}, {/*rank=*/1, step}};
    FaultToleranceOptions ft;
    ft.checkpoint_dir = dir.string();
    ft.checkpoint_every = std::max(1, ref.n_steps / 4);
    ft.max_retries = 0;
    ft.max_revives = 2;
    ft.message_log_steps = log_steps;
    ft.fault_plan = &plan;
    const ParallelResult pr =
        run_parallel(mesh, part, oo, so, sources, rxs, ft);

    EXPECT_EQ(pr.n_steps, ref.n_steps);
    EXPECT_TRUE(same_bits(pr, ref));
    EXPECT_EQ(pr.revives_used, 1);
    ASSERT_EQ(pr.obs_reports.size(), 2u);
    for (const auto& rep : pr.obs_reports) {
      EXPECT_EQ(rep.metrics.counters.at("ft/attempts"), 2) << rep.rank;
      EXPECT_EQ(rep.metrics.counters.at("par/ranks_revived"), 1) << rep.rank;
    }
    std::filesystem::remove_all(dir);
  }
}

// Seeded fault-sweep soak: across rank counts, recovery survives a kill at
// a step boundary, a kill inside the overlapped exchange window, a kill
// during the recovery protocol itself, and the same rank killed twice —
// each trial bit-identical to the fault-free run at that rank count.
TEST_F(ParallelRecovery, SeededFaultSweepAcrossRankCounts) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  solver::SolverOptions so;
  so.t_end = 1.5;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  constexpr int kDuringRecovery = std::numeric_limits<int>::min() + 1;

  for (const int R : {2, 4, 8}) {
    const Partition part = partition_sfc(mesh, R);
    const ParallelResult ref = run_parallel(mesh, part, oo, so, sources, rxs);
    ASSERT_GT(ref.n_steps, 8);
    const int n = ref.n_steps;
    const int victim = R - 1;

    struct Trial {
      const char* name;
      std::vector<FaultPlan::Kill> kills;
    };
    const Trial trials[] = {
        {"kill_at_step", {{victim, 2 * n / 3}}},
        {"kill_mid_exchange", {{victim, -(2 * n / 3 + 1)}}},
        {"kill_during_recovery", {{victim, 2 * n / 3}, {0, kDuringRecovery}}},
        {"kill_twice", {{victim, 2 * n / 3, /*times=*/2}}},
    };
    for (const Trial& trial : trials) {
      SCOPED_TRACE(std::string(trial.name) + " R=" + std::to_string(R));
      const std::filesystem::path dir =
          std::filesystem::temp_directory_path() /
          ("quake_fault_sweep_" + std::to_string(R) + "_" + trial.name);
      std::filesystem::remove_all(dir);
      FaultPlan plan;
      plan.kills = trial.kills;
      FaultToleranceOptions ft;
      ft.checkpoint_dir = dir.string();
      ft.checkpoint_every = std::max(1, n / 4);
      ft.max_retries = 1;
      ft.max_revives = 4;
      ft.fault_plan = &plan;
      const ParallelResult pr =
          run_parallel(mesh, part, oo, so, sources, rxs, ft);

      EXPECT_EQ(pr.n_steps, ref.n_steps);
      EXPECT_TRUE(same_bits(pr, ref));
      ASSERT_TRUE(pr.obs_summary.counters.count("par/recoveries"));
      EXPECT_GE(pr.obs_summary.counters.at("par/recoveries").sum, 1.0);
      std::filesystem::remove_all(dir);
    }
  }
}

// With no usable checkpoint (the rank dies before the first snapshot), the
// in-place path must refuse — an in-place from-scratch "resume" would
// silently discard survivors' progress — and hand the failure to the
// full-restart supervisor, which still produces a bit-identical result.
TEST_F(ParallelRecovery, FallsBackToFullRestartWithoutUsableCheckpoint) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 1.0;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  const Partition part = partition_sfc(mesh, 3);

  const ParallelResult ref = run_parallel(mesh, part, oo, so, sources, rxs);
  ASSERT_GT(ref.n_steps, 4);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "quake_recovery_fallback_test";
  std::filesystem::remove_all(dir);
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/1, /*step=*/2});
  FaultToleranceOptions ft;
  ft.checkpoint_dir = dir.string();
  ft.checkpoint_every = ref.n_steps;  // cadence never fires: no snapshots
  ft.max_retries = 1;
  ft.max_revives = 2;
  ft.fault_plan = &plan;
  const ParallelResult pr = run_parallel(mesh, part, oo, so, sources, rxs, ft);

  EXPECT_TRUE(same_bits(pr, ref));
  // Every rank's body ran twice (the full restart), plus once more on the
  // revived rank for the in-place attempt that was refused.
  ASSERT_EQ(pr.obs_reports.size(), 3u);
  for (const auto& rep : pr.obs_reports) {
    const auto it = rep.metrics.counters.find("ft/attempts");
    ASSERT_NE(it, rep.metrics.counters.end());
    EXPECT_EQ(it->second, rep.rank == 1 ? 3 : 2) << "rank " << rep.rank;
  }
  std::filesystem::remove_all(dir);
}

double counter_sum(const ParallelResult& pr, const std::string& key) {
  const auto it = pr.obs_summary.counters.find(key);
  return it == pr.obs_summary.counters.end() ? 0.0 : it->second.sum;
}

// Three-tier recovery sweep (tentpole acceptance): at 4 and 8 ranks, every
// tier produces a result bit-identical to the undisturbed run —
//  * replay_donation: tier 1 with the buddy-donated snapshot; survivors
//    roll back ZERO steps and the victim replays on logged messages;
//  * replay_disk: tier 1 with the victim's donor killed at the same step —
//    the donor's respawned thread holds no cut, so the victim restores its
//    newest disk generation while the donor restores from its own buddy
//    (one donation restore); survivors roll back zero steps;
//  * ring_overflow_rollback: a one-step message log cannot cover the replay
//    span, so recovery falls back to tier-2 rollback (the donated snapshot
//    still spares the victim the disk read);
//  * kill_donor_during_recovery: the victim's donor dies during the first
//    recovery round, leaving two state-less ranks — one restores by
//    donation from ITS buddy, the other from disk, both then replay.
TEST_F(ParallelRecovery, ThreeTierKillSweepBitIdenticalAcrossRankCounts) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  solver::SolverOptions so;
  so.t_end = 1.5;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  constexpr int kDuringRecovery = std::numeric_limits<int>::min() + 1;

  for (const int R : {4, 8}) {
    const Partition part = partition_sfc(mesh, R);
    const ParallelResult ref = run_parallel(mesh, part, oo, so, sources, rxs);
    ASSERT_GT(ref.n_steps, 11);
    const int n = ref.n_steps;
    const int every = std::max(2, n / 4);
    const int victim = R - 1;
    const int donor = (victim + 1) % R;  // the buddy holding victim's state
    // Kill strictly between checkpoints so the replay span is non-empty
    // (a kill exactly at a checkpoint step would replay zero steps).
    int kill_at = 2 * n / 3;
    if (kill_at % every == 0) ++kill_at;
    ASSERT_LT(kill_at, n);
    ASSERT_GT(kill_at, every);

    struct Scenario {
      const char* name;
      int log_steps;  // FaultToleranceOptions::message_log_steps
      std::vector<FaultPlan::Kill> kills;
      bool zero_rollback;        // par/steps_rolled_back must sum to 0
      double donation_restores;  // exact expected sum
      bool fallback;             // tier-2: par/replay_fallbacks on all ranks
    };
    const Scenario scenarios[] = {
        {"replay_donation", -1, {{victim, kill_at}}, true, 1.0, false},
        {"replay_disk",
         -1,
         {{victim, kill_at}, {donor, kill_at}},
         true,
         1.0,
         false},
        {"ring_overflow_rollback",
         1,
         {{victim, kill_at}},
         false,
         1.0,
         true},
        {"kill_donor_during_recovery",
         -1,
         {{victim, kill_at}, {donor, kDuringRecovery}},
         true,
         1.0,
         false},
    };
    for (const Scenario& sc : scenarios) {
      SCOPED_TRACE(std::string(sc.name) + " R=" + std::to_string(R));
      const std::filesystem::path dir =
          std::filesystem::temp_directory_path() /
          ("quake_three_tier_" + std::to_string(R) + "_" + sc.name);
      std::filesystem::remove_all(dir);
      FaultPlan plan;
      plan.kills = sc.kills;
      FaultToleranceOptions ft;
      ft.checkpoint_dir = dir.string();
      ft.checkpoint_every = every;
      ft.max_retries = 1;
      ft.max_revives = 4;
      ft.fault_plan = &plan;
      ft.message_log_steps = sc.log_steps;
      const ParallelResult pr =
          run_parallel(mesh, part, oo, so, sources, rxs, ft);

      EXPECT_EQ(pr.n_steps, ref.n_steps);
      EXPECT_TRUE(same_bits(pr, ref));

      EXPECT_GE(counter_sum(pr, "par/recoveries"), 1.0);
      EXPECT_EQ(counter_sum(pr, "par/donation_restores"),
                sc.donation_restores);
      if (sc.zero_rollback) {
        EXPECT_EQ(counter_sum(pr, "par/steps_rolled_back"), 0.0);
        EXPECT_GE(counter_sum(pr, "par/steps_replayed"), 1.0);
        ASSERT_TRUE(pr.obs_summary.scopes.count("recover/replay"));
      }
      if (sc.fallback) {
        // Every rank counts the tier-2 downgrade once, and the rollback
        // really rewinds the survivors.
        EXPECT_EQ(counter_sum(pr, "par/replay_fallbacks"),
                  static_cast<double>(R));
        EXPECT_GE(counter_sum(pr, "par/steps_rolled_back"), 1.0);
      } else {
        EXPECT_EQ(counter_sum(pr, "par/replay_fallbacks"), 0.0);
      }
      if (std::string(sc.name) == "replay_donation") {
        EXPECT_EQ(counter_sum(pr, "par/donations_served"), 1.0);
      }
      std::filesystem::remove_all(dir);
    }
  }
}

// Satellite: a CRC-corrupt newest checkpoint generation must not poison the
// restore agreement — the next-older intact generation serves instead, the
// fallback is counted, and the resumed run stays bit-identical.
TEST_F(ParallelRecovery, CorruptNewestGenerationFallsBackToOlder) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 1.5;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  constexpr int R = 4;
  const Partition part = partition_sfc(mesh, R);

  const ParallelResult ref = run_parallel(mesh, part, oo, so, sources, rxs);
  ASSERT_GT(ref.n_steps, 10);
  const int n = ref.n_steps;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "quake_gen_fallback_test";
  std::filesystem::remove_all(dir);

  // Phase 1: die with no recovery budget after at least two checkpoint
  // generations are on disk; the snapshots survive the failed run.
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/1, /*step=*/n - 1});
  FaultToleranceOptions ft;
  ft.checkpoint_dir = dir.string();
  ft.checkpoint_every = std::max(1, n / 5);
  ft.max_retries = 0;
  ft.fault_plan = &plan;
  EXPECT_THROW(run_parallel(mesh, part, oo, so, sources, rxs, ft),
               RankFailedError);

  // Seeded corruption: flip one byte in the middle of every rank's newest
  // generation so its CRC verification fails.
  for (int r = 0; r < R; ++r) {
    const std::filesystem::path p =
        dir / ("rank" + std::to_string(r) + ".ckpt");
    ASSERT_TRUE(std::filesystem::exists(p)) << p;
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    const auto size = std::filesystem::file_size(p);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(&byte, 1);
  }

  // Phase 2: resume without faults. The agreement must skip the corrupt
  // newest generation on every rank, restore the older intact one, and
  // still finish bit-identically.
  FaultToleranceOptions ft2;
  ft2.checkpoint_dir = dir.string();
  ft2.checkpoint_every = std::max(1, n / 5);
  const ParallelResult pr = run_parallel(mesh, part, oo, so, sources, rxs, ft2);

  EXPECT_TRUE(same_bits(pr, ref));
  EXPECT_EQ(counter_sum(pr, "checkpoint/generation_fallbacks"),
            static_cast<double>(R));
  EXPECT_EQ(counter_sum(pr, "ckpt/restores"), static_cast<double>(R));
  std::filesystem::remove_all(dir);
}

// A leftover snapshot of another run must not restore into this one. A
// two-receiver run dies after checkpointing and leaves its cuts behind; a
// fault-free rerun in the same directory asks for one of those receivers.
// The leftover cuts do not fit the rerun's receiver set, so the agreement
// starts fresh and the result is bit-identical to a clean run.
TEST_F(ParallelRecovery, LeftoverSnapshotOfAnotherRunIsSkipped) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 1.0;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> two[] = {{15000.0, 9000.0, 0.0},
                                       {14000.0, 9000.0, 0.0}};
  const std::array<double, 3> one[] = {{14000.0, 9000.0, 0.0}};
  const Partition part = partition_sfc(mesh, 3);

  const ParallelResult ref = run_parallel(mesh, part, oo, so, sources, one);
  ASSERT_GT(ref.n_steps, 8);
  const int n = ref.n_steps;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "quake_leftover_ckpt_test";
  std::filesystem::remove_all(dir);
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/0, /*step=*/n - 1});
  FaultToleranceOptions ft;
  ft.checkpoint_dir = dir.string();
  ft.checkpoint_every = std::max(1, n / 4);
  ft.max_retries = 0;
  ft.fault_plan = &plan;
  EXPECT_THROW(run_parallel(mesh, part, oo, so, sources, two, ft),
               RankFailedError);
  ASSERT_TRUE(std::filesystem::exists(dir / "rank0.ckpt"));

  FaultToleranceOptions ft2;
  ft2.checkpoint_dir = dir.string();
  ft2.checkpoint_every = ft.checkpoint_every;
  const ParallelResult pr = run_parallel(mesh, part, oo, so, sources, one, ft2);

  EXPECT_TRUE(same_bits(pr, ref));
  EXPECT_EQ(counter_sum(pr, "ckpt/restores"), 0.0);
  std::filesystem::remove_all(dir);
}

// Victim sets for multi-victim recovery tests: pairwise non-adjacent in the
// ghost graph (so every victim-victim span is survivor-served) and
// non-consecutive in the buddy ring (so every victim's donor survives).
// Backtracking search — greedy first-fit misses sets on dense adjacency.
bool extend_disjoint_victims(const std::vector<std::vector<int>>& adj, int R,
                             int want, std::vector<int>& picked) {
  if (static_cast<int>(picked.size()) == want) return true;
  const int from = picked.empty() ? 0 : picked.back() + 1;
  for (int c = from; c < R; ++c) {
    bool ok = true;
    for (const int v : picked) {
      if ((v + 1) % R == c || (c + 1) % R == v) ok = false;
      if (std::find(adj[static_cast<std::size_t>(v)].begin(),
                    adj[static_cast<std::size_t>(v)].end(),
                    c) != adj[static_cast<std::size_t>(v)].end()) {
        ok = false;
      }
    }
    if (!ok) continue;
    picked.push_back(c);
    if (extend_disjoint_victims(adj, R, want, picked)) return true;
    picked.pop_back();
  }
  return false;
}

std::vector<int> pick_disjoint_victims(
    const std::vector<std::vector<int>>& adj, int R, int want) {
  std::vector<int> picked;
  extend_disjoint_victims(adj, R, want, picked);
  return picked;
}

// Tentpole acceptance: several ranks killed at the SAME step, with disjoint
// ghost edges and live buddies, all restore from their donated snapshots
// and replay concurrently — one tier-1 pass, zero survivor rollback, bit-
// identical result.
TEST_F(ParallelRecovery, SimultaneousDisjointVictimsReplayConcurrently) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  solver::SolverOptions so;
  so.t_end = 1.5;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};

  // Two victims fit disjointly at 8 ranks; this mesh's 8-rank partition is
  // too coupled for three (ranks 4-7 form a ghost clique), so the triple
  // runs at 12 ranks where {0, 4, 10}-style sets exist.
  const std::pair<int, int> cases[] = {{2, 8}, {3, 12}};
  for (const auto& [n_victims, R] : cases) {
    SCOPED_TRACE("n_victims=" + std::to_string(n_victims) +
                 " R=" + std::to_string(R));
    const Partition part = partition_sfc(mesh, R);
    const ParallelSetup setup(mesh, part, oo, so);
    const auto adj = setup.neighbor_ranks();

    const ParallelResult ref = run_parallel(mesh, part, oo, so, sources, rxs);
    const int n = ref.n_steps;
    const int every = std::max(2, n / 4);
    // The kills must be SIMULTANEOUS to land in one recovery epoch: once a
    // victim dies, any comm call observes it, so a second victim only
    // reaches its own fault point first if nothing sits between them. The
    // step right after a checkpoint barrier is exactly that point — every
    // rank leaves the barrier and hits fault_point(k) before any other
    // comm, so pin the kill to a checkpoint-multiple step.
    const int kill_at = (2 * n / 3) / every * every;
    ASSERT_GE(kill_at, every);
    ASSERT_LT(kill_at, n);

    const std::vector<int> victims = pick_disjoint_victims(adj, R, n_victims);
    ASSERT_EQ(static_cast<int>(victims.size()), n_victims)
        << "partition too coupled to pick a disjoint victim set";
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("quake_multi_victim_" + std::to_string(n_victims));
    std::filesystem::remove_all(dir);
    FaultPlan plan;
    for (const int v : victims) plan.kills.push_back({v, kill_at});
    FaultToleranceOptions ft;
    ft.checkpoint_dir = dir.string();
    ft.checkpoint_every = every;
    ft.max_retries = 1;
    ft.max_revives = 4;
    ft.fault_plan = &plan;
    const ParallelResult pr =
        run_parallel(mesh, part, oo, so, sources, rxs, ft);

    EXPECT_TRUE(same_bits(pr, ref));
    // One recovery epoch: every parked survivor counts once (victims enter
    // the epoch via revival, not the survivor catch path).
    EXPECT_EQ(counter_sum(pr, "par/recoveries"),
              static_cast<double>(R - n_victims));
    EXPECT_EQ(counter_sum(pr, "par/ranks_revived"),
              static_cast<double>(n_victims));
    EXPECT_EQ(counter_sum(pr, "par/steps_rolled_back"), 0.0);
    EXPECT_EQ(counter_sum(pr, "par/replay_fallbacks"), 0.0);
    EXPECT_EQ(counter_sum(pr, "par/donation_restores"),
              static_cast<double>(n_victims));
    EXPECT_EQ(counter_sum(pr, "par/donations_served"),
              static_cast<double>(n_victims));
    EXPECT_EQ(counter_sum(pr, "par/multi_victim_replays"), 1.0);
    // Aligned kill: every rank resumes at the donated cut, so the replay
    // span is empty — tier-1 with nothing to re-serve, and no rollback.
    EXPECT_EQ(counter_sum(pr, "par/steps_replayed"), 0.0);
    std::filesystem::remove_all(dir);
  }
}

// A donation silently lost in flight (dropped message at the second cut)
// leaves the buddy holding the PREVIOUS generation; the doubled, delta-
// compressed log ring still spans that older resume point, so recovery
// stays tier-1 — the victim just replays a longer span.
TEST_F(ParallelRecovery, StaleDonationGenerationStillRepairsTier1) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  solver::SolverOptions so;
  so.t_end = 1.5;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  constexpr int R = 4;
  const Partition part = partition_sfc(mesh, R);
  const ParallelResult ref = run_parallel(mesh, part, oo, so, sources, rxs);
  const int n = ref.n_steps;
  const int every = std::max(2, n / 4);
  int kill_at = 2 * n / 3;
  if (kill_at % every == 0) ++kill_at;
  ASSERT_GT(kill_at, 2 * every) << "need two checkpoint cuts before the kill";
  ASSERT_LT(kill_at, n);
  const int victim = R - 1;
  const int buddy = (victim + 1) % R;
  const int last_cut_index = kill_at / every;  // 1-based cut ordinal

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "quake_stale_donation";
  std::filesystem::remove_all(dir);
  FaultPlan plan;
  plan.kills.push_back({victim, kill_at});
  // Drop the victim's donation at the LAST cut before the kill: the buddy
  // keeps advertising the generation before it.
  plan.msg_faults.push_back({victim, buddy, /*tag=*/10,
                             /*occurrence=*/last_cut_index - 1,
                             FaultPlan::MsgAction::kDrop});
  FaultToleranceOptions ft;
  ft.checkpoint_dir = dir.string();
  ft.checkpoint_every = every;
  ft.max_retries = 1;
  ft.max_revives = 2;
  ft.fault_plan = &plan;
  const ParallelResult pr = run_parallel(mesh, part, oo, so, sources, rxs, ft);

  EXPECT_TRUE(same_bits(pr, ref));
  EXPECT_EQ(counter_sum(pr, "par/steps_rolled_back"), 0.0);
  EXPECT_EQ(counter_sum(pr, "par/replay_fallbacks"), 0.0);
  EXPECT_EQ(counter_sum(pr, "par/donation_restores"), 1.0);
  // The replay span crosses a full checkpoint interval — longer than any
  // single-interval ring could serve.
  EXPECT_GE(counter_sum(pr, "par/steps_replayed"),
            static_cast<double>(every + 1));
  std::filesystem::remove_all(dir);
}

// Overlapping victims at DIFFERENT resume steps (one holds a stale donated
// generation) share a ghost edge whose span no fresh thread's empty log
// can serve: the three-round agreement votes tier-1 down and the whole
// job degrades to donation-aware rollback — still bit-identical.
TEST_F(ParallelRecovery, OverlappingVictimsDegradeToTier2) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  solver::SolverOptions so;
  so.t_end = 1.5;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  constexpr int R = 8;
  const Partition part = partition_sfc(mesh, R);
  const ParallelSetup setup(mesh, part, oo, so);
  const auto adj = setup.neighbor_ranks();
  // An adjacent victim pair that is still non-consecutive in the buddy
  // ring, so both donors survive and the overlap is the only obstacle.
  int va = -1, vb = -1;
  for (int v = 0; v < R && va < 0; ++v) {
    for (const int w : adj[static_cast<std::size_t>(v)]) {
      if ((v + 1) % R != w && (w + 1) % R != v) {
        va = v;
        vb = w;
        break;
      }
    }
  }
  ASSERT_GE(va, 0) << "no non-consecutive adjacent pair in this partition";

  const ParallelResult ref = run_parallel(mesh, part, oo, so, sources, rxs);
  const int n = ref.n_steps;
  const int every = std::max(2, n / 4);
  int kill_at = 2 * n / 3;
  if (kill_at % every == 0) ++kill_at;
  ASSERT_GT(kill_at, 2 * every);
  ASSERT_LT(kill_at, n);
  const int last_cut_index = kill_at / every;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "quake_overlap_victims";
  std::filesystem::remove_all(dir);
  FaultPlan plan;
  plan.kills.push_back({va, kill_at});
  plan.kills.push_back({vb, kill_at});
  // Skew va's resume point one generation behind vb's.
  plan.msg_faults.push_back({va, (va + 1) % R, /*tag=*/10,
                             /*occurrence=*/last_cut_index - 1,
                             FaultPlan::MsgAction::kDrop});
  FaultToleranceOptions ft;
  ft.checkpoint_dir = dir.string();
  ft.checkpoint_every = every;
  ft.max_retries = 1;
  ft.max_revives = 2;
  ft.fault_plan = &plan;
  const ParallelResult pr = run_parallel(mesh, part, oo, so, sources, rxs, ft);

  EXPECT_TRUE(same_bits(pr, ref));
  EXPECT_EQ(counter_sum(pr, "par/replay_fallbacks"), static_cast<double>(R));
  EXPECT_GE(counter_sum(pr, "par/steps_rolled_back"), 1.0);
  EXPECT_EQ(counter_sum(pr, "par/multi_victim_replays"), 0.0);
  std::filesystem::remove_all(dir);
}

// Regression for the donation-restore wait: a donor whose tier-1 stream
// never arrives (dropped in flight) must NOT hang the victim — the polled
// deadline expires, the restore is voted down, and recovery completes on
// the tier-2 rollback path.
TEST_F(ParallelRecovery, DroppedDonorStreamTimesOutIntoTier2) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  solver::SolverOptions so;
  so.t_end = 1.5;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  constexpr int R = 4;
  const Partition part = partition_sfc(mesh, R);
  const ParallelResult ref = run_parallel(mesh, part, oo, so, sources, rxs);
  const int n = ref.n_steps;
  const int every = std::max(2, n / 4);
  int kill_at = 2 * n / 3;
  if (kill_at % every == 0) ++kill_at;
  ASSERT_LT(kill_at, n);
  const int victim = R - 1;
  const int buddy = (victim + 1) % R;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "quake_dropped_stream";
  std::filesystem::remove_all(dir);
  FaultPlan plan;
  plan.kills.push_back({victim, kill_at});
  // The ONLY kDonationTag traffic on the buddy->victim edge is the
  // recovery stream itself; occurrence 0 kills exactly that.
  plan.msg_faults.push_back({buddy, victim, /*tag=*/10, /*occurrence=*/0,
                             FaultPlan::MsgAction::kDrop});
  FaultToleranceOptions ft;
  ft.checkpoint_dir = dir.string();
  ft.checkpoint_every = every;
  ft.max_retries = 1;
  ft.max_revives = 2;
  ft.fault_plan = &plan;
  const ParallelResult pr = run_parallel(mesh, part, oo, so, sources, rxs, ft);

  EXPECT_TRUE(same_bits(pr, ref));
  // The stream was served (and lost); the victim's timed-out wait is
  // visible under the absolute recover/donate/wait scope.
  EXPECT_EQ(counter_sum(pr, "par/donations_served"), 1.0);
  EXPECT_EQ(counter_sum(pr, "par/donation_restores"), 0.0);
  EXPECT_EQ(counter_sum(pr, "par/replay_fallbacks"), static_cast<double>(R));
  EXPECT_GE(counter_sum(pr, "par/steps_rolled_back"), 1.0);
  const auto it = pr.obs_summary.scopes.find("recover/donate/wait");
  ASSERT_NE(it, pr.obs_summary.scopes.end());
  EXPECT_GE(it->second.seconds.max, 1.0);  // the 2 s deadline actually ran
  std::filesystem::remove_all(dir);
}

// Delta-compressed rings carry their claimed span at a fraction of the raw
// footprint while the wavefront has not yet lit every ghost node: the
// stored/raw gauges prove >= 2x headroom in the quiet regime the doubled
// capacity is funded by.
TEST_F(ParallelRecovery, CompressedLogRingsReportCompression) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.2;  // short run: most ghost nodes still exactly zero
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  const Partition part = partition_sfc(mesh, 8);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "quake_log_compression";
  std::filesystem::remove_all(dir);
  FaultToleranceOptions ft;
  ft.checkpoint_dir = dir.string();
  ft.checkpoint_every = 4;
  ft.max_revives = 2;  // arms in-place recovery: donation + log rings on
  const ParallelResult pr = run_parallel(mesh, part, oo, so, sources, rxs, ft);
  double stored = 0.0, raw = 0.0;
  for (const auto& rep : pr.obs_reports) {
    const auto s = rep.metrics.gauges.find("par/log_bytes");
    const auto r = rep.metrics.gauges.find("par/log_raw_bytes");
    ASSERT_NE(s, rep.metrics.gauges.end());
    ASSERT_NE(r, rep.metrics.gauges.end());
    stored += s->second;
    raw += r->second;
  }
  EXPECT_GT(raw, 0.0);
  EXPECT_LE(stored * 2.0, raw)
      << "compression ratio " << raw / std::max(stored, 1.0);
  std::filesystem::remove_all(dir);
}

TEST(ParallelStats, CommunicationVolumeReported) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.5;
  const Partition part = partition_sfc(mesh, 4);
  const ParallelResult pr = run_parallel(mesh, part, oo, so, {}, {});
  std::size_t total_sent = 0;
  for (const auto& s : pr.rank_stats) {
    EXPECT_GT(s.n_elems, 0u);
    EXPECT_GT(s.flops, 0u);
    total_sent += s.doubles_sent_per_step;
  }
  EXPECT_GT(total_sent, 0u);
  const double eff = modeled_efficiency(pr, MachineModel{});
  EXPECT_GT(eff, 0.3);
  EXPECT_LE(eff, 1.0 + 1e-9);
}

TEST(ParallelStats, BoundaryInteriorSplitReported) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.5;
  const Partition part = partition_sfc(mesh, 4);
  const ParallelResult pr = run_parallel(mesh, part, oo, so, {}, {});
  for (const auto& s : pr.rank_stats) {
    EXPECT_EQ(s.n_boundary_elems + s.n_interior_elems, s.n_elems);
    // Multi-rank partitions of a 3D mesh have both kinds: a surface of
    // boundary elements and a bulk of interior ones to hide the messages
    // behind.
    EXPECT_GT(s.n_boundary_elems, 0u);
    EXPECT_GT(s.n_interior_elems, 0u);
    EXPECT_GE(s.overlap_fraction, 0.0);
    EXPECT_LE(s.overlap_fraction, 1.0);
  }

  // A single rank has nothing to exchange, hence nothing to overlap.
  const Partition p1 = partition_sfc(mesh, 1);
  const ParallelResult r1 = run_parallel(mesh, p1, oo, so, {}, {});
  EXPECT_EQ(r1.rank_stats[0].n_boundary_elems, 0u);
  EXPECT_EQ(r1.rank_stats[0].n_interior_elems, r1.rank_stats[0].n_elems);
  EXPECT_DOUBLE_EQ(r1.rank_stats[0].overlap_fraction, 0.0);
}

// ---- per-rank telemetry: merged in place once the ranks join --------------

class ParallelObs : public ::testing::Test {
 protected:
  void TearDown() override { quake::obs::set_enabled(false); }
};

// Each rank's report is its own registry, and reporting adds no traffic:
// every byte and message counted as sent is counted as received.
TEST_F(ParallelObs, EachRankReportIsItsOwn) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.5;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  for (const int R : {1, 4}) {
    SCOPED_TRACE(R);
    const Partition part = partition_sfc(mesh, R);
    ParallelSetup setup(mesh, part, oo, so);
    obs::set_enabled(true);
    const ParallelResult pr = setup.run(so.t_end, sources, {});
    ASSERT_EQ(pr.obs_reports.size(), static_cast<std::size_t>(R));
    for (int r = 0; r < R; ++r) {
      const obs::RankReport& rep = pr.obs_reports[static_cast<std::size_t>(r)];
      const ParallelResult::RankStats& st =
          pr.rank_stats[static_cast<std::size_t>(r)];
      EXPECT_EQ(rep.rank, r);
      EXPECT_EQ(rep.metrics.gauges.at("par/n_elems"),
                static_cast<double>(st.n_elems));
      EXPECT_EQ(rep.metrics.counters.at("par/element_updates"),
                static_cast<std::int64_t>(st.element_updates));
    }
    EXPECT_EQ(obs::to_json(pr.obs_summary).dump(),
              obs::to_json(obs::merge_reports(pr.obs_reports)).dump());
    EXPECT_EQ(counter_sum(pr, "comm/bytes_sent"),
              counter_sum(pr, "comm/bytes_recv"));
    EXPECT_EQ(counter_sum(pr, "comm/msgs_sent"),
              counter_sum(pr, "comm/msgs_recv"));
    EXPECT_EQ(counter_sum(pr, "comm/msgs_sent") > 0, R > 1);

    // A batch ran once: its one report set rides on the first lane.
    const std::vector<BatchScenario> lanes(3, BatchScenario{{&src}, {}});
    const std::vector<ParallelResult> batch = setup.solve(so.t_end, lanes);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].obs_reports.size(), static_cast<std::size_t>(R));
    EXPECT_EQ(batch[0].obs_summary.n_ranks, R);
    for (std::size_t s = 1; s < batch.size(); ++s) {
      EXPECT_TRUE(batch[s].obs_reports.empty()) << "lane " << s;
      EXPECT_EQ(batch[s].obs_summary.n_ranks, 0) << "lane " << s;
    }

    obs::set_enabled(false);
    const ParallelResult off = setup.run(so.t_end, sources, {});
    EXPECT_TRUE(off.obs_reports.empty());
    EXPECT_EQ(off.obs_summary.n_ranks, 0);
  }
}

// The telemetry switch may flip while solves run. No rank's message
// protocol reads it, so no solve can stall on it: thousands of two-step
// 4-rank solves against a thread flipping obs::set_enabled all finish, and
// each carries a full report set or none.
TEST_F(ParallelObs, TelemetryToggleDuringSolvesNeverDeadlocks) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 1.0;
  constexpr int kRanks = 4;
  const Partition part = partition_sfc(mesh, kRanks);
  ParallelSetup setup(mesh, part, oo, so);
  const double t_end = 1.5 * setup.dt();  // two steps

  std::atomic<bool> stop{false};
  std::thread flipper([&stop] {
    bool on = false;
    while (!stop.load(std::memory_order_relaxed)) {
      on = !on;
      obs::set_enabled(on);
      std::this_thread::yield();
    }
  });
  constexpr int kSolves = 2000;
  int failed = 0, malformed = 0;
  std::string first_error;
  for (int i = 0; i < kSolves; ++i) {
    try {
      const ParallelResult pr = setup.run(t_end, {}, {});
      if (pr.n_steps != 2 ||
          !(pr.obs_reports.empty() ||
            pr.obs_reports.size() == static_cast<std::size_t>(kRanks))) {
        ++malformed;
      }
    } catch (const std::exception& e) {
      if (failed++ == 0) first_error = e.what();
    }
  }
  stop.store(true);
  flipper.join();
  EXPECT_EQ(failed, 0) << "of " << kSolves << " solves; first: "
                       << first_error;
  EXPECT_EQ(malformed, 0);
}

// ---- scenario-batched solves (docs/BATCHING.md) ---------------------------

// The batching guarantee: S scenarios advanced in lockstep through one
// element sweep and one exchange round per step produce results BITWISE
// identical to running each scenario alone on the same setup. Parameterized
// over the batch width; Stacey + Rayleigh are on so the batched dku
// exchange path is exercised too.
class ParallelBatch : public ::testing::TestWithParam<int> {};

TEST_P(ParallelBatch, BatchMatchesSequentialBitwise) {
  const int S = GetParam();
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  oo.rayleigh = true;
  oo.damping_f_min = 0.01;
  oo.damping_f_max = 0.05;
  solver::SolverOptions so;
  so.t_end = 1.0;
  so.cfl_fraction = 0.4;
  const Partition part = partition_sfc(mesh, 2);
  ParallelSetup setup(mesh, part, oo, so);

  std::vector<solver::PointSource> srcs;
  srcs.reserve(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    srcs.emplace_back(mesh,
                      std::array<double, 3>{6000.0 + 2000.0 * s,
                                            14000.0 - 1500.0 * s, 3000.0},
                      std::array<double, 3>{1.0, 0.5 * s, 0.2}, 1e12,
                      0.03 + 0.002 * s, 40.0 - 2.0 * s);
  }
  const std::vector<std::array<double, 3>> rxs = {{14000.0, 9000.0, 0.0},
                                                  {6000.0, 11000.0, 0.0}};

  std::vector<ParallelResult> sequential;
  std::vector<BatchScenario> scenarios;
  for (int s = 0; s < S; ++s) {
    const solver::SourceModel* one[] = {&srcs[static_cast<std::size_t>(s)]};
    sequential.push_back(setup.run(so.t_end, one, rxs));
    scenarios.push_back({{&srcs[static_cast<std::size_t>(s)]}, rxs});
  }

  const std::vector<ParallelResult> batched =
      setup.solve(so.t_end, scenarios);
  ASSERT_EQ(batched.size(), static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    const ParallelResult& a = sequential[static_cast<std::size_t>(s)];
    const ParallelResult& b = batched[static_cast<std::size_t>(s)];
    EXPECT_FALSE(b.cancelled);
    EXPECT_EQ(b.n_steps, a.n_steps);
    EXPECT_TRUE(same_bits(b, a)) << "scenario " << s;
  }

  // The batch reports the widened communication volume: every per-neighbor
  // message carries all S right-hand-sides.
  const ParallelResult solo = setup.run(
      so.t_end,
      std::span<const solver::SourceModel* const>{},
      std::span<const std::array<double, 3>>{});
  for (std::size_t r = 0; r < batched[0].rank_stats.size(); ++r) {
    EXPECT_EQ(batched[0].rank_stats[r].doubles_sent_per_step,
              solo.rank_stats[r].doubles_sent_per_step *
                  static_cast<std::size_t>(S));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ParallelBatch, ::testing::Values(1, 2, 3, 4));

TEST(ParallelBatchControl, WidthValidated) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.5;
  const Partition part = partition_sfc(mesh, 2);
  ParallelSetup setup(mesh, part, oo, so);
  EXPECT_THROW(setup.solve(so.t_end, {}), std::invalid_argument);
  const std::vector<BatchScenario> too_many(
      static_cast<std::size_t>(fem::kMaxBatchLanes) + 1);
  EXPECT_THROW(setup.solve(so.t_end, too_many), std::invalid_argument);
}

// RunControl applies batch-wide: a cancelled batch stops every scenario at
// the SAME step, and the setup stays reusable — the next solo run on it is
// bit-identical to an undisturbed one.
TEST(ParallelBatchControl, CancelStopsAllScenariosTogether) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 2.0;
  so.cfl_fraction = 0.4;
  const Partition part = partition_sfc(mesh, 2);
  ParallelSetup setup(mesh, part, oo, so);

  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const std::vector<std::array<double, 3>> rxs = {{14000.0, 9000.0, 0.0}};
  const std::vector<BatchScenario> scenarios(2,
                                             BatchScenario{{&src}, rxs});

  std::atomic<bool> cancel{true};  // pre-set: stops at the first agreement
  RunControl ctl;
  ctl.cancel = &cancel;
  const std::vector<ParallelResult> stopped =
      setup.solve(so.t_end, scenarios, {}, {}, ctl);
  ASSERT_EQ(stopped.size(), 2u);
  EXPECT_TRUE(stopped[0].cancelled);
  EXPECT_TRUE(stopped[1].cancelled);
  EXPECT_EQ(stopped[0].steps_completed, stopped[1].steps_completed);
  EXPECT_LT(stopped[0].steps_completed, stopped[0].n_steps);

  const solver::SourceModel* one[] = {&src};
  const ParallelResult after = setup.run(so.t_end, one, rxs);
  const ParallelResult cold = run_parallel(mesh, part, oo, so, one, rxs);
  EXPECT_TRUE(same_bits(after, cold));
}

// ---- per-run hooks: initial conditions, component mask, snapshots -------

// A Gaussian displacement bump (x) and velocity bump (y) centered in the
// small basin: initial conditions that cross every partition boundary and
// the hanging-node constraints.
std::pair<std::vector<double>, std::vector<double>> basin_bumps(
    const mesh::HexMesh& mesh) {
  std::vector<double> u0(3 * mesh.n_nodes(), 0.0), v0(u0.size(), 0.0);
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    const auto& c = mesh.node_coords[n];
    const double r2 = std::pow(c[0] - 10000.0, 2) +
                      std::pow(c[1] - 10000.0, 2) + std::pow(c[2] - 4000.0, 2);
    const double g = std::exp(-r2 / (3000.0 * 3000.0));
    u0[3 * n] = g;
    v0[3 * n + 1] = 0.5 * g;
  }
  return {u0, v0};
}

// The three bitwise cases of the step loop at one rank against the
// straight-line stepper that involve the hooks: an SH column (initial
// conditions plus the component mask) and the small basin (initial
// conditions with a source, Rayleigh damping and Stacey faces across
// hanging nodes), plus the mask composing with a batch.
TEST(ParallelHooks, IcAndMaskMatchReferenceStepperBitwise) {
  {
    SCOPED_TRACE("SH column");
    mesh::MeshOptions mo;
    mo.domain_size = 1000.0;
    mo.f_max = 1e-9;
    mo.min_level = 4;
    mo.max_level = 4;
    const auto mesh = mesh::generate_mesh(
        vel::HomogeneousModel(
            vel::Material::from_velocities(1732.0, 1000.0, 2000.0)),
        mo);
    solver::OperatorOptions oo;
    oo.abc = fem::AbcType::kLysmer;
    oo.absorbing_sides = {false, false, false, false, false, true};
    solver::SolverOptions so;
    so.t_end = 0.5;
    so.fixed_components = {true, false, true};
    std::vector<double> u0(3 * mesh.n_nodes(), 0.0), v0(u0.size(), 0.0);
    for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
      const double z = mesh.node_coords[n][2];
      const double p = std::exp(-std::pow((z - 550.0) / 120.0, 2));
      u0[3 * n + 1] = p;
      v0[3 * n + 1] = 1000.0 * (-2.0 * (z - 550.0) / (120.0 * 120.0)) * p;
    }
    RunControl ctl;
    ctl.initial_u = u0;
    ctl.initial_v = v0;
    const std::array<double, 3> rxs[] = {{500.0, 500.0, 0.0},
                                         {250.0, 750.0, 500.0}};
    const ParallelResult pr =
        testsupport::run_one_rank(mesh, oo, so, {}, rxs, ctl);
    const testsupport::Reference ref = testsupport::reference_global(
        solver::ElasticOperator(mesh, oo), so, {}, rxs, u0, v0);
    EXPECT_TRUE(same_bits(ref, pr));
    EXPECT_GT(quake::util::norm_max(pr.u_final), 0.1);
  }
  const auto mesh = small_basin_mesh();
  ASSERT_GT(mesh.n_hanging(), 0u);
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  oo.rayleigh = true;
  oo.damping_f_min = 0.01;
  oo.damping_f_max = 0.05;
  solver::SolverOptions so;
  so.t_end = 1.0;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 0.0);
  const solver::SourceModel* sources[] = {&src};
  const std::vector<std::array<double, 3>> rxs = {{14000.0, 9000.0, 0.0}};
  {
    SCOPED_TRACE("basin");
    const auto [u0, v0] = basin_bumps(mesh);
    RunControl ctl;
    ctl.initial_u = u0;
    ctl.initial_v = v0;
    const ParallelResult pr =
        testsupport::run_one_rank(mesh, oo, so, sources, rxs, ctl);
    const testsupport::Reference ref = testsupport::reference_global(
        solver::ElasticOperator(mesh, oo), so, sources, rxs, u0, v0);
    EXPECT_TRUE(same_bits(ref, pr));
  }
  {
    SCOPED_TRACE("masked batch");
    so.fixed_components = {false, true, false};
    const Partition part = partition_sfc(mesh, 2);
    ParallelSetup setup(mesh, part, oo, so);
    const solver::PointSource other(mesh, {6000.0, 12000.0, 3000.0},
                                    {0.2, 1.0, 0.5}, 1e12, 0.03, 0.0);
    const std::vector<BatchScenario> batch = {{{&src}, rxs}, {{&other}, rxs}};
    const std::vector<ParallelResult> lanes = setup.solve(so.t_end, batch);
    for (std::size_t s = 0; s < batch.size(); ++s) {
      EXPECT_TRUE(same_bits(
          lanes[s], setup.run(so.t_end, batch[s].sources, rxs)))
          << "lane " << s;
    }
    for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
      ASSERT_EQ(lanes[1].u_final[3 * n + 1], 0.0);
    }
  }
}

// Initial conditions at several ranks: each rank opens its own nodes'
// brackets and expands its own constraints, so a 4-rank run repeats
// bitwise and matches the 1-rank run to the equivalence tolerance.
TEST(ParallelHooks, InitialConditionsRepeatAcrossRanks) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  oo.rayleigh = true;
  oo.damping_f_min = 0.01;
  oo.damping_f_max = 0.05;
  solver::SolverOptions so;
  so.t_end = 1.5;
  const auto [u0, v0] = basin_bumps(mesh);
  RunControl ctl;
  ctl.initial_u = u0;
  ctl.initial_v = v0;
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};

  const Partition p1 = partition_sfc(mesh, 1);
  const ParallelResult one = ParallelSetup(mesh, p1, oo, so)
                                 .run(so.t_end, {}, rxs, {}, ctl);
  const Partition p4 = partition_sfc(mesh, 4);
  ParallelSetup setup(mesh, p4, oo, so);
  const ParallelResult a = setup.run(so.t_end, {}, rxs, {}, ctl);
  const ParallelResult b = setup.run(so.t_end, {}, rxs, {}, ctl);
  EXPECT_TRUE(same_bits(a, b));
  expect_close(a, one.u_final, one.receiver_histories[0]);
  EXPECT_GT(quake::util::norm_max(a.u_final), 1e-3);
}

// Initial conditions compose with fault tolerance: a killed rank repaired
// by a full restart (which re-enters every rank body and so starts again
// from the initial conditions, or from a checkpoint when there is one) or
// revived in place reproduces the undisturbed run bitwise.
TEST(ParallelHooks, InitialConditionsSurviveKillAndRecovery) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  solver::SolverOptions so;
  so.t_end = 2.0;
  const auto [u0, v0] = basin_bumps(mesh);
  RunControl ctl;
  ctl.initial_u = u0;
  ctl.initial_v = v0;
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  const Partition part = partition_sfc(mesh, 4);
  ParallelSetup setup(mesh, part, oo, so);
  const ParallelResult ref = setup.run(so.t_end, {}, rxs, {}, ctl);
  ASSERT_GT(ref.n_steps, 8);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "quake_ic_recovery_test";
  for (const auto& [name, ckpt, revives] :
       {std::tuple{"restart from the initial conditions", false, 0},
        std::tuple{"restart from a checkpoint", true, 0},
        std::tuple{"in-place revive", true, 2}}) {
    SCOPED_TRACE(name);
    std::filesystem::remove_all(dir);
    FaultPlan plan;
    plan.kills.push_back({/*rank=*/2, /*step=*/2 * ref.n_steps / 3});
    FaultToleranceOptions ft;
    if (ckpt) ft.checkpoint_dir = dir.string();
    ft.checkpoint_every = std::max(1, ref.n_steps / 4);
    ft.max_retries = 2;
    ft.max_revives = revives;
    ft.fault_plan = &plan;
    const ParallelResult pr = setup.run(so.t_end, {}, rxs, ft, ctl);
    EXPECT_TRUE(same_bits(pr, ref));
    EXPECT_EQ(pr.revives_used, revives == 0 ? 0 : 1);
  }
  std::filesystem::remove_all(dir);
}

// The snapshot hook fires after steps every, 2 * every, ... with
// t = step * dt and the gathered global field: at one rank and at four,
// where the last snapshot equals the gathered final field bitwise and the
// fields match the one-rank run to the equivalence tolerance.
TEST(ParallelHooks, SnapshotFiresEveryKSteps) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  solver::SolverOptions so;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  std::vector<std::vector<double>> last_u, last_v;
  for (const int R : {1, 4}) {
    SCOPED_TRACE("ranks=" + std::to_string(R));
    const Partition part = partition_sfc(mesh, R);
    ParallelSetup setup(mesh, part, oo, so);
    const double t_end = 23.5 * setup.dt();  // 24 steps
    std::vector<int> steps;
    std::vector<double> u_snap, v_snap;
    RunControl ctl;
    ctl.snapshot_every = 6;
    ctl.snapshot = [&](int step, double t, std::span<const double> u,
                       std::span<const double> v) {
      steps.push_back(step);
      EXPECT_EQ(t, step * setup.dt());
      u_snap.assign(u.begin(), u.end());
      v_snap.assign(v.begin(), v.end());
    };
    const ParallelResult pr = setup.run(t_end, sources, {}, {}, ctl);
    ASSERT_EQ(pr.n_steps, 24);
    EXPECT_EQ(steps, (std::vector<int>{6, 12, 18, 24}));
    ASSERT_EQ(u_snap.size(), pr.u_final.size());
    EXPECT_EQ(std::memcmp(u_snap.data(), pr.u_final.data(),
                          u_snap.size() * sizeof(double)),
              0);
    EXPECT_GT(quake::util::norm_max(v_snap), 0.0);
    last_u.push_back(u_snap);
    last_v.push_back(v_snap);
  }
  const double unorm = quake::util::norm_l2(last_u[0]);
  EXPECT_LT(quake::util::diff_l2(last_u[1], last_u[0]), 1e-9 * (1.0 + unorm));
  const double vnorm = quake::util::norm_l2(last_v[0]);
  EXPECT_LT(quake::util::diff_l2(last_v[1], last_v[0]), 1e-9 * (1.0 + vnorm));
}

// The snapshot hook composes only where a step runs exactly once and one
// field exists: it is rejected, typed, with fault-tolerance options, a
// batch of two, a multi-class LTS schedule or a non-positive cadence —
// and accepted by a single-class LTS run and a batch of one.
TEST(ParallelHooks, SnapshotRejectedWithFtBatchOrMultiRateLts) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.5;
  const Partition part = partition_sfc(mesh, 2);
  ParallelSetup setup(mesh, part, oo, so);
  int calls = 0;
  RunControl ctl;
  ctl.snapshot = [&](int, double, std::span<const double>,
                     std::span<const double>) { ++calls; };
  ctl.snapshot_every = 1;

  FaultPlan plan;
  FaultToleranceOptions with_ckpt, with_retry, with_plan;
  with_ckpt.checkpoint_dir =
      (std::filesystem::temp_directory_path() / "quake_snapshot_ft").string();
  with_retry.max_retries = 1;
  with_plan.fault_plan = &plan;
  for (const auto* ft : {&with_ckpt, &with_retry, &with_plan}) {
    EXPECT_THROW(setup.run(so.t_end, {}, {}, *ft, ctl), std::invalid_argument);
  }
  const std::vector<BatchScenario> two(2), one(1);
  EXPECT_THROW(setup.solve(so.t_end, two, {}, {}, ctl), std::invalid_argument);
  lts::LtsOptions lts;
  lts.enabled = true;
  lts.max_rate = 32;
  EXPECT_THROW(setup.run_lts(so.t_end, {}, {}, lts, ctl),
               std::invalid_argument);
  RunControl zero = ctl;
  zero.snapshot_every = 0;
  EXPECT_THROW(setup.run(so.t_end, {}, {}, {}, zero), std::invalid_argument);
  EXPECT_EQ(calls, 0);

  const int n_steps = setup.n_steps(so.t_end);
  setup.solve(so.t_end, one, {}, {}, ctl);
  lts.max_rate = 1;  // one rate class
  setup.run_lts(so.t_end, {}, {}, lts, ctl);
  EXPECT_EQ(calls, 2 * n_steps);
}


// ---- the composition matrix: every mode through the one solve ------------

// Obs is on so the tier-1 cells can read their rollback counter.
class SolveMatrix : public ::testing::Test {
 protected:
  void SetUp() override { quake::obs::set_enabled(true); }
  void TearDown() override { quake::obs::set_enabled(false); }
};

// What composes, cell by cell: {solo, batch of 4, LTS, batch x LTS} x
// {no fault tolerance, checkpoint + full restart (tier 3), in-place
// recovery with the message log (tier 1), in place without it (tier 2)} x
// Rayleigh {off, on} x {1, 2, 4} ranks through ParallelSetup::solve. Each
// fault-tolerant cell kills rank R - 1 once, at step 2n/3, with
// checkpoints every n/4. A cell either equals, lane for lane and bit for
// bit, each lane's fault-free solo solve on the same schedule and setup
// (its anchor), or throws std::invalid_argument before any rank starts,
// after which the setup still reproduces the anchor. The rejected cells
// are exactly solve's mode limits: LTS with Rayleigh damping, and LTS with
// an armed message log (at one rank too, which has nothing to log).
TEST_F(SolveMatrix, EveryModeFtDampingAndRankCountCell) {
  const auto mesh = small_basin_mesh();
  solver::SolverOptions so;
  so.t_end = 1.0;
  so.cfl_fraction = 0.4;
  std::vector<solver::PointSource> srcs;
  srcs.reserve(4);
  for (int s = 0; s < 4; ++s) {
    srcs.emplace_back(mesh,
                      std::array<double, 3>{6000.0 + 2000.0 * s,
                                            14000.0 - 1500.0 * s, 3000.0},
                      std::array<double, 3>{1.0, 0.5 * s, 0.2}, 1e12,
                      0.03 + 0.002 * s, 40.0 - 2.0 * s);
  }
  const std::vector<std::array<double, 3>> rxs = {{14000.0, 9000.0, 0.0},
                                                  {6000.0, 11000.0, 0.0}};
  std::vector<BatchScenario> lanes;
  for (const auto& src : srcs) lanes.push_back({{&src}, rxs});

  lts::LtsOptions schedules[2];  // [0] global dt, [1] LTS
  schedules[1].enabled = true;
  schedules[1].max_rate = 32;
  struct Mode {
    const char* name;
    std::size_t lanes;
    bool lts;
  };
  const Mode modes[] = {{"solo", 1, false},
                        {"batch4", 4, false},
                        {"lts", 1, true},
                        {"batch4_lts", 4, true}};
  enum class Ft { kOff, kRestart, kReplay, kRollback };
  const std::pair<const char*, Ft> tiers[] = {{"off", Ft::kOff},
                                              {"restart", Ft::kRestart},
                                              {"replay", Ft::kReplay},
                                              {"rollback", Ft::kRollback}};

  int bitwise = 0, rejected = 0;
  for (const bool rayleigh : {false, true}) {
    solver::OperatorOptions oo;
    oo.abc = fem::AbcType::kStacey;
    oo.rayleigh = rayleigh;
    oo.damping_f_min = 0.01;
    oo.damping_f_max = 0.05;
    for (const int R : {1, 2, 4}) {
      const Partition part = partition_sfc(mesh, R);
      ParallelSetup setup(mesh, part, oo, so);
      const int n = setup.n_steps(so.t_end);
      ASSERT_GT(2 * n / 3, std::max(1, n / 4));

      // anchor[l][s]: lane s alone on schedule l, fault-free; none for the
      // LTS schedule with damping, which solve rejects.
      std::vector<ParallelResult> anchor[2];
      const auto solo = [&](int l, std::size_t s) {
        return std::move(
            setup.solve(so.t_end, {&lanes[s], 1}, schedules[l]).front());
      };
      for (const int l : {0, 1}) {
        if (l == 1 && rayleigh) continue;
        for (std::size_t s = 0; s < lanes.size(); ++s) {
          anchor[l].push_back(solo(l, s));
        }
      }
      if (!rayleigh) {  // the LTS cells run several rate classes
        ASSERT_GT(anchor[1][0].obs_summary.gauges.at("par/lts_n_classes").max,
                  1.0);
      }

      for (const Mode& mode : modes) {
        for (const auto& [tier_name, tier] : tiers) {
          const std::string cell = std::string(mode.name) + "_" + tier_name +
                                   (rayleigh ? "_rayleigh" : "") + "_R" +
                                   std::to_string(R);
          SCOPED_TRACE(cell);
          const std::filesystem::path dir =
              std::filesystem::temp_directory_path() /
              ("quake_solve_matrix_" + cell);
          std::filesystem::remove_all(dir);
          FaultPlan plan;
          FaultToleranceOptions ft;
          if (tier != Ft::kOff) {
            plan.kills.push_back({/*rank=*/R - 1, /*step=*/2 * n / 3});
            ft.checkpoint_dir = dir.string();
            ft.checkpoint_every = std::max(1, n / 4);
            ft.fault_plan = &plan;
            if (tier == Ft::kRestart) {
              ft.max_retries = 1;
            } else {
              ft.max_revives = 2;
            }
            if (tier == Ft::kRollback) ft.message_log_steps = 0;
          }
          const int l = mode.lts ? 1 : 0;
          const bool limit = mode.lts && (rayleigh || tier == Ft::kReplay);

          std::vector<ParallelResult> got;
          bool threw = false;
          try {
            got = setup.solve(so.t_end, {lanes.data(), mode.lanes},
                              schedules[l], ft);
          } catch (const std::invalid_argument&) {
            threw = true;
          }
          EXPECT_EQ(threw, limit);
          if (threw) {
            ++rejected;
            // No rank started: a solve creates its checkpoint directory
            // before it launches them.
            EXPECT_FALSE(std::filesystem::exists(dir));
            const int al = anchor[l].empty() ? 0 : l;
            EXPECT_TRUE(same_bits(solo(al, 0), anchor[al][0]));
          } else {
            ASSERT_EQ(got.size(), mode.lanes);
            bool all = true;
            for (std::size_t s = 0; s < mode.lanes; ++s) {
              const bool same = same_bits(got[s], anchor[l][s]);
              EXPECT_TRUE(same) << "lane " << s;
              all = all && same;
            }
            bitwise += all ? 1 : 0;
            // The planted kill fired and was recovered from: by one
            // revival on the in-place tiers (at one rank too, where the
            // lone rank restores its newest cut), by a full restart on
            // tier 3.
            const bool in_place = tier != Ft::kOff && tier != Ft::kRestart;
            EXPECT_EQ(got[0].revives_used, in_place ? 1 : 0);
            if (tier != Ft::kOff) {
              EXPECT_EQ(counter_sum(got[0], "ft/attempts"),
                        in_place ? R + 1.0 : 2.0 * R);
            }
            if (tier == Ft::kReplay && R > 1) {
              EXPECT_EQ(counter_sum(got[0], "par/steps_rolled_back"), 0.0);
            }
          }
          std::filesystem::remove_all(dir);
        }
      }
    }
  }
  EXPECT_EQ(bitwise, 66);
  EXPECT_EQ(rejected, 30);
}

}  // namespace
