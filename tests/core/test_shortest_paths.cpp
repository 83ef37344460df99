#include "net/shortest_paths.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"

namespace realtor::net {
namespace {

TEST(ShortestPaths, MeshHopDistances) {
  const Topology mesh = make_mesh(5, 5);
  const ShortestPaths sp(mesh);
  EXPECT_EQ(sp.hops(0, 0), 0u);
  EXPECT_EQ(sp.hops(0, 1), 1u);
  EXPECT_EQ(sp.hops(0, 24), 8u);  // opposite corners: 4 + 4
  EXPECT_EQ(sp.hops(0, 12), 4u);  // corner to center
  EXPECT_EQ(sp.diameter(), 8u);
  EXPECT_TRUE(sp.connected());
}

TEST(ShortestPaths, MeshAveragePathLengthMatchesManhattanExpectation) {
  // On a 5x5 grid the mean Manhattan distance between distinct nodes is
  // 2*E|dx| where E over the joint; computed exactly: 10/3.
  const Topology mesh = make_mesh(5, 5);
  const ShortestPaths sp(mesh);
  EXPECT_NEAR(sp.average_path_length(), 10.0 / 3.0, 1e-9);
}

TEST(ShortestPaths, SymmetricDistances) {
  const Topology t = make_random_connected(15, 25, 4);
  const ShortestPaths sp(t);
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      EXPECT_EQ(sp.hops(a, b), sp.hops(b, a));
    }
  }
}

TEST(ShortestPaths, TriangleInequality) {
  const Topology t = make_random_connected(12, 20, 8);
  const ShortestPaths sp(t);
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      for (NodeId c = 0; c < t.num_nodes(); ++c) {
        ASSERT_LE(sp.hops(a, c), sp.hops(a, b) + sp.hops(b, c));
      }
    }
  }
}

TEST(ShortestPaths, DeadNodeUnreachableAndReroutes) {
  Topology mesh = make_mesh(3, 3);
  // Kill the center: corner-to-corner paths must route around it.
  mesh.set_alive(4, false);
  ShortestPaths sp(mesh);
  EXPECT_EQ(sp.hops(0, 4), kUnreachable);
  EXPECT_EQ(sp.hops(4, 0), kUnreachable);
  EXPECT_EQ(sp.hops(0, 8), 4u);  // still 4 around the edge
  EXPECT_EQ(sp.hops(3, 5), 4u);  // direct path through center gone: 2 -> 4
  EXPECT_TRUE(sp.connected());   // remaining alive nodes still connected
}

TEST(ShortestPaths, PartitionDetected) {
  Topology ring = make_ring(6);
  ring.set_alive(0, false);
  ring.set_alive(3, false);  // cuts the ring into {1,2} and {4,5}
  ShortestPaths sp(ring);
  EXPECT_FALSE(sp.connected());
  EXPECT_EQ(sp.hops(1, 4), kUnreachable);
  EXPECT_EQ(sp.hops(1, 2), 1u);
}

TEST(ShortestPaths, QueriesFollowLivenessFlips) {
  // One instance across a kill and a restore: every query resyncs on its
  // own, cached rows included. row() goes first after the kill and hops()
  // first after the restore, each while row 3 from before the flip is
  // still cached, so a missing resync in either one fails here.
  Topology mesh = make_mesh(3, 3);
  const ShortestPaths sp(mesh);
  EXPECT_EQ(sp.row(3)[5], 2u);
  EXPECT_EQ(sp.hops(3, 5), 2u);
  mesh.set_alive(4, false);
  EXPECT_EQ(sp.row(3)[5], 4u);
  EXPECT_EQ(sp.hops(3, 5), 4u);
  EXPECT_EQ(sp.hops(0, 4), kUnreachable);
  mesh.set_alive(4, true);
  EXPECT_EQ(sp.hops(3, 5), 2u);
  EXPECT_EQ(sp.row(3)[5], 2u);
  EXPECT_EQ(sp.hops(0, 4), 2u);
}

TEST(ShortestPaths, RowMatchesPerPairHops) {
  Topology mesh = make_mesh(4, 4);
  mesh.set_alive(5, false);
  const ShortestPaths sp(mesh);
  const std::uint32_t* row = sp.row(0);
  ASSERT_NE(row, nullptr);
  for (NodeId dest = 0; dest < mesh.num_nodes(); ++dest) {
    EXPECT_EQ(row[dest], sp.hops(0, dest)) << "dest " << dest;
  }
  EXPECT_EQ(row[0], 0u);
  EXPECT_EQ(row[5], kUnreachable);
}

TEST(ShortestPaths, RowCacheEvictionKeepsAnswersCorrect) {
  // More sources than the 64-row cache: every row must still be right
  // after the cache wraps (eviction clears, rows rebuild on demand).
  const Topology mesh = make_mesh(10, 10);
  const ShortestPaths sp(mesh);
  for (NodeId src = 0; src < 100; ++src) {
    EXPECT_EQ(sp.hops(src, src), 0u);
    EXPECT_EQ(sp.hops(src, 99), (9 - src % 10) + (9 - src / 10));
  }
  // Re-query the first source after the cache cycled.
  EXPECT_EQ(sp.hops(0, 99), 18u);
  EXPECT_EQ(sp.row(0)[99], 18u);
}

TEST(ShortestPaths, SampledStatsDeterministicAndClose) {
  const Topology torus = make_torus(60, 60);  // 3600 nodes
  ShortestPaths exact(torus);
  exact.set_sampled_stats(false);
  const double exact_apl = exact.average_path_length();
  EXPECT_FALSE(exact.stats_sampled());

  ShortestPaths sampled(torus);
  sampled.set_sampled_stats(true);
  const double est1 = sampled.average_path_length();
  EXPECT_TRUE(sampled.stats_sampled());
  // Deterministic stride sampling: repeated queries and fresh instances
  // agree bit-for-bit.
  EXPECT_DOUBLE_EQ(sampled.average_path_length(), est1);
  ShortestPaths sampled2(torus);
  sampled2.set_sampled_stats(true);
  EXPECT_DOUBLE_EQ(sampled2.average_path_length(), est1);
  // A torus is vertex-transitive, so any source sample is exact; allow a
  // loose band anyway to keep the test about sanity, not symmetry.
  EXPECT_NEAR(est1, exact_apl, 0.05 * exact_apl);
  EXPECT_EQ(sampled.diameter(), exact.diameter());
}

TEST(ShortestPaths, SampledStatsStayExactBelowThreshold) {
  const Topology mesh = make_mesh(5, 5);
  ShortestPaths sp(mesh);
  sp.set_sampled_stats(true);  // default min_nodes 2500 >> 25
  EXPECT_NEAR(sp.average_path_length(), 10.0 / 3.0, 1e-9);  // exact value
  EXPECT_FALSE(sp.stats_sampled());
}

TEST(ShortestPaths, CompleteGraphAllOnes) {
  const Topology c = make_complete(8);
  const ShortestPaths sp(c);
  EXPECT_DOUBLE_EQ(sp.average_path_length(), 1.0);
  EXPECT_EQ(sp.diameter(), 1u);
}

TEST(ShortestPaths, StarIsTwoHopsBetweenLeaves) {
  const Topology s = make_star(10);
  const ShortestPaths sp(s);
  EXPECT_EQ(sp.hops(1, 2), 2u);
  EXPECT_EQ(sp.hops(0, 5), 1u);
  EXPECT_EQ(sp.diameter(), 2u);
}

/// Every ordered pair's hops() on one long-lived instance, checked against
/// a fresh instance's full rows for the current liveness. The long-lived
/// instance answers from rows it cached for earlier pairs (and evicts
/// them once 64 are held), so stale or wrongly indexed rows show here.
void expect_hops_match_fresh_rows(const Topology& t, const ShortestPaths& sp,
                                  int phase) {
  const NodeId n = t.num_nodes();
  std::vector<std::vector<std::uint32_t>> ref(n);
  {
    const ShortestPaths fresh(t);
    for (NodeId a = 0; a < n; ++a) {
      const std::uint32_t* row = fresh.row(a);
      ref[a].assign(row, row + n);
    }
  }
  bool all_alive_pairs_reachable = true;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (t.alive(a) && t.alive(b) && ref[a][b] == kUnreachable) {
        all_alive_pairs_reachable = false;
      }
    }
  }
  for (NodeId a = 0; a < n; ++a) {
    // Interleave row() so later queries find rows cached by row() next to
    // rows cached by hops() and uncached ones.
    if ((a + static_cast<NodeId>(phase)) % 3 == 0) {
      ASSERT_EQ(sp.row(a)[a], t.alive(a) ? 0u : kUnreachable);
    }
    for (NodeId b = 0; b < n; ++b) {
      const std::uint32_t d = sp.hops(a, b);
      ASSERT_EQ(d, ref[a][b]) << "phase " << phase << " " << a << "->" << b;
      ASSERT_EQ(d, sp.hops(b, a)) << "phase " << phase << " " << a << "," << b;
      ASSERT_EQ(sp.reachable(a, b), d != kUnreachable) << a << "," << b;
      if (!t.alive(a) || !t.alive(b)) {
        ASSERT_EQ(d, kUnreachable) << "dead endpoint " << a << "," << b;
      } else if (a == b) {
        ASSERT_EQ(d, 0u) << "alive self " << a;
      }
    }
  }
  // Last, so the first hops() of a phase meets the rows cached before
  // the liveness change.
  EXPECT_EQ(sp.connected(), all_alive_pairs_reachable) << "phase " << phase;
}

/// Kills each alive node with probability `p`.
void kill_random(Topology& t, RngStream& rng, double p) {
  for (NodeId v = 0; v < t.num_nodes(); ++v) {
    if (t.alive(v) && rng.bernoulli(p)) t.set_alive(v, false);
  }
}

TEST(ShortestPaths, HopsMatchFreshRows) {
  struct Case {
    std::string name;
    Topology topology;
  };
  std::vector<Case> cases;
  cases.push_back({"mesh", make_mesh(9, 8)});
  cases.push_back({"torus", make_torus(6, 5)});
  cases.push_back({"ring", make_ring(17)});
  cases.push_back({"star", make_star(12)});
  cases.push_back({"random", make_random_connected(40, 60, 3)});
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (Case& c : cases) {
      SCOPED_TRACE(c.name + " seed " + std::to_string(seed));
      Topology t = c.topology;
      RngStream rng(seed, "point-queries");
      const ShortestPaths sp(t);
      int phase = 0;
      expect_hops_match_fresh_rows(t, sp, phase++);

      kill_random(t, rng, 0.2);
      expect_hops_match_fresh_rows(t, sp, phase++);

      // Partition: cut every neighbor of one alive node away from it.
      const std::vector<NodeId> alive = t.alive_nodes();
      ASSERT_FALSE(alive.empty());
      const NodeId island = alive[rng.uniform_index(alive.size())];
      bool cut = false;
      for (const NodeId v : t.alive_neighbors(island)) {
        t.set_alive(v, false);
        cut = true;
      }
      if (cut && t.alive_count() > 1) {
        EXPECT_FALSE(sp.connected());
      }
      expect_hops_match_fresh_rows(t, sp, phase++);

      // Liveness flip back: restore about half of the dead nodes.
      for (NodeId v = 0; v < t.num_nodes(); ++v) {
        if (!t.alive(v) && rng.bernoulli(0.5)) t.set_alive(v, true);
      }
      expect_hops_match_fresh_rows(t, sp, phase++);

      kill_random(t, rng, 0.45);
      expect_hops_match_fresh_rows(t, sp, phase++);
    }
  }
}

}  // namespace
}  // namespace realtor::net
