// Hierarchical self-profiler: disabled scopes are inert, enabled scopes
// build a deterministic tree, and the TSV dump round-trips.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/profile.hpp"
#include "net/shortest_paths.hpp"

namespace realtor::obs {
namespace {

/// The profiler is a process-wide singleton; every test starts from a
/// clean, disabled slate and leaves it that way.
class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::instance().set_enabled(false);
    Profiler::instance().reset();
  }
  void TearDown() override {
    Profiler::instance().set_enabled(false);
    Profiler::instance().reset();
  }
};

TEST_F(ProfileTest, DisabledScopesRecordNothing) {
  {
    ProfileScope a("outer");
    ProfileScope b("inner");
  }
  const std::vector<ProfileEntry> entries = Profiler::instance().snapshot();
  EXPECT_TRUE(entries.empty());
}

TEST_F(ProfileTest, NestedScopesBuildPathsAndCountCalls) {
  Profiler::instance().set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    ProfileScope outer("engine/dispatch");
    {
      ProfileScope inner("proto/realtor");
    }
    {
      ProfileScope inner("proto/realtor");
    }
  }
  Profiler::instance().set_enabled(false);
  const std::vector<ProfileEntry> entries = Profiler::instance().snapshot();
  ASSERT_EQ(entries.size(), 2u);  // outer, inner
  EXPECT_EQ(entries[0].path, "engine/dispatch");
  EXPECT_EQ(entries[0].depth, 0);
  EXPECT_EQ(entries[0].calls, 3u);
  EXPECT_EQ(entries[1].path, "engine/dispatch/proto/realtor");
  EXPECT_EQ(entries[1].depth, 1);
  EXPECT_EQ(entries[1].calls, 6u);
  // Inclusive timing: the parent's total covers its children's.
  EXPECT_GE(entries[0].ns, entries[1].ns);
}

TEST_F(ProfileTest, SnapshotOrdersSiblingsByName) {
  Profiler::instance().set_enabled(true);
  {
    ProfileScope z("zeta");
  }
  {
    ProfileScope a("alpha");
  }
  {
    ProfileScope m("mid");
  }
  Profiler::instance().set_enabled(false);
  const std::vector<ProfileEntry> entries = Profiler::instance().snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].path, "alpha");
  EXPECT_EQ(entries[1].path, "mid");
  EXPECT_EQ(entries[2].path, "zeta");
}

TEST_F(ProfileTest, ConcurrentThreadsShareOneTreeWithoutLoss) {
  Profiler::instance().set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        ProfileScope outer("shared");
        ProfileScope inner("leaf");
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  Profiler::instance().set_enabled(false);
  const std::vector<ProfileEntry> entries = Profiler::instance().snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].path, "shared");
  EXPECT_EQ(entries[0].calls,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(entries[1].path, "shared/leaf");
  EXPECT_EQ(entries[1].calls,
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST_F(ProfileTest, TsvRoundTripsEveryField) {
  Profiler::instance().set_enabled(true);
  {
    ProfileScope outer("a");
    ProfileScope inner("b");
  }
  Profiler::instance().set_enabled(false);
  const std::vector<ProfileEntry> entries = Profiler::instance().snapshot();
  std::ostringstream dumped;
  write_profile_tsv(dumped, entries);
  std::istringstream loaded(dumped.str());
  const std::vector<ProfileEntry> parsed = parse_profile_tsv(loaded);
  ASSERT_EQ(parsed.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(parsed[i].path, entries[i].path);
    EXPECT_EQ(parsed[i].depth, entries[i].depth);
    EXPECT_EQ(parsed[i].calls, entries[i].calls);
    EXPECT_EQ(parsed[i].ns, entries[i].ns);
  }
}

TEST_F(ProfileTest, RenderTextListsEveryScopeOnce) {
  Profiler::instance().set_enabled(true);
  {
    ProfileScope outer("engine");
    ProfileScope inner("leaf");
  }
  Profiler::instance().set_enabled(false);
  const std::string text =
      render_profile_text(Profiler::instance().snapshot());
  EXPECT_NE(text.find("engine"), std::string::npos);
  EXPECT_NE(text.find("leaf"), std::string::npos);
}

// perfbench reads the shortest-path layer (net.bfs_calls, net.bfs_s) from
// this scope; a point query timed anywhere else would be charged to its
// caller's self time instead.
TEST_F(ProfileTest, PointQueryRunsUnderTheShortestPathScope) {
  const net::Topology mesh = net::make_mesh(6, 6);
  const net::ShortestPaths sp(mesh);
  Profiler::instance().set_enabled(true);
  EXPECT_EQ(sp.hops(0, 35), 10u);
  Profiler::instance().set_enabled(false);
  const std::string suffix = "net/shortest_paths_bfs";
  std::uint64_t calls = 0;
  for (const ProfileEntry& entry : Profiler::instance().snapshot()) {
    if (entry.path.size() >= suffix.size() &&
        entry.path.compare(entry.path.size() - suffix.size(), suffix.size(),
                           suffix) == 0) {
      calls += entry.calls;
    }
  }
  EXPECT_EQ(calls, 1u);
}

}  // namespace
}  // namespace realtor::obs
