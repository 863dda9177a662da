// System-level tests: the paper's headline effects must hold as ordering
// properties of the assembled cluster, and simulations must be
// deterministic.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "check/differential.hpp"
#include "check/generator.hpp"
#include "check/invariants.hpp"
#include "cluster/cluster.hpp"
#include "fault/schedule.hpp"
#include "workloads/btio.hpp"
#include "workloads/mpi_io_test.hpp"

namespace ibridge::cluster {
namespace {

workloads::MpiIoTestConfig quick(std::int64_t request_size, bool write) {
  workloads::MpiIoTestConfig cfg;
  cfg.nprocs = 16;
  cfg.request_size = request_size;
  cfg.file_bytes = 2LL << 30;
  cfg.access_bytes = 128 << 20;
  cfg.write = write;
  return cfg;
}

double run_mbps(const ClusterConfig& cc,
                const workloads::MpiIoTestConfig& cfg) {
  Cluster c(cc);
  const auto r = run_mpi_io_test(c, cfg);
  return static_cast<double>(r.bytes) / 1e6 / r.elapsed.to_seconds();
}

TEST(ClusterConfigs, NamedConfigurationsDiffer) {
  const auto stock = ClusterConfig::stock();
  EXPECT_FALSE(stock.server.ibridge.enabled);
  const auto ib = ClusterConfig::with_ibridge();
  EXPECT_TRUE(ib.server.ibridge.enabled);
  EXPECT_TRUE(ib.client.tag_fragments);
  const auto ssd = ClusterConfig::ssd_only();
  EXPECT_EQ(ssd.server.storage_mode, pvfs::StorageMode::kSsdOnly);
}

TEST(ClusterHeadline, UnalignedSlowerThanAlignedOnStock) {
  const double aligned = run_mbps(ClusterConfig::stock(), quick(64 * 1024, false));
  const double unaligned =
      run_mbps(ClusterConfig::stock(), quick(65 * 1024, false));
  EXPECT_LT(unaligned, 0.75 * aligned)
      << "Figure 2(a): unaligned access must significantly degrade stock";
}

TEST(ClusterHeadline, IBridgeRecoversUnalignedWriteThroughput) {
  // The paper's Figure 4(a) configuration: 64 processes, 65 KB writes.
  auto cfg = quick(65 * 1024, true);
  cfg.nprocs = 64;
  const double stock = run_mbps(ClusterConfig::stock(), cfg);
  const double bridged = run_mbps(ClusterConfig::with_ibridge(), cfg);
  EXPECT_GT(bridged, 1.10 * stock)
      << "Figure 4(a): iBridge must improve unaligned writes "
      << "(write-back drain time included)";
}

TEST(ClusterHeadline, IBridgeMatchesStockOnAlignedAccess) {
  const double stock = run_mbps(ClusterConfig::stock(), quick(64 * 1024, false));
  const double bridged =
      run_mbps(ClusterConfig::with_ibridge(), quick(64 * 1024, false));
  // Aligned access generates no fragments: iBridge must not hurt (the paper
  // reports identical throughput).
  EXPECT_NEAR(bridged, stock, 0.15 * stock);
}

TEST(ClusterHeadline, SsdOnlyBeatsDiskOnlyForSmallRandomWrites) {
  workloads::BtIoConfig cfg;
  cfg.nprocs = 4;
  cfg.grid = 64;
  cfg.time_steps = 2;
  cfg.compute_ms_per_step = 5.0;
  double disk_s, ssd_s;
  {
    Cluster c(ClusterConfig::stock());
    disk_s = run_btio(c, cfg).elapsed.to_seconds();
  }
  {
    Cluster c(ClusterConfig::ssd_only());
    ssd_s = run_btio(c, cfg).elapsed.to_seconds();
  }
  EXPECT_LT(ssd_s, disk_s);
}

TEST(Cluster, DrainLeavesNoDirtyBytes) {
  Cluster c(ClusterConfig::with_ibridge());
  auto cfg = quick(65 * 1024, true);
  cfg.access_bytes = 32 << 20;
  run_mpi_io_test(c, cfg);  // run_mpi_io_test drains internally
  for (int s = 0; s < c.server_count(); ++s) {
    ASSERT_TRUE(c.server(s).has_cache());
    EXPECT_EQ(c.server(s).cache()->table().dirty_bytes(), sim::Bytes::zero())
        << "server " << s;
  }
}

TEST(Cluster, SimulationsAreDeterministic) {
  auto cfg = quick(65 * 1024, true);
  cfg.access_bytes = 32 << 20;
  Cluster a(ClusterConfig::with_ibridge());
  Cluster b(ClusterConfig::with_ibridge());
  const auto ra = run_mpi_io_test(a, cfg);
  const auto rb = run_mpi_io_test(b, cfg);
  EXPECT_EQ(ra.elapsed.ns(), rb.elapsed.ns());
  EXPECT_EQ(ra.bytes, rb.bytes);
  EXPECT_EQ(a.server(0).cache()->stats().write_admits,
            b.server(0).cache()->stats().write_admits);
}

TEST(Cluster, DiskTraceCapturesBlockSizes) {
  Cluster c(ClusterConfig::stock());
  c.enable_disk_trace(0);
  auto cfg = quick(64 * 1024, false);
  cfg.access_bytes = 32 << 20;
  run_mpi_io_test(c, cfg);
  const auto& hist = c.server(0).disk().trace().size_histogram();
  EXPECT_GT(hist.total(), 0u);
  // Aligned 64 KB requests: the dominant dispatch size is 128 sectors or a
  // merged multiple of it.
  const auto top = hist.top(1);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].first % 128, 0);
}

TEST(Cluster, ServerCountIsConfigurable) {
  auto cc = ClusterConfig::stock();
  cc.data_servers = 3;
  Cluster c(cc);
  EXPECT_EQ(c.server_count(), 3);
  auto fh = c.create_file("f", 10 << 20);
  EXPECT_EQ(c.mds().file(fh).layout.servers(), 3);
}

// One core: the default layout is a one-shard group whose lone shard is
// `sim()` (ungrouped, so it checks predicates per event); the sharded
// layout folds 8 servers three to a shard behind the front shard.
TEST(Cluster, EveryLayoutRunsOnAShardGroup) {
  Cluster c(ClusterConfig::stock());
  ASSERT_NE(c.shard_group(), nullptr);
  EXPECT_EQ(c.shard_group()->shards(), 1);
  EXPECT_EQ(&c.sim(), &c.shard_group()->shard(0));
  EXPECT_EQ(c.sim().group(), nullptr);

  auto cc = ClusterConfig::stock();
  cc.data_servers = 8;
  cc.shards = 2;
  cc.shard_group_size = 3;
  Cluster sharded(cc);
  ASSERT_NE(sharded.shard_group(), nullptr);
  EXPECT_EQ(sharded.shard_group()->shards(), 4);
  EXPECT_EQ(sharded.shard_group()->workers(), 2);
  EXPECT_EQ(&sharded.sim(), &sharded.shard_group()->shard(0));
  EXPECT_EQ(sharded.sim().group(), sharded.shard_group());
  EXPECT_EQ(&sharded.server(7).sim(), &sharded.shard_group()->shard(3));
}

// Shard groups at the cluster level: many servers fold onto a handful of
// shards, and the result is still a pure function of the configuration —
// byte-identical across worker counts.
TEST(Cluster, ShardGroupsAreWorkerCountInvariant) {
  auto cfg = quick(65 * 1024, true);
  cfg.access_bytes = 16 << 20;
  auto run = [&](int workers) {
    auto cc = ClusterConfig::with_ibridge();
    cc.data_servers = 8;
    cc.shards = workers;
    cc.shard_group_size = 3;  // 8 servers -> 3 server shards + front shard
    Cluster c(cc);
    const auto r = run_mpi_io_test(c, cfg);
    return std::tuple{r.elapsed.ns(), r.bytes,
                      c.server(0).cache()->stats().write_admits};
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(4), base);
}

// The sharded metrics sampler rides the barrier hook: it must emit rows at
// the grid cadence with grid timestamps, and the whole series must be
// worker-count invariant (the CSV is compared byte-for-byte).
TEST(Cluster, ShardedMetricsSamplerIsWorkerCountInvariant) {
  auto cfg = quick(65 * 1024, true);
  cfg.access_bytes = 16 << 20;
  auto run_csv = [&](int workers) {
    auto cc = ClusterConfig::with_ibridge();
    cc.data_servers = 6;
    cc.shards = workers;
    cc.shard_group_size = 2;
    Cluster c(cc);
    obs::TimeSeries series;
    c.start_metrics_sampler(sim::SimTime::millis(5), &series);
    run_mpi_io_test(c, cfg);
    c.stop_metrics_sampler();
    EXPECT_GT(series.rows(), 0u) << "workers=" << workers;
    std::ostringstream csv;
    series.write_csv(csv);
    return csv.str();
  };
  const std::string base = run_csv(1);
  EXPECT_NE(base.find("cluster.bytes_served"), std::string::npos);
  EXPECT_EQ(run_csv(3), base);
}

TEST(Cluster, AggregateMetricsAccumulate) {
  Cluster c(ClusterConfig::with_ibridge());
  auto cfg = quick(65 * 1024, true);
  cfg.access_bytes = 32 << 20;
  const auto r = run_mpi_io_test(c, cfg);
  EXPECT_EQ(c.total_bytes_served().count(), r.bytes);
  EXPECT_GT(c.ssd_bytes_served(), sim::Bytes::zero());
  EXPECT_GT(c.avg_service_ms(), 0.0);
}

// Whole-cluster promotion of the mapping-table crash/recovery tests: the
// table's save/load cycle now runs inside a live cluster — a data server
// crashes mid-write-back, restarts, replays its mapping table, and drains
// the recovered dirty data in degraded mode.
TEST(ClusterFaults, CrashMidFlushMatchesNeverCrashedRun) {
  const check::FuzzCase healthy = check::generate_case(0x5ca1ab1e);
  check::FuzzCase crashy = healthy;
  fault::CrashSpec spec;
  spec.server = 0;
  spec.at = sim::SimTime::millis(1);
  spec.outage = sim::SimTime::millis(4);
  spec.phase = "batch.write";
  spec.drain_budget = 128 << 10;
  spec.drain_interval = sim::SimTime::millis(1);
  crashy.faults.seed = 5;
  crashy.faults.crashes.push_back(spec);

  check::RunReport hr;
  {
    Cluster cl(check::make_config(healthy, check::Policy::kIBridge));
    hr = check::run_case(cl, healthy, check::Policy::kIBridge);
  }
  check::RunReport cr;
  {
    Cluster cl(check::make_config(crashy, check::Policy::kIBridge));
    check::InvariantOracle oracle;
    cr = check::run_case(cl, crashy, check::Policy::kIBridge, &oracle);
    EXPECT_TRUE(oracle.ok()) << oracle.failures().front();
    EXPECT_GT(oracle.checks_run(), 0u);
  }
  ASSERT_TRUE(hr.ok()) << hr.failure;
  ASSERT_TRUE(cr.ok()) << cr.failure;
  // The crash may reorder and delay everything, but never change bytes.
  EXPECT_EQ(hr.payload_digest, cr.payload_digest);
  EXPECT_EQ(hr.image_digest, cr.image_digest);
  EXPECT_FALSE(hr.faulted);
  EXPECT_TRUE(cr.faulted);
}

TEST(ClusterFaults, RestartedServerComesBackCleanAndOnline) {
  check::FuzzCase c = check::generate_case(0xfeedULL);
  c.faults =
      fault::make_scenario(fault::Scenario::kCrashRestart,
                           c.base.data_servers, 0xfeedULL,
                           sim::SimTime::millis(30));
  ASSERT_FALSE(c.faults.empty());
  Cluster cl(check::make_config(c, check::Policy::kIBridge));
  const check::RunReport r = check::run_case(cl, c, check::Policy::kIBridge);
  ASSERT_TRUE(r.ok()) << r.failure;
  for (int s = 0; s < cl.server_count(); ++s) {
    EXPECT_FALSE(cl.server(s).offline()) << "server " << s;
    if (cl.server(s).has_cache()) {
      EXPECT_EQ(cl.server(s).cache()->table().dirty_bytes(),
                sim::Bytes::zero())
          << "server " << s;
    }
  }
}

}  // namespace
}  // namespace ibridge::cluster
