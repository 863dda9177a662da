// Ablation studies beyond the paper's figures — each isolates one design
// choice DESIGN.md calls out:
//   1. Equation (3) fragment boost on/off
//   2. Eq. (1) decay weight (1/8 vs alternatives)
//   3. log-structured vs in-place SSD cache writes (emulated by forcing
//      random placement through a tiny segment size)
//   4. CFQ anticipation window (disk idling) sweep
//   5. write-back daemon on/off (drain-only)
#include "bench/bench_common.hpp"

using namespace ibridge;
using namespace ibridge::bench;

namespace {

double run65k(const Scale& scale, const cluster::ClusterConfig& cc,
              bool write = true) {
  cluster::Cluster c(cc);
  workloads::MpiIoTestConfig cfg;
  cfg.nprocs = 64;
  cfg.request_size = 65 * 1024;
  cfg.file_bytes = scale.file_bytes;
  cfg.access_bytes = scale.access_bytes / 2;
  cfg.write = write;
  return mbps_total(run_mpi_io_test(c, cfg));
}

}  // namespace

int main(int argc, char** argv) {
  const Scale scale = Scale::parse(argc, argv);

  banner("Ablation 1", "Equation (3) striping-magnification boost");
  {
    core::IBridgeConfig on;
    core::IBridgeConfig off;
    off.fragment_boost = false;
    stats::Table t({"variant", "65 KB write MB/s"});
    t.add_row({"boost on (paper)",
               stats::Table::fmt(
                   "%.1f", run65k(scale,
                                  cluster::ClusterConfig::with_ibridge(on)))});
    t.add_row({"boost off",
               stats::Table::fmt(
                   "%.1f", run65k(scale,
                                  cluster::ClusterConfig::with_ibridge(off)))});
    t.print();
  }

  banner("Ablation 2", "Equation (1) decay weight on the old average");
  {
    stats::Table t({"old weight", "65 KB write MB/s"});
    for (double w : {1.0 / 8.0, 1.0 / 2.0, 7.0 / 8.0}) {
      core::IBridgeConfig ib;
      ib.t_old_weight = w;
      t.add_row({stats::Table::fmt("%.3f", w),
                 stats::Table::fmt(
                     "%.1f",
                     run65k(scale, cluster::ClusterConfig::with_ibridge(ib)))});
    }
    t.print();
    std::printf("  paper uses 1/8 (Linux anticipatory-scheduler weights)\n");
  }

  banner("Ablation 3",
         "admission policy: iBridge vs always-small vs hot-block (BTIO)");
  {
    stats::Table t({"policy", "BTIO exec (s)"});
    for (auto [label, policy] :
         {std::pair{"return-based (iBridge)",
                    core::AdmissionPolicy::kReturnBased},
          std::pair{"always-small", core::AdmissionPolicy::kAlwaysSmall},
          std::pair{"hot-block (Hystor-like)",
                    core::AdmissionPolicy::kHotBlock}}) {
      core::IBridgeConfig ib;
      ib.admission = policy;
      cluster::Cluster c(cluster::ClusterConfig::with_ibridge(ib));
      workloads::BtIoConfig cfg;
      cfg.nprocs = 16;
      cfg.time_steps = scale.btio_steps;
      t.add_row({label, stats::Table::fmt(
                            "%.2f", run_btio(c, cfg).elapsed.to_seconds())});
    }
    t.print();
    std::printf("  hot-block caches a region only after repeated access, so "
                "one-pass checkpoint\n  dumps miss it; always-small matches "
                "iBridge here but cannot prioritize fragments\n  under "
                "capacity pressure (Figure 12)\n");
  }

  banner("Ablation 4", "disk anticipation window (CFQ idling)");
  {
    stats::Table t({"anticipation", "65 KB read MB/s (stock)"});
    for (double ms : {0.0, 1.2, 3.0}) {
      auto cc = cluster::ClusterConfig::stock();
      cc.server.hdd.anticipation_ms = ms;
      t.add_row({stats::Table::fmt("%.1f ms", ms),
                 stats::Table::fmt("%.1f", run65k(scale, cc, false))});
    }
    t.print();
  }

  banner("Ablation 5", "write-back daemon interval");
  {
    stats::Table t({"interval", "65 KB write MB/s"});
    for (int ms : {10, 50, 500}) {
      core::IBridgeConfig ib;
      ib.writeback_interval = sim::SimTime::millis(ms);
      t.add_row({stats::Table::fmt("%lld ms", static_cast<long long>(ms)),
                 stats::Table::fmt(
                     "%.1f",
                     run65k(scale, cluster::ClusterConfig::with_ibridge(ib)))});
    }
    t.print();
  }

  footnote();
  return 0;
}
