// Ablation studies beyond the paper's figures — each isolates one design
// choice DESIGN.md calls out:
//   1. Equation (3) fragment boost on/off
//   2. Eq. (1) decay weight (1/8 vs alternatives)
//   3. admission policy: return-based vs always-small vs hot-block (BTIO)
//   4. CFQ anticipation window (disk idling) sweep
//   5. write-back daemon interval sweep
// Every table cell is also a model key of BENCH_ablation.json.
#include "bench/bench_common.hpp"
#include "exp/gauge.hpp"

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
  exp::Stopwatch sw;
  exp::Gauge g("ablation");

  banner("Ablation 1", "Equation (3) striping-magnification boost");
  {
    core::IBridgeConfig on;
    core::IBridgeConfig off;
    off.fragment_boost = false;
    const double mbps_on =
        run65k(scale, cluster::ClusterConfig::with_ibridge(on));
    const double mbps_off =
        run65k(scale, cluster::ClusterConfig::with_ibridge(off));
    g.set("boost.on.write_mbps", mbps_on);
    g.set("boost.off.write_mbps", mbps_off);
    stats::Table t({"variant", "65 KB write MB/s"});
    t.add_row({"boost on (paper)", stats::Table::fmt("%.1f", mbps_on)});
    t.add_row({"boost off", stats::Table::fmt("%.1f", mbps_off)});
    t.print();
  }

  banner("Ablation 2", "Equation (1) decay weight on the old average");
  {
    stats::Table t({"old weight", "65 KB write MB/s"});
    for (int eighths : {1, 4, 7}) {
      core::IBridgeConfig ib;
      ib.t_old_weight = eighths / 8.0;
      const double mbps =
          run65k(scale, cluster::ClusterConfig::with_ibridge(ib));
      g.set("decay." + std::to_string(eighths) + "_8.write_mbps", mbps);
      t.add_row({stats::Table::fmt("%.3f", ib.t_old_weight),
                 stats::Table::fmt("%.1f", mbps)});
    }
    t.print();
    std::printf("  paper uses 1/8 (Linux anticipatory-scheduler weights)\n");
  }

  banner("Ablation 3",
         "admission policy: iBridge vs always-small vs hot-block (BTIO)");
  {
    stats::Table t({"policy", "BTIO exec (s)"});
    const char* keys[] = {"return_based", "always_small", "hot_block"};
    int k = 0;
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
      const double secs = run_btio(c, cfg).elapsed.to_seconds();
      g.set(std::string("admission.") + keys[k++] + ".btio_s", secs);
      t.add_row({label, stats::Table::fmt("%.2f", secs)});
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
    for (int us : {0, 1200, 3000}) {
      auto cc = cluster::ClusterConfig::stock();
      cc.server.hdd.anticipation_ms = us / 1000.0;
      const double mbps = run65k(scale, cc, false);
      g.set("anticipation." + std::to_string(us) + "us.read_mbps", mbps);
      t.add_row({stats::Table::fmt("%.1f ms", cc.server.hdd.anticipation_ms),
                 stats::Table::fmt("%.1f", mbps)});
    }
    t.print();
  }

  banner("Ablation 5", "write-back daemon interval");
  {
    stats::Table t({"interval", "65 KB write MB/s"});
    for (int ms : {10, 50, 500}) {
      core::IBridgeConfig ib;
      ib.writeback_interval = sim::SimTime::millis(ms);
      const double mbps =
          run65k(scale, cluster::ClusterConfig::with_ibridge(ib));
      g.set("writeback." + std::to_string(ms) + "ms.write_mbps", mbps);
      t.add_row({stats::Table::fmt("%lld ms", static_cast<long long>(ms)),
                 stats::Table::fmt("%.1f", mbps)});
    }
    t.print();
  }

  footnote();
  g.set_wall("seconds", sw.seconds());
  if (!g.write_file()) {
    std::fprintf(stderr, "warning: could not write BENCH_ablation.json\n");
  }
  return 0;
}
