// Baseline comparison beyond the paper's figures: what do the classical
// middleware remedies buy against the same unaligned workload, and how does
// iBridge compare?
//
//   independent stock      — the paper's baseline (fragments hit the disks)
//   data sieving           — reads widened to stripe boundaries (wasted
//                            transfer buys alignment)
//   two-phase collective   — aggregation + shuffle (needs synchronized
//                            phases across all ranks)
//   independent + iBridge  — the paper's contribution (transparent)
//
// This operationalizes the paper's related-work discussion: collective I/O
// and sieving only apply when the program can use them; iBridge fixes the
// server side for any access pattern.
//
// Emits BENCH_baselines.json: write and read MB/s per approach.
#include "bench/bench_common.hpp"
#include "exp/gauge.hpp"
#include "mpiio/collective.hpp"
#include "mpiio/mpi.hpp"

using namespace ibridge;
using namespace ibridge::bench;

namespace {

constexpr std::int64_t kReq = 65 * 1024;
constexpr int kProcs = 64;

sim::Task<> independent_rank(mpiio::MpiContext ctx, mpiio::MpiFile file,
                             std::int64_t iters, bool write) {
  for (std::int64_t k = 0; k < iters; ++k) {
    const std::int64_t off =
        (k * ctx.size() + ctx.rank()) * kReq;
    if (write) {
      co_await file.write_at(ctx.rank(), off, kReq);
    } else {
      co_await file.read_at(ctx.rank(), off, kReq);
    }
  }
}

sim::Task<> sieved_rank(mpiio::MpiContext ctx, mpiio::MpiFile file,
                        std::int64_t iters) {
  for (std::int64_t k = 0; k < iters; ++k) {
    const std::int64_t off = (k * ctx.size() + ctx.rank()) * kReq;
    co_await read_at_sieved(file, ctx.rank(), off, kReq, 64 * 1024);
  }
}

sim::Task<> collective_rank(mpiio::MpiContext ctx,
                            mpiio::CollectiveContext* coll,
                            std::int64_t iters, bool write) {
  for (std::int64_t k = 0; k < iters; ++k) {
    const std::int64_t off = (k * ctx.size() + ctx.rank()) * kReq;
    if (write) {
      co_await coll->write_at_all(ctx.rank(), off, kReq);
    } else {
      co_await coll->read_at_all(ctx.rank(), off, kReq);
    }
  }
}

enum class Mode { kIndependent, kSieved, kCollective };

double run_case(const Scale& scale, const cluster::ClusterConfig& cc,
                Mode mode, bool write) {
  cluster::Cluster c(cc);
  auto fh = c.create_file("f", scale.file_bytes);
  mpiio::MpiFile file(c.client(), fh);
  const std::int64_t iters =
      std::max<std::int64_t>(1, scale.access_bytes / 2 / (kProcs * kReq));

  mpiio::MpiEnvironment env(c.sim(), c.client(), kProcs);
  mpiio::CollectiveContext coll(env, file);
  const sim::SimTime t0 = c.sim().now();
  env.launch([&](mpiio::MpiContext ctx) -> sim::Task<> {
    switch (mode) {
      case Mode::kSieved:
        return sieved_rank(ctx, file, iters);
      case Mode::kCollective:
        return collective_rank(ctx, &coll, iters, write);
      case Mode::kIndependent:
      default:
        return independent_rank(ctx, file, iters, write);
    }
  });
  c.sim().run_while_pending([&] { return env.finished(); });
  const sim::SimTime flushed = c.drain();
  const double bytes =
      static_cast<double>(iters) * kProcs * kReq;  // payload delivered
  return bytes / 1e6 / (flushed - t0).to_seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const Scale scale = Scale::parse(argc, argv);
  exp::Stopwatch sw;
  exp::Gauge g("baselines");
  banner("Baselines", "65 KB unaligned access: middleware remedies vs iBridge");

  stats::Table t({"approach", "write MB/s", "read MB/s", "notes"});
  const auto stock = cluster::ClusterConfig::stock();
  const auto ib = cluster::ClusterConfig::with_ibridge();
  auto mbps = [&](const char* key, const cluster::ClusterConfig& cc, Mode mode,
                  bool write) {
    const double v = run_case(scale, cc, mode, write);
    g.set(key, v);
    return stats::Table::fmt("%.1f", v);
  };

  t.add_row({"independent, stock",
             mbps("independent.stock.write_mbps", stock, Mode::kIndependent,
                  true),
             mbps("independent.stock.read_mbps", stock, Mode::kIndependent,
                  false),
             "fragments hit the disks"});
  t.add_row({"data sieving, stock", "n/a",
             mbps("sieving.stock.read_mbps", stock, Mode::kSieved, false),
             "reads widened to 64 KB bounds"});
  t.add_row({"two-phase collective, stock",
             mbps("collective.stock.write_mbps", stock, Mode::kCollective,
                  true),
             mbps("collective.stock.read_mbps", stock, Mode::kCollective,
                  false),
             "needs synchronized phases"});
  t.add_row({"independent, iBridge",
             mbps("independent.ibridge.write_mbps", ib, Mode::kIndependent,
                  true),
             mbps("independent.ibridge.read_mbps", ib, Mode::kIndependent,
                  false),
             "transparent (the paper)"});
  t.print();
  std::printf("  collective I/O removes fragments by aggregation when the "
              "program can synchronize;\n  iBridge removes their cost "
              "without touching the program\n");
  footnote();
  g.set_wall("seconds", sw.seconds());
  if (!g.write_file()) {
    std::fprintf(stderr, "warning: could not write BENCH_baselines.json\n");
  }
  return 0;
}
