// Figure 3 — the striping magnification effect.
//
// A 16-process group synchronously issues constant-size requests: k*64 KB
// (served by servers 0..k-1) versus k*64 KB + 1 KB (the extra 1 KB fragment
// lands on server k).  A second group concurrently reads random 64 KB
// segments from server k so the fragment contends with real work.  Both
// variants run with and without a barrier between iterations.  The paper's
// trend: the fragment's throughput penalty grows with k.
#include "bench/bench_common.hpp"
#include "exp/gauge.hpp"
#include "mpiio/mpi.hpp"

using namespace ibridge;
using namespace ibridge::bench;

namespace {

struct RunStats {
  std::int64_t bytes = 0;
};

sim::Task<> requester(mpiio::MpiContext ctx, mpiio::MpiFile file,
                      std::int64_t req_size, std::int64_t iters,
                      std::int64_t region, bool barrier, RunStats* st) {
  for (std::int64_t k = 0; k < iters; ++k) {
    const std::int64_t off =
        (k * ctx.size() + ctx.rank()) * region % (8LL * kGB);
    co_await file.read_at(ctx.rank(), off, req_size);
    st->bytes += req_size;
    if (barrier) co_await ctx.barrier();
  }
}

sim::Task<> interferer(mpiio::MpiContext ctx, mpiio::MpiFile file,
                       int target_server, std::int64_t iters,
                       sim::Rng rng) {
  // Random 64 KB reads that always land on `target_server`: stripe indices
  // congruent to the target modulo the server count.
  const std::int64_t unit = 64 * 1024;
  const std::int64_t servers = 8;
  for (std::int64_t k = 0; k < iters; ++k) {
    const std::int64_t stripe =
        (rng.below(10'000) * servers + static_cast<std::uint64_t>(target_server));
    co_await file.read_at(ctx.rank(), static_cast<std::int64_t>(stripe) * unit,
                          unit);
  }
}

double run_case(const Scale& scale, int k, bool with_fragment, bool barrier) {
  cluster::Cluster c(cluster::ClusterConfig::stock());
  auto fh = c.create_file("data", scale.file_bytes);
  mpiio::MpiFile file(c.client(), fh);

  const std::int64_t req =
      static_cast<std::int64_t>(k) * 64 * 1024 + (with_fragment ? 1024 : 0);
  // Requests are aligned to k-unit boundaries so they hit servers 0..k-1
  // (+ server k for the fragment).
  const std::int64_t region = static_cast<std::int64_t>(8) * 64 * 1024;
  const std::int64_t iters =
      std::max<std::int64_t>(1, scale.access_bytes / (16 * req) / 4);

  RunStats st;
  mpiio::MpiEnvironment group(c.sim(), c.client(), 16);
  mpiio::MpiEnvironment noise(c.sim(), c.client(), 4);
  const sim::SimTime t0 = c.sim().now();
  group.launch([&](mpiio::MpiContext ctx) {
    return requester(ctx, file, req, iters, region, barrier, &st);
  });
  sim::Rng seed_gen(77);
  noise.launch([&](mpiio::MpiContext ctx) {
    return interferer(ctx, file, /*target_server=*/k % 8, iters * 2,
                      seed_gen.fork());
  });
  c.sim().run_while_pending([&] { return group.finished(); });
  const double secs = (c.sim().now() - t0).to_seconds();
  return static_cast<double>(st.bytes) / 1e6 / secs;
}

}  // namespace

int main(int argc, char** argv) {
  const Scale scale = Scale::parse(argc, argv);
  exp::Stopwatch sw;
  exp::Gauge g("fig3_magnification");
  banner("Figure 3", "striping magnification: k servers +- a 1 KB fragment");

  stats::Table t({"k (servers)", "no-frag", "frag", "reduction",
                  "no-frag+barrier", "frag+barrier", "reduction"});
  for (int k : {1, 2, 4, 6}) {
    const double nf = run_case(scale, k, false, false);
    const double fr = run_case(scale, k, true, false);
    const double nfb = run_case(scale, k, false, true);
    const double frb = run_case(scale, k, true, true);
    t.add_row({std::to_string(k), stats::Table::fmt("%.1f", nf),
               stats::Table::fmt("%.1f", fr),
               stats::Table::fmt("%.0f%%", 100.0 * (1.0 - fr / nf)),
               stats::Table::fmt("%.1f", nfb),
               stats::Table::fmt("%.1f", frb),
               stats::Table::fmt("%.0f%%", 100.0 * (1.0 - frb / nfb))});
    std::string key = "k";
    key += std::to_string(k);
    key += '.';
    g.set(key + "nofrag_mbps", nf);
    g.set(key + "frag_mbps", fr);
    g.set(key + "reduction_pct", 100.0 * (1.0 - fr / nf));
    g.set(key + "barrier.nofrag_mbps", nfb);
    g.set(key + "barrier.frag_mbps", frb);
    g.set(key + "barrier.reduction_pct", 100.0 * (1.0 - frb / nfb));
  }
  t.print();
  std::printf("  paper trend: reduction grows with k; barriers amplify the "
              "fragment penalty\n");
  footnote();
  g.set_wall("seconds", sw.seconds());
  if (!g.write_file()) {
    std::fprintf(stderr,
                 "warning: could not write BENCH_fig3_magnification.json\n");
  }
  return 0;
}
