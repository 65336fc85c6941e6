// Fig 5c: CDF of per-reverse-traceroute run time for each configuration.
//
// Paper result: revtr 1.0's median is 78 s; revtr 2.0's is 6 s. The gap is
// driven by the 10-second spoofed-batch timeout times the number of batches
// each VP-selection strategy needs. The last row, revtr 2.0 with last-hop
// symmetry traces, is an extension beyond the paper.
#include <cstdio>

#include "ablation.h"
#include "bench_common.h"

using namespace revtr;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto setup = bench::parse_setup(flags);
  bench::warn_unknown_flags(flags);
  bench::print_header("Fig 5c: reverse traceroute latency CDF", setup);

  auto chain = bench::table4_chain();
  chain.push_back(bench::last_hop_row(chain.back()));
  std::vector<util::Series> series;
  util::TextTable table(
      {"Configuration", "p10 (s)", "median (s)", "p90 (s)", "mean (s)"});
  for (const auto& config : chain) {
    const auto result = bench::run_ablation(setup, config);
    table.add_row({result.label,
                   util::cell(result.latency_seconds.quantile(0.10)),
                   util::cell(result.latency_seconds.median()),
                   util::cell(result.latency_seconds.quantile(0.90)),
                   util::cell(result.latency_seconds.mean())});
    util::Series s;
    s.name = result.label;
    for (const double q :
         {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99}) {
      s.xs.push_back(result.latency_seconds.quantile(q));  // Time (s).
      s.ys.push_back(q);                                   // CDF.
    }
    series.push_back(std::move(s));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("%s\n",
              util::render_figure("Fig 5c: CDF of run time (x=s, y=CDF)",
                                  series, 3)
                  .c_str());
  std::printf(
      "paper: median drops from 78 s (revtr 1.0) to 6 s (revtr 2.0), mostly\n"
      "from needing fewer 10-second spoofed batches.\n");
  return 0;
}
