// Table 4: number and type of packets sent per system configuration,
// with the incremental improvements of the revtr 2.0 components:
//
//   revtr 2.0 = revtr 1.0 + ingress + cache - TS + RR atlas
//
// Paper result: revtr 2.0 sends 26% as many probes as revtr 1.0 (73K vs
// 275K for 8,093 reverse traceroutes), with the VP-selection technique
// contributing most of the savings. The last row is an extension beyond
// the paper: revtr 2.0 with last-hop symmetry traces, the same paths from
// fewer traceroute packets.
#include <cstdio>

#include "ablation.h"
#include "bench_common.h"

using namespace revtr;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto setup = bench::parse_setup(flags);
  bench::warn_unknown_flags(flags);
  bench::print_header("Table 4: packets sent, with incremental components",
                      setup);

  auto chain = bench::table4_chain();
  chain.push_back(bench::last_hop_row(chain.back()));
  std::vector<bench::AblationResult> results;
  for (const auto& config : chain) {
    results.push_back(bench::run_ablation(setup, config));
  }

  util::TextTable table({"Configuration", "RR", "Spoof RR", "TS", "Spoof TS",
                         "Traceroute", "Total", "vs revtr 1.0"});
  const double baseline =
      static_cast<double>(results.front().online.total());
  for (const auto& result : results) {
    const auto& c = result.online;
    table.add_row({result.label, util::cell_count(c.rr),
                   util::cell_count(c.spoofed_rr), util::cell_count(c.ts),
                   util::cell_count(c.spoofed_ts),
                   util::cell_count(c.traceroute_packets),
                   util::cell_count(c.total()),
                   util::cell_percent(
                       baseline == 0
                           ? 0.0
                           : static_cast<double>(c.total()) / baseline)});
  }
  std::printf("%s\n", table.render().c_str());

  // Mean spoofed-RR probes per measured path (Insight 1.8: 9 vs 29).
  util::TextTable rr_table(
      {"Configuration", "mean spoofed RR / path", "coverage"});
  for (const auto& result : results) {
    const double mean =
        result.attempted == 0
            ? 0.0
            : static_cast<double>(result.online.spoofed_rr) /
                  static_cast<double>(result.attempted);
    rr_table.add_row({result.label, util::cell(mean),
                      util::cell_percent(result.coverage())});
  }
  std::printf("%s\n", rr_table.render().c_str());
  std::printf(
      "paper: revtr 2.0 sends ~26%% of revtr 1.0's probes; ingress-based\n"
      "VP selection contributes the largest share of the savings.\n");
  return 0;
}
