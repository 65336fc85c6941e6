// Appx B.2: would bdrmapit-style router-to-AS inference change revtr 2.0's
// symmetry decisions?
//
// Methodology mirroring the paper: run a revtr 2.0 campaign, collect every
// symmetry-assumption link (penultimate hop, current hop), classify it
// intra/interdomain under (a) the production prefix+interconnect mapping
// and (b) bdrmap-lite trained on the traceroute atlas. Report how many
// assumptions would flip in each direction, plus ground-truth accuracy of
// both classifiers.
//
// Paper: only 0.07% of assumptions flip intra->inter and 1.5% inter->intra;
// combined with the ~30-minute atlas outage bdrmapit would cost, revtr 2.0
// sticks with the simple mapping.
#include <cstdio>

#include "asmap/bdrmap.h"
#include "bench_common.h"

using namespace revtr;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  auto setup = bench::parse_setup(flags);
  bench::warn_unknown_flags(flags);
  bench::print_header("Appx B.2: simple IP2AS vs bdrmap-lite", setup);

  // Run revtr 1.0-style (always assume symmetry) so plenty of assumption
  // links are collected — the comparison is about classification, not
  // about which links the engine keeps.
  core::EngineConfig config = core::EngineConfig::revtr1();
  config.use_timestamp = false;
  eval::Lab lab(setup.topo, config, setup.seed);
  const auto vps = lab.topo.vantage_points();
  const std::size_t sources = std::min(setup.sources, vps.size());
  lab.bootstrap_sources(vps.first(sources), setup.atlas_size);
  lab.precompute_all_ingresses();

  // Train bdrmap-lite on the traceroute atlas (what the real system would
  // feed bdrmapit).
  asmap::BdrmapLite bdrmap(lab.ip2as);
  for (std::size_t s = 0; s < sources; ++s) {
    for (const auto& tr : lab.atlas.traceroutes(vps[s])) {
      bdrmap.add_path(tr.hops);
    }
  }
  std::printf("bdrmap-lite corpus: %zu addresses, %zu re-mapped vs plain "
              "prefix mapping\n\n",
              bdrmap.observed_addresses(), bdrmap.remapped_addresses());

  util::Rng rng(setup.seed * 3 + 7);
  std::vector<topology::HostId> dests;
  for (const auto prefix : lab.customer_prefixes()) {
    for (const auto host : lab.topo.hosts_in_prefix(prefix)) {
      if (lab.topo.host(host).ping_responsive) {
        dests.push_back(host);
        break;
      }
    }
  }
  rng.shuffle(dests);
  if (dests.size() > setup.revtrs) dests.resize(setup.revtrs);

  std::size_t assumptions = 0;
  std::size_t intra_to_inter = 0, inter_to_intra = 0;
  util::Fraction simple_correct, bdrmap_correct;

  util::SimClock clock;
  for (std::size_t i = 0; i < dests.size(); ++i) {
    const auto source = vps[i % sources];
    const auto result = lab.engine.measure(dests[i], source, clock);
    // Collect (previous hop, assumed hop) pairs.
    for (std::size_t h = 1; h < result.hops.size(); ++h) {
      if (result.hops[h].source != core::HopSource::kAssumedSymmetric) {
        continue;
      }
      const auto current = result.hops[h - 1].addr;
      const auto assumed = result.hops[h].addr;
      if (current.is_unspecified() || assumed.is_unspecified()) continue;
      ++assumptions;

      const auto simple_a = lab.ip2as.lookup(current);
      const auto simple_b = lab.ip2as.lookup(assumed);
      const bool simple_intra = simple_a && simple_b && *simple_a == *simple_b;
      const bool bdrmap_intra = bdrmap.intradomain(current, assumed);
      if (simple_intra && !bdrmap_intra) ++intra_to_inter;
      if (!simple_intra && bdrmap_intra) ++inter_to_intra;

      // Ground truth from the generator.
      const auto owner_a = lab.topo.interface_at(current);
      const auto owner_b = lab.topo.interface_at(assumed);
      if (owner_a && owner_b) {
        const bool truth = lab.topo.router(owner_a->router).asn ==
                           lab.topo.router(owner_b->router).asn;
        simple_correct.tally(simple_intra == truth);
        bdrmap_correct.tally(bdrmap_intra == truth);
      }
    }
  }

  util::TextTable table({"Metric", "Value"});
  table.add_row({"symmetry assumptions examined",
                 util::cell_count(assumptions)});
  table.add_row(
      {"flipped intradomain -> interdomain",
       util::cell_percent(assumptions == 0
                              ? 0.0
                              : static_cast<double>(intra_to_inter) /
                                    static_cast<double>(assumptions),
                          2)});
  table.add_row(
      {"flipped interdomain -> intradomain",
       util::cell_percent(assumptions == 0
                              ? 0.0
                              : static_cast<double>(inter_to_intra) /
                                    static_cast<double>(assumptions),
                          2)});
  table.add_row({"simple mapping correct vs ground truth",
                 util::cell_percent(simple_correct.value())});
  table.add_row({"bdrmap-lite correct vs ground truth",
                 util::cell_percent(bdrmap_correct.value())});
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "paper: 0.07%% intra->inter, 1.5%% inter->intra — too little benefit\n"
      "to justify a 30-minute atlas outage, so revtr 2.0 keeps the simple\n"
      "mapping.\n");
  return 0;
}
