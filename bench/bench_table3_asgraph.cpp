// Table 3: correctness and completeness of the reverse AS graph obtained
// with three techniques (§5.1):
//  * revtr 2.0 reverse traceroutes,
//  * RIPE-Atlas-style forward traceroutes from probe hosts only,
//  * forward traceroutes + assuming symmetry.
//
// For each source, every technique infers, per AS, the AS-level link that
// AS uses to route *toward* the source. Correctness = fraction of inferred
// links matching the BGP ground truth; completeness = fraction of all ASes
// for which any link was inferred.
//
// Paper: revtr 2.0 1.00 / 0.55, RIPE Atlas 1.00 / 0.06, forward+symmetry
// 0.60 / 0.78.
#include <cstdio>
#include <set>

#include "bench_common.h"
#include "eval/harness.h"

using namespace revtr;

namespace {

struct Technique {
  std::set<std::pair<topology::Asn, topology::Asn>> links;  // (from, via).
  std::set<topology::Asn> covered;

  void add_link(topology::Asn from, topology::Asn via) {
    if (from == via) return;
    links.insert({from, via});
    covered.insert(from);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  auto setup = bench::parse_setup(flags);
  // Completeness is campaign-size dependent (the paper used one destination
  // per routed prefix); default to one per prefix here too.
  if (!flags.has("revtrs")) setup.revtrs = setup.topo.num_ases * 2;
  bench::warn_unknown_flags(flags);
  bench::print_header("Table 3: reverse AS graph correctness/completeness",
                      setup);

  eval::Lab lab(setup.topo, core::EngineConfig::revtr2(), setup.seed);
  const auto vps = lab.topo.vantage_points();
  const std::size_t sources = std::min(setup.sources, vps.size());
  lab.bootstrap_sources(vps.first(sources), setup.atlas_size);
  lab.precompute_all_ingresses();

  util::Rng rng(setup.seed * 3 + 1);
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

  double revtr_correct_sum = 0, revtr_complete_sum = 0;
  double atlas_correct_sum = 0, atlas_complete_sum = 0;
  double fwd_correct_sum = 0, fwd_complete_sum = 0;

  util::SimClock clock;
  for (std::size_t s = 0; s < sources; ++s) {
    const topology::HostId source = vps[s];
    const auto source_as = lab.topo.index_of(lab.topo.host(source).asn);
    const auto& truth_column = lab.bgp.column(source_as);

    auto link_correct = [&](topology::Asn from, topology::Asn via) {
      if (!lab.topo.has_as(from)) return false;
      const auto index = lab.topo.index_of(from);
      return truth_column.next(index) == via ||
             (truth_column.alt(index) != 0 &&
              lab.topo.as_at(index).source_sensitive &&
              truth_column.alt(index) == via);
    };

    Technique revtr, atlas_technique, fwd;

    // --- revtr 2.0: reverse traceroutes from the destinations. ---
    for (const auto dest : dests) {
      const auto result = lab.engine.measure(dest, source, clock);
      if (!result.complete()) continue;
      const auto as_path = lab.ip2as.as_path(result.ip_hops());
      for (std::size_t i = 0; i + 1 < as_path.size(); ++i) {
        revtr.add_link(as_path[i], as_path[i + 1]);
      }
    }

    // --- RIPE Atlas: forward traceroutes from probe hosts to the source
    // measure true toward-source links, but only from probe-host ASes.
    // RIPE probes sit in ~5% of ASes (3,682 of 72,272 in the paper), so
    // only a proportional subset of our probe hosts plays that role. ---
    const auto all_probes = lab.topo.probe_hosts();
    const std::size_t ripe_count = std::min(
        all_probes.size(),
        std::max<std::size_t>(4, lab.topo.num_ases() / 20));
    for (std::size_t p = 0; p < ripe_count; ++p) {
      const auto probe = all_probes[p];
      const auto trace =
          lab.prober.traceroute(probe, lab.topo.host(source).addr);
      if (!trace.reached) continue;
      const auto as_path = lab.ip2as.as_path(trace.responsive_hops());
      for (std::size_t i = 0; i + 1 < as_path.size(); ++i) {
        atlas_technique.add_link(as_path[i], as_path[i + 1]);
      }
    }

    // --- Forward traceroutes + assume symmetry. ---
    for (const auto dest : dests) {
      const auto trace =
          lab.prober.traceroute(source, lab.topo.host(dest).addr);
      if (!trace.reached) continue;
      auto as_path = lab.ip2as.as_path(trace.responsive_hops());
      // Prepend the source AS (traceroute hops start past it).
      const topology::Asn source_asn = lab.topo.host(source).asn;
      if (as_path.empty() || as_path.front() != source_asn) {
        as_path.insert(as_path.begin(), source_asn);
      }
      // Reversed: each AS's toward-source link assumed = forward link.
      for (std::size_t i = 0; i + 1 < as_path.size(); ++i) {
        fwd.add_link(as_path[i + 1], as_path[i]);
      }
    }

    auto score = [&](const Technique& technique, double& correct_sum,
                     double& complete_sum) {
      std::size_t correct = 0;
      for (const auto& [from, via] : technique.links) {
        correct += link_correct(from, via);
      }
      if (!technique.links.empty()) {
        correct_sum += static_cast<double>(correct) /
                       static_cast<double>(technique.links.size());
      }
      complete_sum += static_cast<double>(technique.covered.size()) /
                      static_cast<double>(lab.topo.num_ases());
    };
    score(revtr, revtr_correct_sum, revtr_complete_sum);
    score(atlas_technique, atlas_correct_sum, atlas_complete_sum);
    score(fwd, fwd_correct_sum, fwd_complete_sum);
  }

  const double n = static_cast<double>(sources);
  util::TextTable table({"Technique", "Correctness", "Completeness"});
  table.add_row({"revtr 2.0", util::cell(revtr_correct_sum / n),
                 util::cell(revtr_complete_sum / n)});
  table.add_row({"RIPE Atlas", util::cell(atlas_correct_sum / n),
                 util::cell(atlas_complete_sum / n)});
  table.add_row({"Forward traceroutes + assume symmetry",
                 util::cell(fwd_correct_sum / n),
                 util::cell(fwd_complete_sum / n)});
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "paper: revtr 2.0 1.00/0.55, RIPE Atlas 1.00/0.06, forward+symmetry\n"
      "0.60/0.78 — only revtr 2.0 combines correctness with coverage.\n");
  return 0;
}
