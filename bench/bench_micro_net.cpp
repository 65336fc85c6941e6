// Engineering microbenchmarks (google-benchmark): the hot paths under the
// simulator and the measurement system — wire codec, LPM trie, forwarding
// decisions, full probe round trips, and a complete reverse traceroute.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/revtr.h"
#include "eval/harness.h"
#include "net/wire.h"

using namespace revtr;

namespace {

topology::TopologyConfig micro_config() {
  topology::TopologyConfig config;
  config.seed = 7;
  config.num_ases = 300;
  config.num_vps = 16;
  config.num_probe_hosts = 100;
  return config;
}

eval::Lab& shared_lab() {
  static eval::Lab lab(micro_config());
  return lab;
}

void BM_PacketEncode(benchmark::State& state) {
  net::Packet packet = net::make_echo_request(net::Ipv4Addr(1, 2, 3, 4),
                                              net::Ipv4Addr(5, 6, 7, 8), 1, 1);
  packet.rr = net::RecordRouteOption{};
  for (int i = 0; i < 5; ++i) {
    packet.rr->stamp(net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::encode_packet(packet));
  }
}
BENCHMARK(BM_PacketEncode);

void BM_PacketDecode(benchmark::State& state) {
  net::Packet packet = net::make_echo_request(net::Ipv4Addr(1, 2, 3, 4),
                                              net::Ipv4Addr(5, 6, 7, 8), 1, 1);
  packet.rr = net::RecordRouteOption{};
  for (int i = 0; i < 5; ++i) {
    packet.rr->stamp(net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(i)));
  }
  const auto bytes = net::encode_packet(packet);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decode_packet(bytes));
  }
}
BENCHMARK(BM_PacketDecode);

void BM_PrefixTrieLookup(benchmark::State& state) {
  auto& lab = shared_lab();
  util::Rng rng(11);
  std::vector<net::Ipv4Addr> addrs;
  for (int i = 0; i < 1024; ++i) {
    addrs.push_back(
        lab.topo
            .host(static_cast<topology::HostId>(
                rng.below(lab.topo.num_hosts())))
            .addr);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lab.topo.prefix_of(addrs[i++ & 1023]));
  }
}
BENCHMARK(BM_PrefixTrieLookup);

void BM_ForwardingDecision(benchmark::State& state) {
  auto& lab = shared_lab();
  routing::PacketContext ctx;
  const auto vp = lab.topo.vantage_points()[0];
  const auto dest = lab.topo.probe_hosts()[0];
  ctx.src = lab.topo.host(vp).addr;
  ctx.dst = lab.topo.host(dest).addr;
  ctx.flow_key = 42;
  const auto origin = lab.topo.host(vp).attachment;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lab.plane.decide(origin, ctx));
  }
}
BENCHMARK(BM_ForwardingDecision);

void BM_SimulatedPing(benchmark::State& state) {
  auto& lab = shared_lab();
  const auto vp = lab.topo.vantage_points()[0];
  const auto dest = lab.topo.probe_hosts()[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lab.prober.ping(vp, lab.topo.host(dest).addr));
  }
}
BENCHMARK(BM_SimulatedPing);

void BM_SimulatedRrPing(benchmark::State& state) {
  auto& lab = shared_lab();
  const auto vp = lab.topo.vantage_points()[0];
  const auto dest = lab.topo.probe_hosts()[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lab.prober.rr_ping(vp, lab.topo.host(dest).addr));
  }
}
BENCHMARK(BM_SimulatedRrPing);

void BM_SimulatedTraceroute(benchmark::State& state) {
  auto& lab = shared_lab();
  const auto vp = lab.topo.vantage_points()[0];
  const auto dest = lab.topo.probe_hosts()[0];
  std::uint64_t packets = 0;
  for (auto _ : state) {
    const auto trace = lab.prober.traceroute(vp, lab.topo.host(dest).addr);
    packets += trace.packets;
    benchmark::DoNotOptimize(trace);
  }
  // One item per TTL probe, so items_per_second prices a single probe.
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_SimulatedTraceroute);

void BM_ReverseTraceroute(benchmark::State& state) {
  static eval::Lab lab(micro_config());
  static bool bootstrapped = false;
  const auto source = lab.topo.vantage_points()[0];
  if (!bootstrapped) {
    lab.bootstrap_source(source, 40);
    bootstrapped = true;
  }
  const auto probes = lab.topo.probe_hosts();
  util::SimClock clock;
  std::size_t i = 0;
  for (auto _ : state) {
    lab.engine.clear_caches();
    benchmark::DoNotOptimize(
        lab.engine.measure(probes[i++ % probes.size()], source, clock));
  }
}
BENCHMARK(BM_ReverseTraceroute);

void BM_BgpColumnCompute(benchmark::State& state) {
  auto& lab = shared_lab();
  std::uint32_t epoch = 100;
  for (auto _ : state) {
    state.PauseTiming();
    lab.bgp.set_epoch(++epoch, 0.001);  // Invalidate the cache.
    state.ResumeTiming();
    benchmark::DoNotOptimize(&lab.bgp.column(3));
  }
  state.SetLabel(std::to_string(lab.topo.num_ases()) + " ASes");
}
BENCHMARK(BM_BgpColumnCompute);

// Console output unchanged; every finished run is additionally captured so
// main() can emit the BENCH_micro_net.json artifact run_all.sh and the
// check.sh bench smoke validate.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& run : reports) {
      if (run.error_occurred) continue;
      util::Json row = util::Json::object();
      row["name"] = run.benchmark_name();
      row["iterations"] = static_cast<std::int64_t>(run.iterations);
      row["real_time"] = run.GetAdjustedRealTime();
      row["cpu_time"] = run.GetAdjustedCPUTime();
      row["time_unit"] = benchmark::GetTimeUnitString(run.time_unit);
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  util::Json take_rows() { return std::move(rows_); }
  std::size_t count() const { return rows_.as_array().size(); }

 private:
  util::Json rows_ = util::Json::array();
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  util::Json out = util::Json::object();
  out["benchmark_count"] = static_cast<std::int64_t>(reporter.count());
  out["benchmarks"] = reporter.take_rows();
  out["peak_rss_bytes"] = static_cast<double>(bench::peak_rss_bytes());
  bench::write_bench_artifact("micro_net", out);
  benchmark::Shutdown();
  return 0;
}
