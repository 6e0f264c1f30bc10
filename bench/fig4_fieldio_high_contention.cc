// Reproduces Fig. 4: Field I/O benchmark, global timing bandwidth, HIGH
// contention (a single forecast index Key-Value shared by all processes),
// access patterns A and B, all three modes, 1-8 server nodes.
//
// Paper observations to match (Section 6.3.1):
//   * bandwidths are the same order of magnitude as IOR but generally lower;
//   * all modes keep scaling with server nodes even under high contention;
//   * "no index" scales best: ~2.5 GiB/s write, ~3.75 GiB/s read per engine
//     in pattern A (like IOR);
//   * indexed modes scale at ~3 GiB/s aggregated per engine until ~4 server
//     nodes, then bend to ~0.5 GiB/s aggregated per engine;
//   * pattern B's write+read aggregated bandwidth is comparable to pattern
//     A's (no degradation from mixing readers with writers);
//   * container use makes no substantial difference at high contention.
#include "bench_util.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using namespace nws;
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("reps", "2", "repetitions per configuration");
  cli.add_flag("servers", "1,2,4,8", "server node counts");
  cli.add_flag("ops", "30", "field I/O operations per process (paper: 2000)");
  cli.add_flag("ppn", "32", "processes per client node");
  if (!cli.parse(argc, argv)) return 0;
  bench::resolve_jobs(cli);
  bench::BenchObs obs(cli, "fig4_fieldio_high_contention");

  const bool quick = cli.get_bool("quick");
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  std::vector<std::size_t> servers;
  for (const auto v : cli.get_int_list("servers")) servers.push_back(static_cast<std::size_t>(v));
  if (quick) servers = {1, 2};

  Table table({"pattern", "mode", "server nodes", "write (GiB/s)", "read (GiB/s)",
               "aggregated/engine"});

  for (const char pattern : {'A', 'B'}) {
    for (const fdb::Mode mode : {fdb::Mode::full, fdb::Mode::no_containers, fdb::Mode::no_index}) {
      for (const std::size_t s : servers) {
        const std::size_t clients = 2 * s;  // the best-performing ratio (Fig. 3)
        bench::FieldBenchParams params;
        params.mode = mode;
        params.shared_forecast_index = true;  // high contention
        params.ops_per_process = quick ? 10 : static_cast<std::uint32_t>(cli.get_int("ops"));
        params.processes_per_node = static_cast<std::size_t>(cli.get_int("ppn"));
        const bench::RepetitionSummary summary =
            bench::repeat(reps, seed + s * 17 + static_cast<std::uint64_t>(mode), [&](std::uint64_t rs) {
              return bench::run_field_once(bench::testbed_config(s, clients), params, pattern, rs);
            });
        obs.merge_metrics(summary.metrics);
        if (summary.write.empty() && summary.read.empty()) {
          table.add_row({std::string(1, pattern), fdb::mode_name(mode), std::to_string(s), "failed",
                         summary.failure});
          continue;
        }
        const double w = summary.write.empty() ? 0.0 : summary.write.mean();
        const double r = summary.read.empty() ? 0.0 : summary.read.mean();
        table.add_row({std::string(1, pattern), fdb::mode_name(mode), std::to_string(s), strf("%.1f", w),
                       strf("%.1f", r), strf("%.2f", (w + r) / static_cast<double>(2 * s))});
      }
    }
  }

  std::cout << "paper: no-index ~2.5w/3.75r per engine; indexed modes bend past 4 server nodes;\n"
               "       pattern B aggregated ~= pattern A aggregated\n";
  bench::emit(table, "Fig. 4: Field I/O, high contention on the shared index KV", cli, obs);
  return obs.finish();
}
