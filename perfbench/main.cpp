// perfbench driver:
//
//   perfbench --workload window_large|message_passing|serving --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//   perfbench --self-test
//
// Prints one JSON object as the last line of stdout: correct, attempted,
// failed and metrics. An untraced run reports the end-to-end metrics,
// a traced run the per-layer ones (every name on every workload; a layer
// a workload does not exercise reads 0). Failed checks and failed
// operations are described on stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using perfbench::Args;
using perfbench::Report;

struct Metric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.
constexpr Metric kPerLayer[] = {
    {"deploy.positions_ms", "ms"}, {"deploy.calibrate_ms", "ms"},
    {"net.links_ms", "ms"},        {"net.lcc_ms", "ms"},
    {"net.csr_ms", "ms"},          {"core.index_ms", "ms"},
    {"core.identify_ms", "ms"},    {"core.voronoi_ms", "ms"},
    {"core.assess_ms", "ms"},      {"core.coarse_ms", "ms"},
    {"core.cleanup_ms", "ms"},     {"core.prune_ms", "ms"},
    {"core.byproducts_ms", "ms"},  {"core.driver_ms", "ms"},
    {"core.sites", "count"},       {"core.coarse_nodes", "count"},
    {"core.skeleton_nodes", "count"}, {"core.edge_scans", "count"},
    {"core.bytes", "B"},           {"sim.khop_ms", "ms"},
    {"sim.centrality_ms", "ms"},   {"sim.localmax_ms", "ms"},
    {"sim.voronoi_ms", "ms"},      {"sim.receptions_per_s", "1/s"},
    {"sim.transmissions", "count"}, {"sim.receptions", "count"},
    {"sim.rounds", "count"},       {"svc.scenario_ms", "ms"},
    {"svc.handle_cold_ms", "ms"},  {"svc.handle_warm_ms", "ms"},
    {"svc.handle_tail_ms", "ms"},  {"svc.handle_session_ms", "ms"},
    {"svc.wire_ms", "ms"},         {"svc.cold_p50_ms", "ms"},
    {"svc.warm_p50_ms", "ms"},     {"svc.tail_p50_ms", "ms"},
    {"svc.session_p50_ms", "ms"},  {"svc.p99_ms", "ms"},
    {"svc.rps", "1/s"},            {"memo.hits", "count"},
    {"memo.misses", "count"},      {"memo.hit_ratio", "ratio"},
    {"memo.evictions", "count"},   {"maintain.repairs_local", "count"},
    {"maintain.repairs_regional", "count"}, {"maintain.repairs_full", "count"},
    {"maintain.escalations", "count"}, {"faults.seeded", "count"},
    {"unattributed_ms", "ms"},
    {"trace_overhead_ms", "ms"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] | --self-test\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return perfbench::run_self_test();
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--out-dir") {
      args.out_dir = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (args.seconds <= 0) usage("--seconds must be positive");

  Report report;
  bool correct = false;
  try {
    if (args.workload == "window_large") {
      correct = perfbench::run_window_large(args, report);
    } else if (args.workload == "message_passing") {
      correct = perfbench::run_message_passing(args, report);
    } else if (args.workload == "serving") {
      correct = perfbench::run_serving(args, report);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (args.trace) {
    Report full;
    full.attempted = report.attempted;
    full.failed = report.failed;
    for (const Metric& m : kPerLayer) {
      full.set(m.name, report.value_or(m.name, 0.0), m.unit);
    }
    full.print(correct);
  } else {
    report.print(correct);
  }
  return 0;
}
