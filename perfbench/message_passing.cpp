// Workload message_passing: each operation runs the four Theorem-5
// protocols of core/protocols.h (KhopSize, Centrality, LocalMax,
// Voronoi) to quiescence on one serial sim::Engine over a Window network
// of about 4·10^4 nodes, deployed once per run. The centralized
// extraction of the same network runs once, untimed, as the cross-path
// reference and for the skeleton checks.
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "checks.h"
#include "core/pipeline.h"
#include "core/protocols.h"
#include "geometry/shapes.h"
#include "network.h"
#include "sim/engine.h"

namespace perfbench {

namespace {

using namespace skelex;

constexpr int kNodes = 40000;
constexpr double kAvgDeg = 8.0;

struct ProtocolRun {
  double ms[4] = {};  // khop centrality localmax voronoi
  FloodStats floods;
  sim::RunStats voronoi_stats;
  core::IndexData index;
  std::vector<int> critical;
  core::VoronoiResult voronoi;
};

// The four protocols in Theorem 5's order, as run_distributed_stages
// sequences them.
ProtocolRun run_protocols(const net::Graph& g, const core::Params& p,
                          sim::Engine& engine, Spans& spans) {
  ProtocolRun out;
  core::KhopSizeProtocol khop(g.n(), p.k);
  out.ms[0] = spans.time("sim.khop", [&] { out.floods.khop = engine.run(khop); });
  out.index.khop_size = khop.sizes();
  core::CentralityProtocol cent(out.index.khop_size, p.l, p.centrality_includes_self);
  out.ms[1] = spans.time("sim.centrality",
                         [&] { out.floods.centrality = engine.run(cent); });
  out.index.centrality = cent.centrality();
  out.index.index.resize(static_cast<std::size_t>(g.n()));
  for (std::size_t v = 0; v < out.index.index.size(); ++v) {
    out.index.index[v] = 0.5 * (static_cast<double>(out.index.khop_size[v]) +
                                out.index.centrality[v]);
  }
  core::LocalMaxProtocol lmax(out.index.index, p.effective_local_max_radius());
  out.ms[2] = spans.time("sim.localmax",
                         [&] { out.floods.localmax = engine.run(lmax); });
  const std::vector<char> crit = lmax.critical();
  for (int v = 0; v < g.n(); ++v) {
    if (crit[static_cast<std::size_t>(v)]) out.critical.push_back(v);
  }
  core::VoronoiProtocol vor(g.n(), out.critical, p.alpha);
  out.ms[3] = spans.time("sim.voronoi", [&] { out.voronoi_stats = engine.run(vor); });
  out.voronoi = vor.result();
  return out;
}

bool same_voronoi(const core::VoronoiResult& a, const core::VoronoiResult& b) {
  return a.sites == b.sites && a.site_of == b.site_of && a.dist == b.dist &&
         a.parent == b.parent && a.site2_of == b.site2_of && a.dist2 == b.dist2 &&
         a.via2 == b.via2 && a.is_segment == b.is_segment &&
         a.is_voronoi_node == b.is_voronoi_node;
}

}  // namespace

bool run_message_passing(const Args& args, Report& report) {
  const geom::Region region = geom::shapes::window();
  const core::Params params;
  Spans spans(args.trace);
  Checks checks;
  const std::string input = "window n~" + std::to_string(kNodes) + " seed " +
                            std::to_string(args.seed);

  deploy::ScenarioSpec spec;
  spec.target_nodes = kNodes;
  spec.target_avg_deg = kAvgDeg;
  spec.seed = mix_seed(args.seed, 0);
  spec.counter_sampling = true;
  SetupTimes st;
  const Network network = build_network(region, spec, spans, st);
  const net::Graph& g = network.graph;
  sim::Engine engine(g);
  engine.set_threads(1);
  const double setup_s = ms_between(process_start(), Clock::now()) / 1000.0;

  std::vector<double> op_ms, proto_ms[4];
  double measured_ms = 0, unattributed_ms = 0, peak_mb = 0;
  long long receptions = 0;
  std::vector<ProtocolRun> runs;
  for (int op = 0; op == 0 || measured_ms < args.seconds * 1000.0; ++op) {
    ++report.attempted;
    try {
      const Clock::time_point t0 = Clock::now();
      ProtocolRun run = run_protocols(g, params, engine, spans);
      const double ms = ms_between(t0, Clock::now());
      measured_ms += ms;
      op_ms.push_back(ms);
      std::fprintf(stderr, "op %d: protocols %.1f ms (khop %.1f, centrality %.1f)\n", op, ms,
                   run.ms[0], run.ms[1]);
      if (op == 0) peak_mb = peak_rss_mb();
      double attributed = 0;
      for (int i = 0; i < 4; ++i) {
        proto_ms[i].push_back(run.ms[i]);
        attributed += run.ms[i];
      }
      unattributed_ms += ms - attributed;
      // Keep the first run's outputs whole; later runs keep only what
      // the checks compare, so memory does not grow with run length.
      if (!runs.empty()) {
        run.voronoi = {};
        run.index = {};
      }
      runs.push_back(std::move(run));
    } catch (const std::exception& e) {
      checks.expect(false, "operation completes", input + " op " + std::to_string(op),
                    e.what());
    }
  }

  // --- checks (untimed) ---
  const RefGraph ref(g);
  check_links(checks, input, g, network.range);
  const BallCounts balls = ball_counts(
      ref, std::max({params.k, params.l, params.effective_local_max_radius()}));
  const RefStage12 ref12 = ref_stage12(ref, balls, params);
  const core::SkeletonResult central = core::extract_skeleton(g, params);
  // The skeleton is the reference's, not an output of the protocols, so
  // a cycle-rank fault on it fails no operation; it is recorded.
  KnownFaults faults;
  if (!check_skeleton(checks, input, ref, central.skeleton,
                      static_cast<int>(region.hole_count()))) {
    faults.record("centralized skeleton cycle rank != holes", input);
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ProtocolRun& run = runs[i];
    const std::string op_input = input + " op " + std::to_string(i);
    check_floods(checks, op_input, ref, balls, params, run.floods);
    checks.expect(run.critical == central.critical_nodes,
                  "distributed critical nodes == centralized", op_input);
    if (i == 0) {
      check_stage12(checks, op_input, ref, ref12, run.index, run.critical, run.voronoi);
      checks.expect(run.index.khop_size == central.index().khop_size &&
                        run.index.centrality == central.index().centrality &&
                        run.index.index == central.index().index,
                    "distributed index == centralized", op_input);
      checks.expect(same_voronoi(run.voronoi, central.voronoi()),
                    "distributed Voronoi == centralized", op_input);
    }
    receptions += run.floods.khop.receptions + run.floods.centrality.receptions +
                  run.floods.localmax.receptions + run.voronoi_stats.receptions;
  }

  if (!args.trace) {
    const geom::ReferenceMedialAxis axis(region);
    report.set("op_ms", median(op_ms), "ms");
    report.set("setup_s", setup_s, "s");
    report.set("peak_rss_mb", peak_mb, "MB");
    report.set("medial_dev_r", medial_dev_r(axis, g, central.skeleton, network.range),
               "R");
    return checks.ok();
  }
  const ProtocolRun& first = runs.front();
  const sim::RunStats total = first.floods.khop + first.floods.centrality +
                              first.floods.localmax + first.voronoi_stats;
  report.set("deploy.positions_ms", st.positions_ms, "ms");
  report.set("deploy.calibrate_ms", st.calibrate_ms, "ms");
  report.set("net.links_ms", st.links_ms, "ms");
  report.set("net.lcc_ms", st.lcc_ms, "ms");
  report.set("net.csr_ms", st.csr_ms, "ms");
  report.set("sim.khop_ms", median(proto_ms[0]), "ms");
  report.set("sim.centrality_ms", median(proto_ms[1]), "ms");
  report.set("sim.localmax_ms", median(proto_ms[2]), "ms");
  report.set("sim.voronoi_ms", median(proto_ms[3]), "ms");
  report.set("sim.receptions_per_s",
             static_cast<double>(receptions) / (measured_ms / 1000.0), "1/s");
  report.set("sim.transmissions", static_cast<double>(total.transmissions), "count");
  report.set("sim.receptions", static_cast<double>(total.receptions), "count");
  report.set("sim.rounds", total.rounds, "count");
  report.set("faults.seeded", static_cast<double>(faults.count()), "count");
  report.set("unattributed_ms", unattributed_ms, "ms");
  report.set("trace_overhead_ms",
             static_cast<double>(spans.count()) * Spans::cost_per_span_ms(), "ms");
  std::filesystem::create_directories(args.out_dir);
  write_chrome_trace(args.out_dir + "/trace_message_passing.json", {&spans});
  return checks.ok();
}

}  // namespace perfbench
