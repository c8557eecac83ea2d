// Workload window_large: each operation deploys a fresh Window network of
// about 10^5 nodes at average degree 8 (counter sampling) and runs
// core::extract_skeleton on it. In a traced run the eight stage commands
// of core/stage_cmd.h are also called one by one on the same network, so
// each stage gets its own time and core.driver_ms is what the driver adds
// around them.
//
// A round is two operations: the seeded ~10^5-node extraction, and a
// witness — extract_skeleton on one fixed flower scenario whose skeleton
// keeps a spurious cycle (rank 1, no holes; see CHANGES.md). The witness
// fails its cycle-rank check in every round, so `failed` is exactly half
// of `attempted`. A round whose seeded network hits the same fault is
// left out of both counts (KnownFaults).
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "checks.h"
#include "core/pipeline.h"
#include "core/stage_cmd.h"
#include "deploy/scenario.h"
#include "geometry/shapes.h"
#include "network.h"

namespace perfbench {

namespace {

using namespace skelex;

constexpr int kNodes = 100000;
constexpr double kAvgDeg = 8.0;

// The witness scenario: flower at the paper's size and degree.
constexpr int kWitnessNodes = 2422;
constexpr double kWitnessAvgDeg = 5.75;
constexpr std::uint64_t kWitnessSeed = 13032375;

struct StagedRun {
  double ms[8] = {};  // index identify voronoi assess coarse cleanup prune byproducts
  long long edge_scans = 0;
  long long bytes = 0;
  int sites = 0;
  int coarse_nodes = 0;
  core::SkeletonGraph skeleton;
};

constexpr const char* kStageNames[8] = {
    "core.index",  "core.identify", "core.voronoi", "core.assess",
    "core.coarse", "core.cleanup",  "core.prune",   "core.byproducts"};

// The eight stage commands in extract_skeleton's order, uncached.
StagedRun run_stages(const net::Graph& g, const core::Params& p, Spans& spans) {
  StagedRun out;
  const net::CsrGraph& csr = g.csr();
  net::Workspace ws;
  ws.reserve(g.n());
  core::IndexCmd index_cmd;
  index_cmd.params = p.index_params();
  core::IndexData index;
  out.ms[0] = spans.time(kStageNames[0], [&] { index = index_cmd.run(csr, ws); });
  core::IdentifyCmd identify_cmd;
  identify_cmd.params = p.identify_params();
  identify_cmd.index = &index;
  std::vector<int> critical;
  out.ms[1] = spans.time(kStageNames[1], [&] { critical = identify_cmd.run(csr, ws); });
  core::VoronoiCmd voronoi_cmd;
  voronoi_cmd.params = p.voronoi_params();
  voronoi_cmd.sites = &critical;
  core::VoronoiResult voronoi;
  out.ms[2] = spans.time(kStageNames[2], [&] { voronoi = voronoi_cmd.run(csr, ws); });
  core::AssessCmd assess_cmd;
  assess_cmd.params = p.voronoi_params();
  assess_cmd.index = &index;
  assess_cmd.critical = &critical;
  assess_cmd.voronoi = &voronoi;
  core::AssessOutput assess;
  out.ms[3] = spans.time(kStageNames[3], [&] { assess = assess_cmd.run(csr, ws); });
  const core::VoronoiResult& cells = assess.patched ? *assess.voronoi : voronoi;
  out.edge_scans = ws.edge_scans;
  out.bytes = ws.bytes_touched;
  out.sites = static_cast<int>(cells.sites.size());
  core::CoarseCmd coarse_cmd;
  coarse_cmd.params = p.coarse_params();
  coarse_cmd.g = &g;
  coarse_cmd.index = &index;
  coarse_cmd.voronoi = &cells;
  core::SkeletonGraph coarse;
  out.ms[4] = spans.time(kStageNames[4], [&] { coarse = coarse_cmd.run(); });
  out.coarse_nodes = coarse.node_count();
  core::CleanupCmd cleanup_cmd;
  cleanup_cmd.params = p.cleanup_params();
  cleanup_cmd.g = &g;
  cleanup_cmd.index = &index;
  cleanup_cmd.voronoi = &cells;
  cleanup_cmd.coarse = &coarse;
  core::CleanupResult cleaned;
  out.ms[5] = spans.time(kStageNames[5], [&] { cleaned = cleanup_cmd.run(); });
  core::PruneCmd prune_cmd;
  prune_cmd.params = p.prune_params();
  prune_cmd.skeleton = &cleaned.graph;
  prune_cmd.comps = &assess.comps;
  core::PruneOutput pruned;
  out.ms[6] = spans.time(kStageNames[6], [&] { pruned = prune_cmd.run(); });
  core::ByproductsCmd byproducts_cmd;
  byproducts_cmd.g = &g;
  byproducts_cmd.index = &index;
  byproducts_cmd.voronoi = &cells;
  byproducts_cmd.skeleton = &pruned.skeleton;
  out.ms[7] = spans.time(kStageNames[7], [&] { byproducts_cmd.run(); });
  out.skeleton = std::move(pruned.skeleton);
  return out;
}

}  // namespace

bool run_window_large(const Args& args, Report& report) {
  const geom::Region region = geom::shapes::window();
  const int holes = static_cast<int>(region.hole_count());
  const core::Params params;
  Spans spans(args.trace);
  Checks checks;
  KnownFaults faults;

  std::vector<double> extract_ms, medial, positions, calibrate, links, lcc, csr;
  std::vector<double> stage_ms[8], driver_ms, sites, coarse_nodes, skeleton_nodes,
      edge_scans, bytes;
  double setup_s = 0, measured_ms = 0, unattributed_ms = 0, peak_mb = 0;
  std::unique_ptr<geom::ReferenceMedialAxis> axis;
  std::unique_ptr<deploy::Scenario> witness;
  const std::string witness_input = "witness flower n~" + std::to_string(kWitnessNodes) +
                                    " seed " + std::to_string(kWitnessSeed);

  int round = 0;
  for (; round == 0 || measured_ms < args.seconds * 1000.0; ++round) {
    const std::string input = "window n~" + std::to_string(kNodes) + " seed " +
                              std::to_string(args.seed) + " op " + std::to_string(round);
    bool seeded_ok = true, witness_ok = true;
    try {
      deploy::ScenarioSpec spec;
      spec.target_nodes = kNodes;
      spec.target_avg_deg = kAvgDeg;
      spec.seed = mix_seed(args.seed, static_cast<std::uint64_t>(round));
      spec.counter_sampling = true;
      const Clock::time_point op_start = Clock::now();
      SetupTimes st;
      const Network network = build_network(region, spec, spans, st);
      if (round == 0) setup_s = ms_between(process_start(), Clock::now()) / 1000.0;
      const net::Graph& g = network.graph;

      core::SkeletonResult result;
      const double ms = spans.time("core.extract_skeleton",
                                   [&] { result = core::extract_skeleton(g, params); });
      StagedRun staged;
      double staged_total = 0;
      if (args.trace) {
        staged = run_stages(g, params, spans);
        for (double s : staged.ms) staged_total += s;
      }
      const double op_ms = ms_between(op_start, Clock::now());
      std::fprintf(stderr, "op %d: n=%d setup %.1f ms, extract_skeleton %.1f ms\n", round,
                   g.n(), st.total_ms(), ms);
      if (round == 0) peak_mb = peak_rss_mb();
      measured_ms += op_ms;
      unattributed_ms += op_ms - st.total_ms() - ms - staged_total;

      extract_ms.push_back(ms);
      positions.push_back(st.positions_ms);
      calibrate.push_back(st.calibrate_ms);
      links.push_back(st.links_ms);
      lcc.push_back(st.lcc_ms);
      csr.push_back(st.csr_ms);
      if (args.trace) {
        for (int s = 0; s < 8; ++s) stage_ms[s].push_back(staged.ms[s]);
        driver_ms.push_back(ms - staged_total);
        sites.push_back(staged.sites);
        coarse_nodes.push_back(staged.coarse_nodes);
        skeleton_nodes.push_back(staged.skeleton.node_count());
        edge_scans.push_back(static_cast<double>(staged.edge_scans));
        bytes.push_back(static_cast<double>(staged.bytes));
      }

      // --- checks (untimed) ---
      const RefGraph ref(g);
      check_links(checks, input, g, network.range);
      const BallCounts balls = ball_counts(ref, std::max(params.k, params.l));
      const RefStage12 ref12 = ref_stage12(ref, balls, params);
      check_stage12(checks, input, ref, ref12, result.index(), result.critical_nodes,
                    result.voronoi());
      seeded_ok = check_skeleton(checks, input, ref, result.skeleton, holes);
      if (args.trace) {
        checks.expect(same_skeleton(staged.skeleton, result.skeleton),
                      "stage commands one by one == extract_skeleton", input);
      }
      if (!axis) axis = std::make_unique<geom::ReferenceMedialAxis>(region);
      medial.push_back(medial_dev_r(*axis, g, result.skeleton, network.range));
    } catch (const std::exception& e) {
      checks.expect(false, "operation completes", input, e.what());
    }

    // The witness operation, after the seeded one so that setup_s stays
    // the seeded network's cold set-up.
    try {
      const geom::Region flower = geom::shapes::by_name("flower");
      if (!witness) {
        deploy::ScenarioSpec spec;
        spec.target_nodes = kWitnessNodes;
        spec.target_avg_deg = kWitnessAvgDeg;
        spec.seed = kWitnessSeed;
        witness = std::make_unique<deploy::Scenario>(deploy::make_udg_scenario(flower, spec));
      }
      const core::SkeletonResult r = core::extract_skeleton(witness->graph, params);
      const RefGraph ref(witness->graph);
      if (round == 0) {
        check_links(checks, witness_input, witness->graph, witness->range);
        const BallCounts balls = ball_counts(ref, std::max(params.k, params.l));
        check_stage12(checks, witness_input, ref, ref_stage12(ref, balls, params), r.index(),
                      r.critical_nodes, r.voronoi());
      }
      witness_ok = check_skeleton(checks, witness_input, ref, r.skeleton,
                                  static_cast<int>(flower.hole_count()));
    } catch (const std::exception& e) {
      checks.expect(false, "operation completes", witness_input, e.what());
    }

    if (!seeded_ok) {
      faults.record("skeleton cycle rank != holes (round left out)", input);
      continue;
    }
    report.attempted += 2;
    report.failed += (witness_ok ? 0 : 1);
  }
  faults.check_rare(checks, round, "window seed " + std::to_string(args.seed));

  if (!args.trace) {
    report.set("op_ms", median(extract_ms), "ms");
    report.set("setup_s", setup_s, "s");
    report.set("peak_rss_mb", peak_mb, "MB");
    report.set("medial_dev_r", median(medial), "R");
    return checks.ok();
  }
  report.set("deploy.positions_ms", median(positions), "ms");
  report.set("deploy.calibrate_ms", median(calibrate), "ms");
  report.set("net.links_ms", median(links), "ms");
  report.set("net.lcc_ms", median(lcc), "ms");
  report.set("net.csr_ms", median(csr), "ms");
  for (int s = 0; s < 8; ++s) {
    report.set(std::string(kStageNames[s]) + "_ms", median(stage_ms[s]), "ms");
  }
  report.set("core.driver_ms", median(driver_ms), "ms");
  report.set("core.sites", median(sites), "count");
  report.set("core.coarse_nodes", median(coarse_nodes), "count");
  report.set("core.skeleton_nodes", median(skeleton_nodes), "count");
  report.set("core.edge_scans", median(edge_scans), "count");
  report.set("core.bytes", median(bytes), "B");
  report.set("faults.seeded", static_cast<double>(faults.count()), "count");
  report.set("unattributed_ms", unattributed_ms, "ms");
  report.set("trace_overhead_ms",
             static_cast<double>(spans.count()) * Spans::cost_per_span_ms(), "ms");
  std::filesystem::create_directories(args.out_dir);
  write_chrome_trace(args.out_dir + "/trace_window_large.json", {&spans});
  return checks.ok();
}

}  // namespace perfbench
