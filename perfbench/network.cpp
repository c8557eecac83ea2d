#include "network.h"

#include <utility>
#include <vector>

#include "net/csr.h"
#include "radio/radio_model.h"

namespace perfbench {

using namespace skelex;

Network build_network(const geom::Region& region,
                      const deploy::ScenarioSpec& spec, Spans& spans,
                      SetupTimes& times) {
  Network out;
  deploy::Rng rng(spec.seed);
  std::vector<geom::Vec2> pts;
  times.positions_ms = spans.time("deploy.positions", [&] {
    pts = deploy::scenario_positions(region, spec, rng);
  });
  times.calibrate_ms = spans.time("deploy.calibrate", [&] {
    out.range = deploy::calibrate_range(pts, spec.target_avg_deg);
  });
  net::Graph full;
  times.links_ms = spans.time("net.links", [&] {
    full = net::build_graph(std::move(pts), radio::UnitDiskModel(out.range), rng);
  });
  times.lcc_ms = spans.time("net.lcc", [&] {
    std::vector<int> orig;
    out.graph = net::largest_component_subgraph(full, orig);
  });
  times.csr_ms = spans.time("net.csr", [&] { out.graph.csr(); });
  return out;
}

double medial_dev_r(const geom::ReferenceMedialAxis& axis,
                    const net::Graph& g, const core::SkeletonGraph& sk,
                    double range) {
  double sum = 0;
  int count = 0;
  for (int v = 0; v < sk.capacity(); ++v) {
    if (!sk.has_node(v)) continue;
    sum += axis.distance_to_axis(g.position(v));
    ++count;
  }
  return count > 0 ? sum / count / range : 0;
}

}  // namespace perfbench
