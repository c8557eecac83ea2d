// perfbench/network.h
//
// Network set-up as the program's public layers do it, one timed call
// per layer: node positions (deploy), range calibration (deploy), link
// build (radio/net), largest component (net) and the CSR view (net).
// The sequence is make_udg_scenario's, split so each layer is timed.
#pragma once
#include "bench.h"
#include "core/skeleton_graph.h"
#include "deploy/scenario.h"
#include "geometry/medial_axis_ref.h"
#include "net/graph.h"

namespace perfbench {

struct Network {
  skelex::net::Graph graph;  // largest component, CSR built
  double range = 0;          // calibrated unit-disk range R
};

struct SetupTimes {
  double positions_ms = 0, calibrate_ms = 0, links_ms = 0, lcc_ms = 0,
         csr_ms = 0;
  double total_ms() const {
    return positions_ms + calibrate_ms + links_ms + lcc_ms + csr_ms;
  }
};

Network build_network(const skelex::geom::Region& region,
                      const skelex::deploy::ScenarioSpec& spec, Spans& spans,
                      SetupTimes& times);

// Mean distance of skeleton nodes from the reference medial axis, in
// units of the radio range.
double medial_dev_r(const skelex::geom::ReferenceMedialAxis& axis,
                    const skelex::net::Graph& g,
                    const skelex::core::SkeletonGraph& sk, double range);

}  // namespace perfbench
