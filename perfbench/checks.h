// perfbench/checks.h
//
// Output checks computed apart from the program. Each check recomputes
// what a program output must be from the network's geometry or with the
// benchmark's own BFS, or tests a property the method guarantees; none
// compares against a stored copy of an earlier output.
//
//   check_links      — links against a geometric recomputation of the
//                      unit-disk graph (pairs within 1e-9·R of the range
//                      are excused: range calibration bisects R onto a
//                      pair distance, so exactly one pair sits there).
//   check_stage12    — k-hop sizes, l-centrality, index and critical
//                      nodes against the benchmark's BFS; Voronoi owner
//                      distances against its multi-source BFS, and every
//                      parent chain walks network links to its own site.
//   check_skeleton   — skeleton nodes are network nodes, skeleton edges
//                      are network links, skeleton components equal
//                      network components, cycle rank equals the holes.
//   check_extract_reply — a daemon reply names the same result
//                      (fingerprint, size, cycle rank) as an in-process
//                      extraction of the same scenario.
//   check_floods     — Theorem-5 flood counts: a TTL-t flood from every
//                      node transmits exactly Σ_v |B_{t-1}(v)| times and
//                      each transmission reaches every neighbour of its
//                      sender.
#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "core/config.h"
#include "core/index.h"
#include "core/skeleton_graph.h"
#include "core/voronoi.h"
#include "net/graph.h"
#include "sim/stats.h"

namespace perfbench {

namespace core = skelex::core;
namespace net = skelex::net;
namespace sim = skelex::sim;

// The benchmark's own copy of a network's adjacency (sorted rows), so
// no check walks the program's CSR kernels.
struct RefGraph {
  explicit RefGraph(const net::Graph& g);
  int n() const { return static_cast<int>(nbr.size()); }
  bool linked(int u, int v) const;
  std::vector<std::vector<int>> nbr;
};

// Per node v, |B_d(v)| (v included) for d = 0..depth, row-major.
struct BallCounts {
  int depth = 0;
  std::vector<int> count;  // n * (depth + 1)
  int at(int v, int d) const {
    return count[static_cast<std::size_t>(v) * (depth + 1) + d];
  }
};
BallCounts ball_counts(const RefGraph& g, int depth);

// The stage-1/2 results the benchmark recomputes itself.
struct RefStage12 {
  std::vector<int> khop;
  std::vector<double> centrality;
  std::vector<double> index;
  std::vector<int> critical;
};
RefStage12 ref_stage12(const RefGraph& g, const BallCounts& balls,
                       const core::Params& params);

void check_links(Checks& c, const std::string& input, const net::Graph& g,
                 double range);
void check_stage12(Checks& c, const std::string& input, const RefGraph& g,
                   const RefStage12& ref, const core::IndexData& index,
                   const std::vector<int>& critical,
                   const core::VoronoiResult& voronoi);
// Node, edge and component failures go to `c`. The cycle rank must
// equal `holes` (holes < 0 skips this): returns false, and names the
// input on stderr, when it does not. The caller counts that as a failed
// operation, or leaves a seeded round out (see KnownFaults in bench.h).
// `active` (empty: every node) marks live nodes.
bool check_skeleton(Checks& c, const std::string& input, const RefGraph& g,
                    const core::SkeletonGraph& sk, int holes,
                    const std::vector<char>& active = {});

// Same node set and same edge set.
bool same_skeleton(const core::SkeletonGraph& a, const core::SkeletonGraph& b);

// Flat JSON field lookup for the daemon's replies (top-level keys; the
// value as text, quotes stripped).
std::string json_field(const std::string& json, const std::string& key);
std::string hex64(std::uint64_t v);

// An extract reply against the in-process extraction of its scenario.
void check_extract_reply(Checks& c, const std::string& input, const std::string& reply,
                         const std::string& fingerprint, int n, int cycle_rank);

struct FloodStats {
  sim::RunStats khop, centrality, localmax;
};
void check_floods(Checks& c, const std::string& input, const RefGraph& g,
                  const BallCounts& balls, const core::Params& params,
                  const FloodStats& stats);

}  // namespace perfbench
