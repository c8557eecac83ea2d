#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <numeric>
#include <unordered_map>

namespace perfbench {

namespace {

std::string node_detail(const char* what, int v, long long got,
                        long long want) {
  return std::string(what) + " at node " + std::to_string(v) + ": program " +
         std::to_string(got) + ", reference " + std::to_string(want);
}

// Union-find over node ids, for skeleton components.
struct Dsu {
  explicit Dsu(int n) : parent(static_cast<std::size_t>(n)) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      int& p = parent[static_cast<std::size_t>(v)];
      p = parent[static_cast<std::size_t>(p)];
      v = p;
    }
    return v;
  }
  bool unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent[static_cast<std::size_t>(a)] = b;
    return true;
  }
  std::vector<int> parent;
};

// Hop distance to the nearest source (-1 when unreachable).
std::vector<int> multi_source_hops(const RefGraph& g,
                                   const std::vector<int>& sources) {
  std::vector<int> dist(static_cast<std::size_t>(g.n()), -1);
  std::vector<int> queue;
  for (int s : sources) {
    if (s < 0 || s >= g.n() || dist[static_cast<std::size_t>(s)] == 0) continue;
    dist[static_cast<std::size_t>(s)] = 0;
    queue.push_back(s);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int u = queue[head];
    for (int w : g.nbr[static_cast<std::size_t>(u)]) {
      if (dist[static_cast<std::size_t>(w)] != -1) continue;
      dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(u)] + 1;
      queue.push_back(w);
    }
  }
  return dist;
}

// Connected components among the nodes with active[v] != 0 (all nodes
// when `active` is empty).
int component_count(const RefGraph& g, const std::vector<char>& active) {
  const auto live = [&](int v) {
    return active.empty() || active[static_cast<std::size_t>(v)] != 0;
  };
  std::vector<char> seen(static_cast<std::size_t>(g.n()), 0);
  std::vector<int> stack;
  int count = 0;
  for (int s = 0; s < g.n(); ++s) {
    if (seen[static_cast<std::size_t>(s)] || !live(s)) continue;
    ++count;
    seen[static_cast<std::size_t>(s)] = 1;
    stack.assign(1, s);
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      for (int w : g.nbr[static_cast<std::size_t>(u)]) {
        if (seen[static_cast<std::size_t>(w)] || !live(w)) continue;
        seen[static_cast<std::size_t>(w)] = 1;
        stack.push_back(w);
      }
    }
  }
  return count;
}

}  // namespace

RefGraph::RefGraph(const net::Graph& g) : nbr(static_cast<std::size_t>(g.n())) {
  for (int v = 0; v < g.n(); ++v) {
    const auto row = g.neighbors(v);
    std::vector<int>& out = nbr[static_cast<std::size_t>(v)];
    out.assign(row.begin(), row.end());
    std::sort(out.begin(), out.end());
  }
}

bool RefGraph::linked(int u, int v) const {
  if (u < 0 || v < 0 || u >= n() || v >= n()) return false;
  const std::vector<int>& row = nbr[static_cast<std::size_t>(u)];
  return std::binary_search(row.begin(), row.end(), v);
}

BallCounts ball_counts(const RefGraph& g, int depth) {
  BallCounts out;
  out.depth = depth;
  const int n = g.n();
  out.count.assign(static_cast<std::size_t>(n) * (depth + 1), 0);
  std::vector<int> seen(static_cast<std::size_t>(n), -1);
  std::vector<int> frontier, next;
  for (int v = 0; v < n; ++v) {
    int* row = out.count.data() + static_cast<std::size_t>(v) * (depth + 1);
    seen[static_cast<std::size_t>(v)] = v;
    frontier.assign(1, v);
    int total = 1;
    row[0] = 1;
    for (int d = 1; d <= depth; ++d) {
      next.clear();
      for (int u : frontier) {
        for (int w : g.nbr[static_cast<std::size_t>(u)]) {
          if (seen[static_cast<std::size_t>(w)] == v) continue;
          seen[static_cast<std::size_t>(w)] = v;
          next.push_back(w);
        }
      }
      total += static_cast<int>(next.size());
      row[d] = total;
      frontier.swap(next);
    }
  }
  return out;
}

RefStage12 ref_stage12(const RefGraph& g, const BallCounts& balls,
                       const core::Params& params) {
  RefStage12 r;
  const int n = g.n();
  r.khop.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) r.khop[static_cast<std::size_t>(v)] = balls.at(v, params.k) - 1;

  // l-centrality (paper Def. 3): mean k-hop size over the l-hop
  // neighbourhood, the node itself included only on request.
  r.centrality.resize(static_cast<std::size_t>(n));
  r.index.resize(static_cast<std::size_t>(n));
  std::vector<int> seen(static_cast<std::size_t>(n), -1);
  std::vector<int> frontier, next;
  const auto visit_ball = [&](int v, int radius, auto&& fn) {
    seen[static_cast<std::size_t>(v)] = v;
    frontier.assign(1, v);
    for (int d = 1; d <= radius; ++d) {
      next.clear();
      for (int u : frontier) {
        for (int w : g.nbr[static_cast<std::size_t>(u)]) {
          if (seen[static_cast<std::size_t>(w)] == v) continue;
          seen[static_cast<std::size_t>(w)] = v;
          next.push_back(w);
          fn(w);
        }
      }
      frontier.swap(next);
    }
  };
  for (int v = 0; v < n; ++v) {
    const int kv = r.khop[static_cast<std::size_t>(v)];
    long long sum = params.centrality_includes_self ? kv : 0;
    int count = params.centrality_includes_self ? 1 : 0;
    visit_ball(v, params.l, [&](int w) {
      sum += r.khop[static_cast<std::size_t>(w)];
      ++count;
    });
    const double c =
        count > 0 ? static_cast<double>(sum) / count : static_cast<double>(kv);
    r.centrality[static_cast<std::size_t>(v)] = c;
    r.index[static_cast<std::size_t>(v)] = 0.5 * (static_cast<double>(kv) + c);
  }

  // Critical nodes: strict local maxima of the index within the radius,
  // ties broken toward the smaller id.
  std::fill(seen.begin(), seen.end(), -1);
  const int radius = params.effective_local_max_radius();
  for (int v = 0; v < n; ++v) {
    const double iv = r.index[static_cast<std::size_t>(v)];
    bool is_max = true;
    visit_ball(v, radius, [&](int w) {
      const double iw = r.index[static_cast<std::size_t>(w)];
      if (iw > iv || (iw == iv && w < v)) is_max = false;
    });
    if (is_max) r.critical.push_back(v);
  }
  return r;
}

void check_links(Checks& c, const std::string& input, const net::Graph& g,
                 double range) {
  const int n = g.n();
  const std::vector<skelex::geom::Vec2>& pos = g.positions();
  if (static_cast<int>(pos.size()) != n || range <= 0) {
    c.expect(false, "links", input, "network has no positions or no range");
    return;
  }
  double lo_x = pos[0].x, lo_y = pos[0].y;
  for (const auto& p : pos) {
    lo_x = std::min(lo_x, p.x);
    lo_y = std::min(lo_y, p.y);
  }
  // Cells of side `range`: every in-range pair sits in adjacent cells.
  std::unordered_map<std::int64_t, std::vector<int>> cells;
  const auto cell_of = [&](int v, long long& cx, long long& cy) {
    cx = static_cast<long long>(std::floor((pos[static_cast<std::size_t>(v)].x - lo_x) / range));
    cy = static_cast<long long>(std::floor((pos[static_cast<std::size_t>(v)].y - lo_y) / range));
  };
  const auto key = [](long long cx, long long cy) { return cx * 1'000'003LL + cy; };
  for (int v = 0; v < n; ++v) {
    long long cx, cy;
    cell_of(v, cx, cy);
    cells[key(cx, cy)].push_back(v);
  }
  const RefGraph ref(g);
  long long missing = 0, extra = 0, excused = 0, edges_seen = 0;
  std::string first;
  for (int u = 0; u < n; ++u) {
    long long cx, cy;
    cell_of(u, cx, cy);
    for (long long dx = -1; dx <= 1; ++dx) {
      for (long long dy = -1; dy <= 1; ++dy) {
        const auto it = cells.find(key(cx + dx, cy + dy));
        if (it == cells.end()) continue;
        for (int w : it->second) {
          if (w <= u) continue;
          const double d = std::hypot(pos[static_cast<std::size_t>(u)].x - pos[static_cast<std::size_t>(w)].x,
                                      pos[static_cast<std::size_t>(u)].y - pos[static_cast<std::size_t>(w)].y);
          const bool linked = ref.linked(u, w);
          edges_seen += linked ? 1 : 0;
          if (std::abs(d - range) <= 1e-9 * range) {
            ++excused;
            continue;
          }
          const bool in_range = d <= range;
          if (linked == in_range) continue;
          (linked ? extra : missing) += 1;
          if (first.empty()) {
            first = "pair (" + std::to_string(u) + "," + std::to_string(w) +
                    ") at distance " + std::to_string(d / range) + " R is " +
                    (linked ? "linked" : "not linked");
          }
        }
      }
    }
  }
  c.expect(missing == 0 && extra == 0, "links vs geometry", input,
           std::to_string(missing) + " missing, " + std::to_string(extra) +
               " extra; first " + first);
  c.expect(edges_seen == g.edge_count(), "links longer than the range", input,
           std::to_string(g.edge_count() - edges_seen) + " links span > 1 cell");
  c.expect(excused <= 8, "pairs at the range", input,
           std::to_string(excused) + " pairs within 1e-9 R of R");
}

void check_stage12(Checks& c, const std::string& input, const RefGraph& g,
                   const RefStage12& ref, const core::IndexData& index,
                   const std::vector<int>& critical,
                   const core::VoronoiResult& voronoi) {
  const int n = g.n();
  const auto sized = [n](std::size_t s) { return s == static_cast<std::size_t>(n); };
  if (!sized(index.khop_size.size()) || !sized(index.centrality.size()) ||
      !sized(index.index.size()) || !sized(voronoi.site_of.size()) ||
      !sized(voronoi.dist.size()) || !sized(voronoi.parent.size())) {
    c.expect(false, "stage-1/2 array sizes", input);
    return;
  }
  int bad_khop = -1, bad_cent = -1, bad_index = -1;
  for (int v = n - 1; v >= 0; --v) {
    const std::size_t i = static_cast<std::size_t>(v);
    if (index.khop_size[i] != ref.khop[i]) bad_khop = v;
    if (index.centrality[i] != ref.centrality[i]) bad_cent = v;
    if (index.index[i] != ref.index[i]) bad_index = v;
  }
  c.expect(bad_khop < 0, "k-hop sizes vs BFS", input,
           bad_khop < 0 ? "" : node_detail("khop", bad_khop, index.khop_size[static_cast<std::size_t>(bad_khop)], ref.khop[static_cast<std::size_t>(bad_khop)]));
  c.expect(bad_cent < 0, "l-centrality vs BFS", input,
           bad_cent < 0 ? "" : "first differing node " + std::to_string(bad_cent));
  c.expect(bad_index < 0, "index vs BFS", input,
           bad_index < 0 ? "" : "first differing node " + std::to_string(bad_index));
  c.expect(critical == ref.critical, "critical nodes vs local maxima", input,
           "program " + std::to_string(critical.size()) + ", reference " +
               std::to_string(ref.critical.size()));

  // Voronoi: the sites are the critical nodes; every owner distance is
  // the multi-source BFS distance; each parent step walks a network link
  // one hop closer to the same site.
  c.expect(voronoi.sites == critical, "Voronoi sites are the critical nodes",
           input);
  const std::vector<int> hops = multi_source_hops(g, voronoi.sites);
  int bad_dist = -1, bad_chain = -1;
  for (int v = n - 1; v >= 0; --v) {
    const std::size_t i = static_cast<std::size_t>(v);
    const int owner = voronoi.site_of[i];
    if (hops[i] < 0) {
      if (owner != -1) bad_dist = v;
      continue;
    }
    if (owner < 0 || voronoi.dist[i] != hops[i]) {
      bad_dist = v;
      continue;
    }
    const int p = voronoi.parent[i];
    if (hops[i] == 0) {
      const bool own_site =
          owner < static_cast<int>(voronoi.sites.size()) &&
          voronoi.sites[static_cast<std::size_t>(owner)] == v;
      if (!own_site || p != -1) bad_chain = v;
    } else if (!g.linked(v, p) ||
               voronoi.dist[static_cast<std::size_t>(p)] != hops[i] - 1 ||
               voronoi.site_of[static_cast<std::size_t>(p)] != owner) {
      bad_chain = v;
    }
  }
  c.expect(bad_dist < 0, "Voronoi owner distance vs multi-source BFS", input,
           bad_dist < 0 ? "" : node_detail("dist", bad_dist, voronoi.dist[static_cast<std::size_t>(bad_dist)], hops[static_cast<std::size_t>(bad_dist)]));
  c.expect(bad_chain < 0, "Voronoi parent chain", input,
           bad_chain < 0 ? "" : "breaks at node " + std::to_string(bad_chain));
}

bool check_skeleton(Checks& c, const std::string& input, const RefGraph& g,
                    const core::SkeletonGraph& sk, int holes,
                    const std::vector<char>& active) {
  const int n = g.n();
  if (sk.capacity() > n) {
    c.expect(false, "skeleton nodes are network nodes", input,
             "capacity " + std::to_string(sk.capacity()) + " > n " + std::to_string(n));
    return false;
  }
  const auto live = [&](int v) {
    return active.empty() || active[static_cast<std::size_t>(v)] != 0;
  };
  Dsu dsu(n);
  long long nodes = 0, edges = 0, not_links = 0, dead_nodes = 0;
  int components = 0;
  for (int v = 0; v < sk.capacity(); ++v) {
    if (!sk.has_node(v)) continue;
    ++nodes;
    if (!live(v)) ++dead_nodes;
    for (int w : sk.neighbors(v)) {
      if (w <= v) continue;
      ++edges;
      if (!g.linked(v, w) || !sk.has_node(w)) ++not_links;
      dsu.unite(v, w);
    }
  }
  for (int v = 0; v < sk.capacity(); ++v) {
    if (sk.has_node(v) && dsu.find(v) == v) ++components;
  }
  c.expect(dead_nodes == 0, "skeleton nodes are live network nodes", input,
           std::to_string(dead_nodes) + " departed nodes");
  c.expect(not_links == 0, "skeleton edges are network links", input,
           std::to_string(not_links) + " edges are not links");
  const int net_components = component_count(g, active);
  c.expect(components == net_components, "skeleton components == network components",
           input, std::to_string(components) + " vs " + std::to_string(net_components));
  if (holes < 0) return true;
  const long long rank = edges - nodes + components;
  if (rank == holes) return true;
  if (!c.quiet()) {
    std::fprintf(stderr, "cycle rank %lld != %d holes on %s\n", rank, holes, input.c_str());
  }
  return false;
}

bool same_skeleton(const core::SkeletonGraph& a, const core::SkeletonGraph& b) {
  if (a.node_count() != b.node_count() || a.edge_count() != b.edge_count()) {
    return false;
  }
  const int cap = std::max(a.capacity(), b.capacity());
  std::vector<int> ra, rb;
  for (int v = 0; v < cap; ++v) {
    const bool ha = v < a.capacity() && a.has_node(v);
    const bool hb = v < b.capacity() && b.has_node(v);
    if (ha != hb) return false;
    if (!ha) continue;
    ra = a.neighbors(v);
    rb = b.neighbors(v);
    std::sort(ra.begin(), ra.end());
    std::sort(rb.begin(), rb.end());
    if (ra != rb) return false;
  }
  return true;
}

std::string json_field(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\": ";
  const std::size_t at = json.find(pat);
  if (at == std::string::npos) return {};
  const std::size_t b = at + pat.size();
  if (b < json.size() && json[b] == '"') {
    return json.substr(b + 1, json.find('"', b + 1) - b - 1);
  }
  std::size_t e = b;
  while (e < json.size() && json[e] != ',' && json[e] != '}') ++e;
  return json.substr(b, e - b);
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void check_extract_reply(Checks& c, const std::string& input, const std::string& reply,
                         const std::string& fingerprint, int n, int cycle_rank) {
  const std::string fp = json_field(reply, "fingerprint");
  c.expect(fp == fingerprint, "reply fingerprint == in-process extraction", input,
           fp + " vs " + fingerprint);
  c.expect(json_field(reply, "n") == std::to_string(n), "reply n == in-process scenario",
           input);
  c.expect(json_field(reply, "cycle_rank") == std::to_string(cycle_rank),
           "reply cycle rank == in-process", input);
}

void check_floods(Checks& c, const std::string& input, const RefGraph& g,
                  const BallCounts& balls, const core::Params& params,
                  const FloodStats& stats) {
  const auto expect_flood = [&](const char* name, const sim::RunStats& s,
                                int ttl) {
    long long tx = 0, rx = 0;
    for (int v = 0; v < g.n(); ++v) {
      const long long b = balls.at(v, ttl - 1);
      tx += b;
      rx += b * static_cast<long long>(g.nbr[static_cast<std::size_t>(v)].size());
    }
    c.expect(s.transmissions == tx, std::string(name) + " transmissions == sum |B_(t-1)|",
             input, std::to_string(s.transmissions) + " vs " + std::to_string(tx));
    c.expect(s.receptions == rx, std::string(name) + " receptions == sum sender degree",
             input, std::to_string(s.receptions) + " vs " + std::to_string(rx));
    c.expect(s.rounds == ttl, std::string(name) + " rounds == ttl", input,
             std::to_string(s.rounds) + " vs " + std::to_string(ttl));
  };
  expect_flood("khop", stats.khop, params.k);
  expect_flood("centrality", stats.centrality, params.l);
  expect_flood("localmax", stats.localmax, params.effective_local_max_radius());
}

}  // namespace perfbench
