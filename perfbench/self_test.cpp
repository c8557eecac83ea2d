// perfbench --self-test: shows that every output check can fail. Each
// check first runs on a clean output of a small network (it must pass),
// then on the same output with one deliberate corruption (it must fail):
//
//   links      one link dropped from the network
//   stage12    one Voronoi site moved to a neighbouring node
//   skeleton   one cycle cut open (cycle rank below the holes)
//   cycles     one extra cycle (a detour through a network neighbour)
//   floods     the k-hop flood's transmission count off by one
//   reply      a warm daemon reply whose fingerprint differs
//
// Prints one line per case and exits 0 only if every case behaves.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "core/fingerprint.h"
#include "core/pipeline.h"
#include "core/protocols.h"
#include "deploy/scenario.h"
#include "geometry/shapes.h"
#include "sim/engine.h"
#include "svc/service.h"

namespace perfbench {

namespace {

using namespace skelex;

// Runs `check` on a fresh quiet ledger; true when it reported no failure.
bool passes(const std::function<void(Checks&)>& check) {
  Checks c;
  c.set_quiet(true);
  check(c);
  return c.ok();
}

}  // namespace

int run_self_test() {
  deploy::ScenarioSpec spec;
  spec.target_nodes = 2734;
  spec.target_avg_deg = 6.54;
  spec.seed = 7;
  const geom::Region region = geom::shapes::one_hole();
  const deploy::Scenario sc = deploy::make_udg_scenario(region, spec);
  const net::Graph& g = sc.graph;
  const core::Params params;
  const core::SkeletonResult r = core::extract_skeleton(g, params);
  const RefGraph ref(g);
  const BallCounts balls =
      ball_counts(ref, std::max({params.k, params.l, params.effective_local_max_radius()}));
  const RefStage12 ref12 = ref_stage12(ref, balls, params);
  const int holes = static_cast<int>(region.hole_count());

  int bad = 0;
  const auto expect_case = [&](const char* name, bool clean_ok, bool corrupt_ok) {
    const bool good = clean_ok && !corrupt_ok;
    bad += good ? 0 : 1;
    std::printf("%-9s clean %s, corrupted %s  -> %s\n", name, clean_ok ? "passes" : "FAILS",
                corrupt_ok ? "passes" : "fails", good ? "ok" : "WRONG");
  };

  // links: drop the first link of node 0.
  {
    net::Graph dropped = g;
    dropped.remove_edge(0, g.neighbors(0)[0]);
    expect_case("links", passes([&](Checks& c) { check_links(c, "clean", g, sc.range); }),
                passes([&](Checks& c) { check_links(c, "dropped link", dropped, sc.range); }));
  }

  // stage12: move the first Voronoi site onto one of its neighbours.
  {
    core::VoronoiResult moved = r.voronoi();
    const int site = moved.sites[0];
    moved.sites[0] = ref.nbr[static_cast<std::size_t>(site)][0];
    expect_case("stage12",
                passes([&](Checks& c) {
                  check_stage12(c, "clean", ref, ref12, r.index(), r.critical_nodes,
                                r.voronoi());
                }),
                passes([&](Checks& c) {
                  check_stage12(c, "moved site", ref, ref12, r.index(), r.critical_nodes,
                                moved);
                }));
  }

  // skeleton: (a) cut one edge of the hole's cycle; (b) route one
  // skeleton edge (u, a) also through a network node w next to both,
  // closing a triangle of links. Either way the cycle rank no longer
  // equals the holes. A case passes when the ledger stays clean and the
  // cycle rank holds.
  {
    const auto skeleton_ok = [&](const char* input, const core::SkeletonGraph& sk) {
      bool cycles_ok = false;
      const bool ledger_ok =
          passes([&](Checks& c) { cycles_ok = check_skeleton(c, input, ref, sk, holes); });
      return ledger_ok && cycles_ok;
    };
    const bool clean_ok = skeleton_ok("clean", r.skeleton);

    core::SkeletonGraph cut = r.skeleton;
    bool made_cut = false;
    for (int u = 0; u < cut.capacity() && !made_cut; ++u) {
      if (!cut.has_node(u)) continue;
      for (int a : r.skeleton.neighbors(u)) {
        cut.remove_edge(u, a);
        if (cut.component_count() == r.skeleton.component_count()) {
          made_cut = true;  // (u, a) was on a cycle
          break;
        }
        cut.add_edge(u, a);
      }
    }
    expect_case("skeleton", clean_ok, !made_cut || skeleton_ok("lost cycle", cut));

    core::SkeletonGraph extra = r.skeleton;
    bool made = false;
    for (int u = 0; u < extra.capacity() && !made; ++u) {
      if (!extra.has_node(u)) continue;
      for (int a : r.skeleton.neighbors(u)) {
        for (int w : ref.nbr[static_cast<std::size_t>(u)]) {
          if (w == a || extra.has_node(w) || !ref.linked(w, a)) continue;
          extra.add_node(w);
          extra.add_edge(u, w);
          extra.add_edge(w, a);
          made = true;
          break;
        }
        if (made) break;
      }
    }
    expect_case("cycles", clean_ok, !made || skeleton_ok("extra cycle", extra));
  }

  // floods: the protocols on a serial engine, then one transmission more.
  {
    sim::Engine engine(g);
    FloodStats stats;
    core::KhopSizeProtocol khop(g.n(), params.k);
    stats.khop = engine.run(khop);
    core::CentralityProtocol cent(khop.sizes(), params.l, params.centrality_includes_self);
    stats.centrality = engine.run(cent);
    core::LocalMaxProtocol lmax(r.index().index, params.effective_local_max_radius());
    stats.localmax = engine.run(lmax);
    FloodStats wrong = stats;
    wrong.khop.transmissions += 1;
    expect_case("floods",
                passes([&](Checks& c) { check_floods(c, "clean", ref, balls, params, stats); }),
                passes([&](Checks& c) {
                  check_floods(c, "wrong count", ref, balls, params, wrong);
                }));
  }

  // reply: a cold and a warm reply from the service, then a warm reply
  // whose fingerprint differs in one digit.
  {
    svc::ExtractionService service;
    const std::string req = "cmd=extract\nid=1\nshape=one_hole\nnodes=2734\navg_deg=6.54\n"
                            "seed=7\ntrace=0\n";
    const std::string cold = service.handle(req);
    const std::string warm = service.handle(req);
    std::string differing = warm;
    const std::size_t at = differing.find("\"fingerprint\": \"0x") + 18;
    differing[at] = differing[at] == '0' ? '1' : '0';
    const std::string fp = hex64(core::result_fingerprint(r));
    const int rank = r.skeleton_cycle_rank();
    expect_case("reply",
                passes([&](Checks& c) {
                  check_extract_reply(c, "cold", cold, fp, g.n(), rank);
                  check_extract_reply(c, "warm", warm, fp, g.n(), rank);
                }),
                passes([&](Checks& c) {
                  check_extract_reply(c, "differing warm", differing, fp, g.n(), rank);
                }));
  }

  std::printf("self-test: %s\n", bad == 0 ? "every check catches its corruption" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench
