// Workload serving: a closed loop of two client connections against
// `skelex_served --threads 2` on loopback (four busy threads in all).
// Each client repeats one round of twelve requests over paper-scale
// scenarios (1.3k-3.3k nodes); the scenarios and churn seeds come from
// the client's own seeds:
//
//   cold     extract a fresh (shape, seed) scenario
//   warm     extract the previous round's scenario again
//   warm     extract the scenario of two rounds back again
//   tail     this round's scenario with prune_len=7 (stages 1-6 replay)
//   session  open a live session on this round's scenario, churn it for
//            two rounds with this round's churn seed, extract the
//            maintained skeleton, close it
//   witness  the same four session requests on one fixed scenario and
//            churn batch after which the maintained skeleton differs from
//            a from-scratch extraction (see CHANGES.md)
//
// The witness's churn reply fails in every round, so `failed` is exactly
// one twelfth of `attempted`. A round whose seeded scenario or session
// hits a known fault (a skeleton cycle rank that differs from the holes,
// a maintained skeleton that differs from the from-scratch one) is left
// out of both counts (KnownFaults in bench.h).
//
// Warm requests name only scenarios the same client used in its last two
// rounds; --cache-mb 64 holds many times that working set while the cold
// stream still forces evictions, so a request's tier does not depend on
// how the two clients interleave.
//
// After the loop, untimed: every reply is checked against an in-process
// computation made apart from the daemon — extract replies against
// core::extract_skeleton of the same scenario (fingerprint, size, cycle
// rank), sessions against a from-scratch extraction of the replayed
// churned topology. A traced run also replays each client's requests
// through an in-process svc::ExtractionService to split daemon latency
// into handle time and wire time.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "core/fingerprint.h"
#include "core/identify.h"
#include "core/maintain.h"
#include "core/pipeline.h"
#include "deploy/scenario.h"
#include "geometry/shapes.h"
#include "network.h"
#include "sim/dynamics.h"
#include "svc/protocol.h"
#include "svc/service.h"

extern char** environ;

namespace perfbench {

namespace {

using namespace skelex;

constexpr int kClients = 2;
constexpr int kDaemonThreads = 2;
constexpr int kCacheMb = 64;
constexpr int kChurnRounds = 2;
constexpr int kTailPrune = 7;
// Medial deviation is averaged over this many leading cold scenarios of
// each client (five of each paper shape; a run completes far more rounds).
constexpr int kMedialScenarios = 50;

enum Kind { kCold, kWarm, kTail, kSessionOpen, kChurn, kSessionExtract, kClose };
// Latency classes: cold, warm and tail requests one by one; a session
// open through close as one unit.
constexpr int kClasses = 4;
constexpr int kSession = 3;
constexpr const char* kClassNames[kClasses] = {"cold", "warm", "tail", "session"};

struct Scenario {
  std::string shape;
  int nodes = 0;
  double avg_deg = 0;
  std::uint64_t seed = 0;
  std::uint64_t churn_seed = 0;  // for the session opened on it
};

// The witness session's scenario and churn batch (see the header comment).
const Scenario kWitness{"two_holes", 3346, 6.79, 1202177897, 5089981};

struct Step {
  Kind kind;
  int scenario;  // index into the client's scenario list; -1: the witness
};

// One round of a client: the twelve requests listed above.
std::vector<Step> round_steps(int round) {
  const int prev = std::max(round - 1, 0), prev2 = std::max(round - 2, 0);
  return {{kCold, round},           {kWarm, prev},        {kWarm, prev2},
          {kTail, round},           {kSessionOpen, round}, {kChurn, round},
          {kSessionExtract, round}, {kClose, round},      {kSessionOpen, -1},
          {kChurn, -1},             {kSessionExtract, -1}, {kClose, -1}};
}
constexpr int kStepsPerRound = 12;

std::string fmt_double(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string scenario_keys(const Scenario& s) {
  return "shape=" + s.shape + "\nnodes=" + std::to_string(s.nodes) +
         "\navg_deg=" + fmt_double(s.avg_deg) + "\nseed=" + std::to_string(s.seed) + "\n";
}

std::string request_text(const Step& st, const Scenario& s, long long id,
                         long long session) {
  const std::string head = "id=" + std::to_string(id) + "\n";
  switch (st.kind) {
    case kCold:
    case kWarm:
      return "cmd=extract\n" + head + scenario_keys(s) + "trace=0\n";
    case kTail:
      return "cmd=extract\n" + head + scenario_keys(s) + "trace=0\nprune_len=" +
             std::to_string(kTailPrune) + "\n";
    case kSessionOpen:
      return "cmd=session\n" + head + scenario_keys(s);
    case kChurn:
      return "cmd=churn\n" + head + "session=" + std::to_string(session) +
             "\nrounds=" + std::to_string(kChurnRounds) +
             "\njoin_rate=0.5\nleave_rate=0.5\nlink_add_rate=1\nlink_remove_rate=1"
             "\nchurn_seed=" + std::to_string(s.churn_seed) + "\n";
    case kSessionExtract:
      return "cmd=extract\n" + head + "session=" + std::to_string(session) + "\n";
    case kClose:
      return "cmd=close\n" + head + "session=" + std::to_string(session) + "\n";
  }
  return {};
}

// A loopback connection speaking the daemon's framing (svc/protocol.h).
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("cannot connect to the daemon");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // A daemon that stops answering fails the run instead of hanging it.
    const timeval timeout{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  std::string call(const std::string& payload) {
    std::string reply;
    if (!svc::write_frame(fd_, payload) || !svc::read_frame(fd_, reply)) {
      throw std::runtime_error("daemon connection failed");
    }
    return reply;
  }

 private:
  int fd_ = -1;
};

// The daemon process: started from the binary next to this driver,
// waited for on destruction (after a shutdown request, or killed).
class Daemon {
 public:
  Daemon() {
    const std::string exe =
        (std::filesystem::read_symlink("/proc/self/exe").parent_path() / "skelex_served")
            .string();
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, out[0]);
    const std::string threads = std::to_string(kDaemonThreads);
    const std::string cache = std::to_string(kCacheMb);
    const char* argv[] = {exe.c_str(), "--port",  "0",     "--threads", threads.c_str(),
                          "--cache-mb", cache.c_str(), "--slow-ms", "0", "--log-level",
                          "error",     nullptr};
    const int rc = posix_spawn(&pid_, exe.c_str(), &fa, nullptr,
                               const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(out[1]);
    if (rc != 0) {
      ::close(out[0]);
      pid_ = -1;
      throw std::runtime_error("cannot start " + exe);
    }
    // "listening on 127.0.0.1:<port>"
    std::string line;
    char ch;
    while (::read(out[0], &ch, 1) == 1 && ch != '\n') line += ch;
    ::close(out[0]);
    const std::size_t colon = line.rfind(':');
    if (line.rfind("listening on", 0) != 0 || colon == std::string::npos) {
      throw std::runtime_error("daemon did not report its port: '" + line + "'");
    }
    port_ = std::atoi(line.c_str() + colon + 1);
  }
  ~Daemon() {
    if (pid_ <= 0) return;
    if (!exited_) ::kill(pid_, SIGKILL);
    wait();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  int pid() const { return pid_; }
  // Waits for the process to exit; returns its exit status.
  int wait() {
    int status = 0;
    if (!exited_) {
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      exited_ = true;
    }
    return status;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  bool exited_ = false;
};

struct Sent {
  Step step;
  int round = 0;
  std::string request;  // as sent (session ids are the daemon's)
  std::string reply;
  double ms = 0;
};

struct ClientLog {
  explicit ClientLog(bool trace) : spans(trace) {}
  std::vector<Scenario> scenarios;
  std::vector<Sent> sent;
  std::vector<double> round_ms;
  std::vector<double> session_ms;  // seeded session, open through close
  std::string error;
  Spans spans;  // one span per request
  const Scenario& scenario(const Step& st) const {
    return st.scenario < 0 ? kWitness : scenarios[static_cast<std::size_t>(st.scenario)];
  }
};

constexpr const char* kSpanNames[] = {"svc.cold",  "svc.warm",   "svc.tail",
                                      "svc.session", "svc.churn", "svc.session_extract",
                                      "svc.close"};

Scenario make_scenario(std::uint64_t run_seed, int client, int round) {
  static const std::vector<geom::shapes::NamedShape> shapes =
      geom::shapes::paper_scenarios();
  const geom::shapes::NamedShape& s =
      shapes[static_cast<std::size_t>(round + 3 * client) % shapes.size()];
  Scenario out;
  out.shape = s.name;
  out.nodes = s.paper_nodes;
  out.avg_deg = s.paper_avg_deg;
  // 31-bit seeds, disjoint per client by construction of mix_seed input.
  const std::uint64_t stream = mix_seed(run_seed, static_cast<std::uint64_t>(client) << 32 |
                                                      static_cast<std::uint64_t>(round));
  out.seed = stream >> 33;
  out.churn_seed = mix_seed(stream, 1) >> 33;
  return out;
}

// One closed-loop client: whole rounds until the deadline passes.
void client_loop(int port, int client, std::uint64_t run_seed, Clock::time_point deadline,
                 ClientLog& log) {
  try {
    Connection conn(port);
    long long id = static_cast<long long>(client) * 1'000'000'000LL;
    for (int round = 0; round == 0 || Clock::now() < deadline; ++round) {
      log.scenarios.push_back(make_scenario(run_seed, client, round));
      const Clock::time_point r0 = Clock::now();
      Clock::time_point session_start;
      long long session = 0;
      for (const Step& st : round_steps(round)) {
        Sent s;
        s.step = st;
        s.round = round;
        s.request = request_text(st, log.scenario(st), ++id, session);
        if (st.kind == kSessionOpen && st.scenario >= 0) session_start = Clock::now();
        s.ms = log.spans.time(kSpanNames[st.kind], [&] { s.reply = conn.call(s.request); });
        if (st.kind == kSessionOpen) session = std::atoll(json_field(s.reply, "session").c_str());
        if (st.kind == kClose && st.scenario >= 0) {
          log.session_ms.push_back(ms_between(session_start, Clock::now()));
        }
        log.sent.push_back(std::move(s));
      }
      log.round_ms.push_back(ms_between(r0, Clock::now()));
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
}

// --- in-process references ----------------------------------------------

struct ScenarioRef {
  deploy::Scenario scenario;
  double build_ms = 0;
  core::SkeletonGraph skeleton;  // default params
  std::string fingerprint[2];    // default params, prune_len = kTailPrune
  int cycle_rank[2] = {};        // as fingerprint[]
  bool cycles_ok = false;        // default skeleton's cycle rank == holes
  // The session opened on this scenario: skeleton fingerprint when
  // opened, churn script digest, and from-scratch skeleton fingerprint
  // of the churned topology.
  std::string open_fp, script_digest, churned_fp;
};

// A session's churn batch, generated as the daemon generates it: over the
// compacted active subgraph, remapped into the stable id space.
sim::ChurnScript replay_churn_script(const sim::DynamicTopology& topo, double range,
                                     std::uint64_t churn_seed) {
  std::vector<int> orig_of_new;
  const net::Graph compact = topo.active_subgraph(&orig_of_new);
  sim::ChurnScript::RandomSpec spec;
  spec.rounds = kChurnRounds;
  spec.join_rate = 0.5;
  spec.leave_rate = 0.5;
  spec.link_add_rate = 1.0;
  spec.link_remove_rate = 1.0;
  spec.range = range;
  const sim::ChurnScript compact_script = sim::ChurnScript::random(compact, spec, churn_seed);
  const int compact_n = compact.n();
  const int stable_n = topo.n();
  const auto remap = [&](int v) {
    return v < compact_n ? orig_of_new[static_cast<std::size_t>(v)] : stable_n + (v - compact_n);
  };
  sim::ChurnScript out;
  for (sim::ChurnEvent e : compact_script.events()) {
    if (e.node >= 0) e.node = remap(e.node);
    for (int& t : e.links) t = remap(t);
    if (e.u >= 0) e.u = remap(e.u);
    if (e.v >= 0) e.v = remap(e.v);
    out.add(std::move(e));
  }
  return out;
}

// From-scratch extraction of a live topology in its stable id space:
// stages 1-2 on the current CSR, departed nodes never sites, then the
// shared completion stages.
core::SkeletonResult from_scratch(const sim::DynamicTopology& topo, const core::Params& p) {
  net::Workspace ws;
  core::IndexData idx = core::compute_index(topo.csr(), ws, p);
  std::vector<int> crit = core::identify_critical_nodes(topo.csr(), ws, idx, p);
  std::erase_if(crit, [&](int v) { return !topo.is_active(v); });
  core::VoronoiResult vor = core::build_voronoi(topo.csr(), ws, crit, p);
  return core::complete_extraction(topo.graph(), topo.csr(), p, std::move(idx),
                                   std::move(crit), std::move(vor));
}

// Builds the scenario as the service does (deploy + UDG + largest
// component), extracts it in-process with both parameter sets, replays
// the session churn on it, and checks the network, the default
// extraction and the churned from-scratch skeleton.
ScenarioRef build_ref(const Scenario& sc, const core::Params& params,
                      const core::Params& tail_params, Checks& checks,
                      const std::string& input) {
  ScenarioRef ref;
  deploy::ScenarioSpec spec;
  spec.target_nodes = sc.nodes;
  spec.target_avg_deg = sc.avg_deg;
  spec.seed = sc.seed;
  const Clock::time_point t0 = Clock::now();
  ref.scenario = deploy::make_udg_scenario(geom::shapes::by_name(sc.shape), spec);
  ref.scenario.graph.csr();
  ref.build_ms = ms_between(t0, Clock::now());
  const core::SkeletonResult r = core::extract_skeleton(ref.scenario.graph, params);
  const core::SkeletonResult tail = core::extract_skeleton(ref.scenario.graph, tail_params);
  ref.skeleton = r.skeleton;
  ref.fingerprint[0] = hex64(core::result_fingerprint(r));
  ref.fingerprint[1] = hex64(core::result_fingerprint(tail));
  ref.cycle_rank[0] = r.skeleton_cycle_rank();
  ref.cycle_rank[1] = tail.skeleton_cycle_rank();

  const RefGraph rg(ref.scenario.graph);
  check_links(checks, input, ref.scenario.graph, ref.scenario.range);
  const BallCounts balls = ball_counts(rg, std::max(params.k, params.l));
  check_stage12(checks, input, rg, ref_stage12(rg, balls, params), r.index(),
                r.critical_nodes, r.voronoi());
  ref.cycles_ok = check_skeleton(checks, input, rg, r.skeleton,
                                 static_cast<int>(geom::shapes::by_name(sc.shape).hole_count()));

  sim::DynamicTopology topo(ref.scenario.graph);
  const sim::ChurnScript script = replay_churn_script(topo, ref.scenario.range, sc.churn_seed);
  for (int round = 0; round < kChurnRounds; ++round) topo.apply_round(script, round);
  const core::SkeletonResult churned = from_scratch(topo, params);
  const RefGraph churned_graph(topo.graph());
  const std::vector<char> active(topo.active().begin(), topo.active().end());
  check_skeleton(checks, input + " after churn", churned_graph, churned.skeleton, -1, active);
  ref.open_fp = hex64(core::skeleton_fingerprint(r.skeleton));
  ref.script_digest = hex64(script.digest());
  ref.churned_fp = hex64(core::skeleton_fingerprint(churned.skeleton));
  return ref;
}

// References for a client's scenarios, built on `threads` threads
// (untimed; one thread when the build times are reported).
std::vector<ScenarioRef> build_refs(const std::vector<Scenario>& scenarios, int client,
                                    const core::Params& params,
                                    const core::Params& tail_params, int threads,
                                    Checks& checks) {
  std::vector<ScenarioRef> refs(scenarios.size());
  std::vector<Checks> partial(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Checks& mine = partial[static_cast<std::size_t>(t)];
      for (std::size_t i = static_cast<std::size_t>(t); i < scenarios.size();
           i += static_cast<std::size_t>(threads)) {
        const Scenario& sc = scenarios[i];
        const std::string input = "client " + std::to_string(client) + " scenario " +
                                  sc.shape + " seed " + std::to_string(sc.seed) +
                                  " churn seed " + std::to_string(sc.churn_seed);
        try {
          refs[i] = build_ref(sc, params, tail_params, mine, input);
        } catch (const std::exception& e) {
          mine.expect(false, "in-process reference", input, e.what());
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const Checks& p : partial) checks.absorb(p);
  return refs;
}

}  // namespace

bool run_serving(const Args& args, Report& report) {
  Checks checks;
  KnownFaults faults;
  Daemon daemon;
  {
    Connection probe(daemon.port());
    const std::string pong = probe.call("cmd=ping\nid=0\n");
    checks.expect(json_field(pong, "ok") == "true", "ping", "daemon", pong);
  }
  const double setup_s = ms_between(process_start(), Clock::now()) / 1000.0;

  // --- timed closed loop ---
  std::vector<ClientLog> logs(kClients, ClientLog(args.trace));
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<long long>(args.seconds * 1e6));
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(client_loop, daemon.port(), c, args.seed, deadline,
                           std::ref(logs[static_cast<std::size_t>(c)]));
    }
    for (std::thread& t : clients) t.join();
  }
  const double wall_s = ms_between(start, Clock::now()) / 1000.0;

  std::string stats;
  {
    Connection ctl(daemon.port());
    stats = ctl.call("cmd=stats\nid=0\n");
    report.set("peak_rss_mb", peak_rss_mb(daemon.pid()), "MB");
    ctl.call("cmd=shutdown\nid=0\n");
  }
  const int status = daemon.wait();
  checks.expect(WIFEXITED(status) && WEXITSTATUS(status) == 0, "daemon exits cleanly",
                "shutdown", "status " + std::to_string(status));

  // --- checks (untimed) ---
  const core::Params params;
  core::Params tail_params;
  tail_params.prune_len = kTailPrune;
  const ScenarioRef witness = build_ref(kWitness, params, tail_params, checks, "witness scenario");
  checks.expect(witness.cycles_ok, "witness skeleton cycle rank == holes", "witness scenario");

  const int check_threads =
      args.trace ? 1 : static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  std::map<std::string, std::unique_ptr<geom::ReferenceMedialAxis>> axes;
  std::vector<double> latency[kClasses], all_latency, round_ms, scenario_ms, medial;
  double request_ms_total = 0, round_ms_total = 0;
  long long requests = 0, rounds = 0, maintain[4] = {};
  for (int c = 0; c < kClients; ++c) {
    const ClientLog& log = logs[static_cast<std::size_t>(c)];
    checks.expect(log.error.empty(), "client runs to its end", "client " + std::to_string(c),
                  log.error);
    round_ms.insert(round_ms.end(), log.round_ms.begin(), log.round_ms.end());
    for (double ms : log.round_ms) round_ms_total += ms;
    latency[kSession].insert(latency[kSession].end(), log.session_ms.begin(),
                             log.session_ms.end());
    rounds += static_cast<long long>(log.round_ms.size());

    // References for every scenario this client named.
    const std::vector<ScenarioRef> refs =
        build_refs(log.scenarios, c, params, tail_params, check_threads, checks);
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const ScenarioRef& ref = refs[i];
      scenario_ms.push_back(ref.build_ms);
      if (static_cast<int>(i) < kMedialScenarios) {
        const std::string& shape = log.scenarios[i].shape;
        auto& axis = axes[shape];
        if (!axis) axis = std::make_unique<geom::ReferenceMedialAxis>(geom::shapes::by_name(shape));
        medial.push_back(medial_dev_r(*axis, ref.scenario.graph, ref.skeleton,
                                      ref.scenario.range));
      }
    }

    // Replies, one whole round at a time.
    for (std::size_t at = 0; at + kStepsPerRound <= log.sent.size(); at += kStepsPerRound) {
      const int round = log.sent[at].round;
      const ScenarioRef& own = refs[static_cast<std::size_t>(round)];
      std::string known_fault = own.cycles_ok ? "" : "skeleton cycle rank != holes";
      bool witness_failed = false;
      std::string churn_fp;
      for (std::size_t k = at; k < at + kStepsPerRound; ++k) {
        const Sent& s = log.sent[k];
        const bool seeded = s.step.scenario >= 0;
        const ScenarioRef& ref = seeded ? refs[static_cast<std::size_t>(s.step.scenario)] : witness;
        const std::string input = "client " + std::to_string(c) + " round " +
                                  std::to_string(round) + " request {" +
                                  s.request.substr(0, s.request.find("\nshape")) + "} on " +
                                  log.scenario(s.step).shape + " seed " +
                                  std::to_string(log.scenario(s.step).seed);
        if (s.step.kind <= kTail) latency[s.step.kind].push_back(s.ms);
        all_latency.push_back(s.ms);
        request_ms_total += s.ms;
        if (!checks.expect(json_field(s.reply, "ok") == "true", "request succeeds", input,
                           s.reply)) {
          continue;
        }
        const std::string fp = json_field(s.reply, "fingerprint");
        switch (s.step.kind) {
          case kCold:
          case kWarm:
          case kTail: {
            const int v = s.step.kind == kTail ? 1 : 0;
            check_extract_reply(checks, input, s.reply, ref.fingerprint[v],
                                ref.scenario.graph.n(), ref.cycle_rank[v]);
            break;
          }
          case kSessionOpen:
            checks.expect(fp == ref.open_fp, "session skeleton == from-scratch extraction",
                          input, fp + " vs " + ref.open_fp);
            break;
          case kChurn:
            checks.expect(json_field(s.reply, "script_digest") == ref.script_digest,
                          "churn script replays", input);
            churn_fp = fp;
            // The maintained skeleton against the from-scratch one: the
            // known fault, counted on the witness and left out elsewhere.
            if (fp != ref.churned_fp) {
              if (!seeded) {
                witness_failed = true;
              } else if (known_fault.empty()) {
                known_fault = "maintained skeleton " + fp + " != from-scratch " + ref.churned_fp;
              }
            }
            if (seeded) {
              maintain[0] += std::atoll(json_field(s.reply, "repairs_local").c_str());
              maintain[1] += std::atoll(json_field(s.reply, "repairs_regional").c_str());
              maintain[2] += std::atoll(json_field(s.reply, "repairs_full").c_str());
              maintain[3] += std::atoll(json_field(s.reply, "escalations").c_str());
            }
            break;
          case kSessionExtract:
            checks.expect(json_field(s.reply, "invariants_ok") == "true", "session invariants",
                          input);
            checks.expect(fp == churn_fp, "session extract serves the churned skeleton", input);
            break;
          case kClose:
            break;
        }
      }
      if (!known_fault.empty()) {
        faults.record(known_fault + " (round left out)",
                      "client " + std::to_string(c) + " round " + std::to_string(round) + " " +
                          log.scenarios[static_cast<std::size_t>(round)].shape + " seed " +
                          std::to_string(log.scenarios[static_cast<std::size_t>(round)].seed));
        continue;
      }
      requests += kStepsPerRound;
      report.failed += witness_failed ? 1 : 0;
    }
  }
  report.attempted = requests;
  faults.check_rare(checks, rounds, "serving seed " + std::to_string(args.seed));

  if (!args.trace) {
    report.set("op_ms", median(round_ms), "ms");
    report.set("setup_s", setup_s, "s");
    double medial_sum = 0;
    for (double m : medial) medial_sum += m;
    report.set("medial_dev_r", medial.empty() ? 0 : medial_sum / medial.size(), "R");
    return checks.ok();
  }

  // Traced run: replay each client's requests in-process, in order, on a
  // service configured like the daemon, and time handle() per class.
  std::vector<double> handle[kClasses];
  {
    svc::ExtractionService::Options opt;
    opt.cache_bytes = static_cast<std::size_t>(kCacheMb) << 20;
    opt.slow_request_ms = 0;
    svc::ExtractionService service(opt);
    for (const ClientLog& log : logs) {
      long long session = 0, id = 0;
      double session_ms = 0;
      for (const Sent& s : log.sent) {
        const std::string text = request_text(s.step, log.scenario(s.step), ++id, session);
        std::string reply;
        const Clock::time_point t0 = Clock::now();
        reply = service.handle(text);
        const double ms = ms_between(t0, Clock::now());
        if (s.step.kind <= kTail) {
          handle[s.step.kind].push_back(ms);
        } else if (s.step.scenario >= 0) {
          session_ms = s.step.kind == kSessionOpen ? ms : session_ms + ms;
          if (s.step.kind == kClose) handle[kSession].push_back(session_ms);
        }
        if (s.step.kind == kSessionOpen) session = std::atoll(json_field(reply, "session").c_str());
        checks.expect(json_field(reply, "fingerprint") == json_field(s.reply, "fingerprint"),
                      "in-process handle() reply == daemon reply", text);
      }
    }
  }
  const auto stat = [&](const char* key) { return std::atof(json_field(stats, key).c_str()); };
  const double hits = stat("hits"), misses = stat("misses");
  report.set("svc.scenario_ms", median(scenario_ms), "ms");
  for (int k = 0; k < kClasses; ++k) {
    report.set(std::string("svc.handle_") + kClassNames[k] + "_ms", median(handle[k]), "ms");
    report.set(std::string("svc.") + kClassNames[k] + "_p50_ms", median(latency[k]), "ms");
  }
  report.set("svc.wire_ms", median(latency[kWarm]) - median(handle[kWarm]), "ms");
  report.set("svc.p99_ms", quantile(all_latency, 0.99), "ms");
  report.set("svc.rps", static_cast<double>(all_latency.size()) / wall_s, "1/s");
  report.set("memo.hits", hits, "count");
  report.set("memo.misses", misses, "count");
  report.set("memo.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  report.set("memo.evictions", stat("evictions"), "count");
  report.set("maintain.repairs_local", static_cast<double>(maintain[0]), "count");
  report.set("maintain.repairs_regional", static_cast<double>(maintain[1]), "count");
  report.set("maintain.repairs_full", static_cast<double>(maintain[2]), "count");
  report.set("maintain.escalations", static_cast<double>(maintain[3]), "count");
  report.set("faults.seeded", static_cast<double>(faults.count()), "count");
  report.set("unattributed_ms", round_ms_total - request_ms_total, "ms");
  std::size_t spans = 0;
  std::vector<const Spans*> lanes;
  for (const ClientLog& log : logs) {
    spans += log.spans.count();
    lanes.push_back(&log.spans);
  }
  report.set("trace_overhead_ms", static_cast<double>(spans) * Spans::cost_per_span_ms(), "ms");
  std::filesystem::create_directories(args.out_dir);
  write_chrome_trace(args.out_dir + "/trace_serving.json", lanes);
  return checks.ok();
}

}  // namespace perfbench
