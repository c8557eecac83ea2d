#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

namespace {
const Clock::time_point kLoaded = Clock::now();
}  // namespace

Clock::time_point process_start() { return kLoaded; }

std::uint64_t mix_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base * 0x9e3779b97f4a7c15ULL + index + 0x632be59bd9b4e019ULL;
  for (int i = 0; i < 2; ++i) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
  }
  return z;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double Report::value_or(const std::string& name, double fallback) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return fallback;
}

void Report::print(bool correct) const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    os << (i ? ", " : "") << '"' << e.name << "\": {\"value\": "
       << (std::isfinite(e.value) ? e.value : -1.0) << ", \"unit\": \""
       << e.unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

Spans::Spans(bool on) : on_(on) {
  if (on_) spans_.reserve(4096);
}

void Spans::record(const char* name, Clock::time_point t0,
                   Clock::time_point t1) {
  spans_.push_back({name, ms_between(kLoaded, t0) * 1000.0,
                    ms_between(t0, t1) * 1000.0});
}

double Spans::cost_per_span_ms() {
  constexpr int kSpans = 20000;
  Spans probe(true);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) probe.time("probe", [] {});
  const Clock::time_point t1 = Clock::now();
  // Subtract the same loop untraced: only the recording is overhead.
  Spans off(false);
  const Clock::time_point u0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) off.time("probe", [] {});
  const Clock::time_point u1 = Clock::now();
  return std::max(0.0, ms_between(t0, t1) - ms_between(u0, u1)) / kSpans;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<const Spans*>& lanes) {
  std::ofstream out(path);
  out.precision(12);
  out << "{\"traceEvents\": [";
  bool first = true;
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    for (const auto& s : lanes[lane]->spans_) {
      out << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
          << lane << ", \"ts\": " << s.start_us << ", \"dur\": " << s.dur_us
          << "}";
      first = false;
    }
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

bool Checks::expect(bool ok, const std::string& check, const std::string& input,
                    const std::string& detail) {
  if (ok) return true;
  ++failures_;
  if (!quiet_ && failures_ <= 20) {
    std::fprintf(stderr, "CHECK FAILED: %s on %s%s%s\n", check.c_str(),
                 input.c_str(), detail.empty() ? "" : ": ", detail.c_str());
  }
  return false;
}

void KnownFaults::record(const std::string& fault, const std::string& input) {
  ++count_;
  std::fprintf(stderr, "known fault on a seeded input: %s on %s\n", fault.c_str(),
               input.c_str());
}

void KnownFaults::check_rare(Checks& c, long long rounds, const std::string& input) const {
  c.expect(count_ <= std::max<long long>(1, rounds / 10),
           "known faults on at most a tenth of the rounds", input,
           std::to_string(count_) + " of " + std::to_string(rounds) + " rounds");
}

}  // namespace perfbench
