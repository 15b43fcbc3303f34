// livebench: live end-to-end and per-layer benchmark of djstar.
//
//   livebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: apc_keylock_busy, apc_varispeed_ws, fleet_loopback (see
// README.md). The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With --trace 0 the metrics are the end-to-end set, with --trace 1
// the per-layer set. Exit status is 0 whenever a result was printed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <unistd.h>
#include <string>
#include <vector>

#include "checks.hpp"
#include "workloads.hpp"

namespace livebench {

// End-to-end metrics carry a bound in BENCHMARK.json, so only figures
// whose run-to-run spread on the host of record stays well inside the
// largest allowed bound (0.25) are here. The tail and rate figures the
// benchmark also measures swing by more than that between runs on a
// virtual machine (hypervisor steal), so they are reported with the
// per-layer set under the "e2e." prefix instead.
const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> m = {
      {"setup_s", 0, "s"},
      {"apc_p50_us", 0, "us"},
      {"cpu_us_per_apc", 0, "us"},
      {"peak_rss_mb", 0, "MB"},
  };
  return m;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> m = {
      {"e2e.apc_p99_us", 0, "us"},
      {"e2e.apc_per_s", 0, "APC/s"},
      {"e2e.packet_p50_us", 0, "us"},
      {"e2e.packet_p99_us", 0, "us"},
      {"e2e.first_packet_p50_us", 0, "us"},
      {"e2e.steal_pct", 0, "%"},
      {"engine.tp_us", 0, "us"},
      {"engine.gp_us", 0, "us"},
      {"engine.gp_p99_us", 0, "us"},
      {"engine.graph_us", 0, "us"},
      {"engine.graph_p99_us", 0, "us"},
      {"engine.vc_us", 0, "us"},
      {"engine.other_us", 0, "us"},
      {"engine.misses_per_10k", 0, "count"},
      {"engine.allocs_per_apc", 0, "count"},
      {"engine.seq_apc_us", 0, "us"},
      {"engine.graph_speedup", 0, "x"},
      {"engine.apc_speedup", 0, "x"},
      {"core.nodes_per_apc", 0, "count"},
      {"core.steals_per_apc", 0, "count"},
      {"core.steal_failures_per_apc", 0, "count"},
      {"core.steal_hit_ratio", 0, "ratio"},
      {"core.sleeps_per_apc", 0, "count"},
      {"core.wakeups_per_apc", 0, "count"},
      {"core.spins_per_apc", 0, "count"},
      {"core.makespan_us", 0, "us"},
      {"core.cp_run_us", 0, "us"},
      {"core.cp_wait_us", 0, "us"},
      {"core.cp_steal_idle_us", 0, "us"},
      {"core.cp_barrier_us", 0, "us"},
      {"core.cp_overhead_us", 0, "us"},
      {"core.worker_run_us", 0, "us"},
      {"core.worker_steal_idle_us", 0, "us"},
      {"core.worker_barrier_us", 0, "us"},
      {"core.worker_overhead_us", 0, "us"},
      {"core.hosted_steals_per_cycle", 0, "count"},
      {"serve.tick_us", 0, "us"},
      {"serve.session_cycles_per_tick", 0, "count"},
      {"serve.queue_p50_us", 0, "us"},
      {"serve.queue_p99_us", 0, "us"},
      {"serve.execute_p50_us", 0, "us"},
      {"serve.execute_p99_us", 0, "us"},
      {"serve.admission_wait_us", 0, "us"},
      {"serve.allocs_per_tick", 0, "count"},
      {"serve.misses", 0, "count"},
      {"serve.degrade_steps", 0, "count"},
      {"serve.shed", 0, "count"},
      {"serve.degraded_cycles", 0, "count"},
      {"net.delivery_p50_us", 0, "us"},
      {"net.delivery_p99_us", 0, "us"},
      {"net.flush_p50_us", 0, "us"},
      {"net.bytes_per_session_cycle", 0, "B"},
      {"net.open_rtt_us", 0, "us"},
      {"net.audio_drops", 0, "count"},
      {"obs.attrib_cost_pct", 0, "%"},
      {"obs.attrib_cost_iqr_pct", 0, "%"},
      {"obs.pairs", 0, "count"},
  };
  return m;
}

void finish_metrics(Result& r, bool trace, const std::vector<Metric>& values) {
  r.metrics.clear();
  for (const Metric& want : trace ? per_layer_metrics() : end_to_end_metrics()) {
    double v = 0;
    for (const Metric& got : values) {
      if (got.name == want.name) v = got.value;
    }
    r.metrics.push_back({want.name, v, want.unit});
  }
}

namespace {

void print_result(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

bool parse(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(opt.seconds > 0) ||
          opt.seconds > 600) {
        return false;
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      opt.trace = val == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

// The program reads DJSTAR_* variables (thread counts, profiler and
// fault modes, ports). The benchmark fixes every input itself.
void clear_djstar_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("DJSTAR_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

}  // namespace
}  // namespace livebench

int main(int argc, char** argv) {
  using namespace livebench;
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: livebench --workload <apc_keylock_busy|"
                 "apc_varispeed_ws|fleet_loopback> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  clear_djstar_environment();
  try {
    std::string why;
    const bool checkers_ok = self_test(why);
    if (!checkers_ok) std::fprintf(stderr, "livebench: self-test: %s\n", why.c_str());
    Result r;
    if (opt.workload == "apc_keylock_busy") {
      r = run_apc(opt, true);
    } else if (opt.workload == "apc_varispeed_ws") {
      r = run_apc(opt, false);
    } else if (opt.workload == "fleet_loopback") {
      r = run_fleet(opt);
    } else {
      std::fprintf(stderr, "livebench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
    r.correct = r.correct && checkers_ok && r.attempted > 0;
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "livebench: %s\n", e.what());
    return 1;
  }
}
