// perfbench: seeded end-to-end workloads against the hytap library's public
// API (see ../README.md). One invocation runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <result.json>] [--spans <spans.json>]
//
// The untraced run always runs: a few passes of the workload's op list,
// each from a fresh set-up, --seconds split evenly over them; it yields the
// end-to-end metrics, each op timed at its best over the passes. With
// --trace 1 one more pass reruns the same op list from a fresh set-up with
// spans around every library call, yields the per-layer metrics, and must
// reproduce every deterministic value of the untraced passes bit for bit.
// The result is one JSON object, written to --out and printed as the last
// line of standard output. Exit code 0 = outputs correct, 1 = a check
// failed, 2 = usage error, 3 = unoptimized build.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  // JSON has no infinity: a miss at a percentile reads as the largest double.
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Passes of an untraced run: more where a pass's set-up is cheap. olap_scan
/// builds a 120 000-row table per pass (about 2 s), the others take well
/// under a second.
size_t PassesOf(const std::string& name) {
  if (name == "olap_scan") return 3;
  if (name == "htap_serve") return 5;
  return 4;
}

Report RunWorkload(const std::string& name, const RunConfig& config) {
  if (name == "olap_scan") return RunOlapScan(config);
  if (name == "htap_serve") return RunHtapServe(config);
  if (name == "retier_shift") return RunRetierShift(config);
  return RunAdviseLarge(config);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<olap_scan|htap_serve|retier_shift|advise_large> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <file>] [--spans <file>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, out_path, spans_path;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  static const std::set<std::string> kWorkloads = {
      "olap_scan", "htap_serve", "retier_shift", "advise_large"};
  if (argc % 2 != 1 || !kWorkloads.count(workload) || seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "perfbench: refusing to report from an unoptimized build "
               "(build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif

  Tracer off(false);
  RunConfig config;
  config.seed = seed;
  const size_t passes = PassesOf(workload);
  config.pass_seconds = seconds / double(passes);
  config.passes = passes;
  config.tracer = &off;
  Report untraced = RunWorkload(workload, config);

  Report traced;
  Tracer on(true);
  if (trace == 1) {
    config.tracer = &on;
    config.passes = 1;
    traced = RunWorkload(workload, config);
    // Determinism self-check: the traced rerun must reproduce every
    // deterministic value of the untraced pass bit for bit.
    std::map<std::string, std::string> reference(untraced.det.begin(),
                                                 untraced.det.end());
    for (const auto& [name, value] : traced.det) {
      auto it = reference.find(name);
      if (it != reference.end() && it->second != value) {
        untraced.Error("determinism: " + name + " untraced " + it->second +
                       " vs traced " + value);
      }
    }
    for (const std::string& e : traced.errors) untraced.Error("traced: " + e);
    if (!spans_path.empty() && !on.WriteJson(spans_path)) {
      untraced.Error("cannot write spans to " + spans_path);
    }
  }

  std::map<std::string, double> layer(traced.layer.begin(),
                                      traced.layer.end());
  if (trace == 1) {
    for (const auto& [name, ns] : on.SelfNsByLayer()) {
      layer["self." + name + "_ms"] = ns / 1e6;
    }
    layer["trace.overhead_pct"] =
        untraced.measured_s > 0.0
            ? 100.0 * (traced.measured_s - untraced.measured_s) /
                  untraced.measured_s
            : 0.0;
  }
  std::map<std::string, std::string> det(untraced.det.begin(),
                                         untraced.det.end());
  for (const auto& [name, value] : traced.det) det.emplace(name, value);

  std::string json = "{\"workload\":" + JsonString(workload) +
                     ",\"seed\":" + std::to_string(seed) +
                     ",\"seconds\":" + JsonNumber(seconds) +
                     ",\"trace\":" + std::to_string(trace);
  json += ",\"correct\":";
  json += untraced.errors.empty() ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(untraced.attempted);
  json += ",\"failed\":" + std::to_string(untraced.failed);
  json += ",\"e2e\":{";
  for (size_t i = 0; i < untraced.e2e.size(); ++i) {
    json += (i ? "," : "") + JsonString(untraced.e2e[i].first) + ":" +
            JsonNumber(untraced.e2e[i].second);
  }
  json += "},\"layer\":{";
  bool first = true;
  for (const auto& [name, value] : layer) {
    json += (first ? "" : ",") + JsonString(name) + ":" + JsonNumber(value);
    first = false;
  }
  json += "},\"det\":{";
  first = true;
  for (const auto& [name, value] : det) {
    json += (first ? "" : ",") + JsonString(name) + ":" + JsonString(value);
    first = false;
  }
  json += "},\"record\":{";
  json += "\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  json += ",\"hardware_concurrency\":" +
          std::to_string(std::thread::hardware_concurrency());
  json += ",\"cpu_model\":" + JsonString(CpuModel());
  json += ",\"compiler\":" + JsonString(std::string("g++ ") + __VERSION__);
  json += ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE);
  json += ",\"passes\":" + std::to_string(passes);
  json += ",\"measured_s_per_pass\":" + JsonNumber(untraced.measured_s);
  if (trace == 1) {
    json += ",\"traced_measured_s\":" + JsonNumber(traced.measured_s);
    json += ",\"spans\":" + std::to_string(on.span_count());
  }
  for (const auto& [name, value] : untraced.record) {
    json += "," + JsonString(name) + ":" + JsonString(value);
  }
  json += "},\"errors\":[";
  for (size_t i = 0; i < untraced.errors.size(); ++i) {
    json += (i ? "," : "") + JsonString(untraced.errors[i]);
  }
  json += "]}";

  if (!out_path.empty()) {
    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f != nullptr) {
      std::fputs((json + "\n").c_str(), f);
      std::fclose(f);
    }
  }
  std::printf("%s\n", json.c_str());
  return untraced.errors.empty() ? 0 : 1;
}
