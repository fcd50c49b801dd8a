// e2ebench_harness: runs one benchmark workload in this process and writes
// the raw measurements (samples, checks, spans, fingerprint) as JSON.
// run.py builds and invokes it; see e2ebench/README.md.
//
//   e2ebench_harness --workload tpch_files|tpch_ingest|serve_onthefly
//       --seed N --seconds S --trace 0|1 --work-dir DIR --out FILE
//       --golden FILE

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common/simd.h"
#include "common/topology.h"
#include "harness/bench.h"
#include "util/files.h"

namespace {

bool ParseArgs(int argc, char** argv, e2ebench::Settings* settings) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      settings->workload = value;
    } else if (flag == "--seed") {
      settings->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      settings->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      settings->trace = value == "1";
    } else if (flag == "--work-dir") {
      settings->work_dir = value;
    } else if (flag == "--out") {
      settings->out_path = value;
    } else if (flag == "--golden") {
      settings->golden_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !settings->workload.empty() &&
         !settings->work_dir.empty() && !settings->out_path.empty() &&
         settings->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Settings settings;
  if (!ParseArgs(argc, argv, &settings)) {
    std::fprintf(stderr, "usage: see e2ebench/harness/main.cc\n");
    return 2;
  }
  e2ebench::Result result;
  const pdgf::Topology& topology = pdgf::Topology::System();
  result.info["simd_dispatch"] = pdgf::simd::SimdDispatchName();
  result.info["numa_mode"] = pdgf::NumaModeName(pdgf::ActiveNumaMode());
  result.info["numa_nodes"] = std::to_string(topology.node_count());
  result.info["affinity_cpus"] = std::to_string(pdgf::AffinityCpuCount());
  result.info["hardware_threads"] =
      std::to_string(std::thread::hardware_concurrency());
  result.info["build_type"] = E2EBENCH_BUILD_TYPE;

  pdgf::Status status = pdgf::MakeDirectories(settings.work_dir);
  if (status.ok()) {
    if (settings.workload == "tpch_files") {
      status = e2ebench::RunFiles(settings, &result);
    } else if (settings.workload == "tpch_ingest") {
      status = e2ebench::RunIngest(settings, &result);
    } else if (settings.workload == "serve_onthefly") {
      status = e2ebench::RunServe(settings, &result);
    } else {
      status = pdgf::InvalidArgumentError("unknown workload " +
                                          settings.workload);
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "e2ebench_harness: %s\n", status.ToString().c_str());
    return 1;
  }
  result.scalars["process_peak_rss_mb"] = e2ebench::ProcessPeakRssMb();
  std::ofstream out(settings.out_path, std::ios::binary | std::ios::trunc);
  out << result.ToJson();
  out.close();
  if (!out) {
    std::fprintf(stderr, "e2ebench_harness: cannot write %s\n",
                 settings.out_path.c_str());
    return 1;
  }
  return 0;
}
