#ifndef DBSYNTHPP_E2EBENCH_HARNESS_BENCH_H_
#define DBSYNTHPP_E2EBENCH_HARNESS_BENCH_H_

// Shared pieces of the end-to-end benchmark harness: the run settings, the
// raw result record that run.py turns into metrics, the span tracer, and
// small helpers. The harness only measures and checks; every statistic
// (medians, best-of, percentiles, self time) is computed by run.py.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/schema.h"
#include "core/session.h"
#include "util/hash.h"

namespace e2ebench {

struct Settings {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space owned by this run
  std::string out_path;  // raw result JSON
  std::string golden_path;  // tpch SF 0.01 golden digests
};

// One span around a call into a layer. Times are nanoseconds since the
// run's epoch; parent 0 means a root span.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

int64_t NowNs();

// Records spans in memory while enabled; single-threaded (each serve
// client thread owns one). Ids carry the owner's index in the top bits so
// merged span lists stay unique.
class Tracer {
 public:
  explicit Tracer(uint64_t owner = 0) : next_id_((owner << 48) + 1) {}

  bool enabled = false;

  // RAII span; a no-op (no clock read) while the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t op = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    size_t index_ = 0;
  };

  std::vector<Span>& spans() { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
  std::vector<uint64_t> open_;  // ids of open spans, innermost last
};

// Everything one run measured. Series hold raw samples; scalars hold
// single measurements; info holds the fingerprint and settings.
struct Result {
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, double> scalars;
  std::map<std::string, std::string> info;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  struct CheckOutcome {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<CheckOutcome> checks;
  std::vector<Span> spans;

  void Add(const std::string& series_name, double value) {
    series[series_name].push_back(value);
  }
  // Records a correctness check; a failed check counts as a failed op.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  std::string ToJson() const;
};

// Deterministic 64-bit generator (splitmix64) for workload inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }

 private:
  uint64_t state_;
};

// The TPC-H model with its project seed derived from the workload seed.
pdgf::SchemaDef SeededTpch(uint64_t workload_seed);

// Resolves `schema` at `scale_factor`. `schema` must outlive the session.
pdgf::StatusOr<std::unique_ptr<pdgf::GenerationSession>> OpenSession(
    const pdgf::SchemaDef& schema, const std::string& scale_factor);

// The seeded TPC-H model resolved at a scale factor: what a workload sets
// up before its first timed operation.
struct Model {
  std::unique_ptr<pdgf::SchemaDef> schema;
  std::unique_ptr<pdgf::GenerationSession> session;
};
pdgf::StatusOr<Model> SetUpModel(uint64_t workload_seed,
                                 const std::string& scale_factor);

// Rows, bytes and stream hash of the CSV rendering of rows [first, last)
// of a table by one RowRangeCursor pass: the reference the workloads'
// outputs are checked against.
struct Rendered {
  uint64_t rows = 0;
  uint64_t bytes = 0;
  pdgf::Digest128 hash;
};
Rendered RenderRows(const pdgf::GenerationSession& session, int table,
                    uint64_t first, uint64_t last);

// Peak resident memory since the last ResetPeakRss (VmHWM). Resetting
// per timed operation makes the reported peak a median over operations
// instead of one maximum that depends on a single unlucky interleaving.
double PeakRssMb();
void ResetPeakRss();
// Peak resident memory of the whole process so far, across resets.
double ProcessPeakRssMb();
// Sum of regular file sizes directly in `dir`.
uint64_t DirectoryBytes(const std::string& dir);
void RemoveTree(const std::string& path);

// Per-layer probes shared by every workload's traced run: session
// creation, RowRangeCursor and CsvFormatter::AppendBatch cost per table.
void RunLayerProbes(const Settings& settings, Tracer* tracer, Result* result);

pdgf::Status RunFiles(const Settings& settings, Result* result);
pdgf::Status RunIngest(const Settings& settings, Result* result);
pdgf::Status RunServe(const Settings& settings, Result* result);

}  // namespace e2ebench

#endif  // DBSYNTHPP_E2EBENCH_HARNESS_BENCH_H_
