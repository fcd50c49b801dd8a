#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <filesystem>
#include <system_error>

#include "core/cursor.h"
#include "core/output/formatter.h"
#include "harness/bench.h"
#include "workloads/tpch.h"

namespace e2ebench {
namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

void AppendEscaped(const std::string& text, std::string* out) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          *out += buffer;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(double value, std::string* out) {
  if (!std::isfinite(value)) {
    *out += "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  *out += buffer;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t op) {
  if (tracer == nullptr || !tracer->enabled) return;
  tracer_ = tracer;
  index_ = tracer->spans_.size();
  Span span;
  span.id = tracer->next_id_++;
  span.parent = tracer->open_.empty() ? 0 : tracer->open_.back();
  span.op = op;
  span.name = name;
  tracer->open_.push_back(span.id);
  span.start_ns = NowNs();
  tracer->spans_.push_back(std::move(span));
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = NowNs();
  tracer_->open_.pop_back();
}

void Result::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  ++attempted;
  if (!ok) ++failed;
  checks.push_back({name, ok, detail});
}

std::string Result::ToJson() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"info\":{";
  bool first = true;
  for (const auto& [key, value] : info) {
    if (!first) out += ",";
    first = false;
    AppendEscaped(key, &out);
    out += ":";
    AppendEscaped(value, &out);
  }
  out += "},\"scalars\":{";
  first = true;
  for (const auto& [key, value] : scalars) {
    if (!first) out += ",";
    first = false;
    AppendEscaped(key, &out);
    out += ":";
    AppendNumber(value, &out);
  }
  out += "},\"series\":{";
  first = true;
  for (const auto& [key, values] : series) {
    if (!first) out += ",";
    first = false;
    AppendEscaped(key, &out);
    out += ":[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i != 0) out += ",";
      AppendNumber(values[i], &out);
    }
    out += "]";
  }
  out += "},\"checks\":[";
  for (size_t i = 0; i < checks.size(); ++i) {
    if (i != 0) out += ",";
    out += "{\"name\":";
    AppendEscaped(checks[i].name, &out);
    out += checks[i].ok ? ",\"ok\":true" : ",\"ok\":false";
    out += ",\"detail\":";
    AppendEscaped(checks[i].detail, &out);
    out += "}";
  }
  // Spans as [id, parent, op, name, start_ns, end_ns] rows.
  out += "],\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (i != 0) out += ",";
    out += "[" + std::to_string(span.id) + "," + std::to_string(span.parent) +
           "," + std::to_string(span.op) + ",";
    AppendEscaped(span.name, &out);
    out += "," + std::to_string(span.start_ns) + "," +
           std::to_string(span.end_ns) + "]";
  }
  out += "]}\n";
  return out;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

pdgf::SchemaDef SeededTpch(uint64_t workload_seed) {
  pdgf::SchemaDef schema = workloads::BuildTpchSchema();
  schema.seed = Rng(workload_seed).Next();
  return schema;
}

pdgf::StatusOr<std::unique_ptr<pdgf::GenerationSession>> OpenSession(
    const pdgf::SchemaDef& schema, const std::string& scale_factor) {
  return pdgf::GenerationSession::Create(&schema, {{"SF", scale_factor}});
}

pdgf::StatusOr<Model> SetUpModel(uint64_t workload_seed,
                                 const std::string& scale_factor) {
  Model model;
  model.schema = std::make_unique<pdgf::SchemaDef>(SeededTpch(workload_seed));
  PDGF_ASSIGN_OR_RETURN(model.session,
                        OpenSession(*model.schema, scale_factor));
  return model;
}

Rendered RenderRows(const pdgf::GenerationSession& session, int table,
                    uint64_t first, uint64_t last) {
  const pdgf::TableDef& def =
      session.schema().tables[static_cast<size_t>(table)];
  const pdgf::CsvFormatter formatter;
  pdgf::RowRangeCursor cursor(&session, table, first, last);
  pdgf::ByteStreamHash hash;
  std::string buffer;
  Rendered out;
  while (cursor.Next()) {
    buffer.clear();
    formatter.AppendBatch(def, cursor.batch(), &buffer);
    hash.Update(buffer);
    out.rows += cursor.batch().row_count();
    out.bytes += buffer.size();
  }
  out.hash = hash.Finish();
  return out;
}

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
// execve and cannot reset it.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

namespace {
// Highest VmHWM seen before any reset.
double process_peak_rss_mb = 0;
}  // namespace

void ResetPeakRss() {
  process_peak_rss_mb = std::max(process_peak_rss_mb, PeakRssMb());
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double ProcessPeakRssMb() {
  return std::max(process_peak_rss_mb, PeakRssMb());
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code error;
  for (const auto& entry : std::filesystem::directory_iterator(dir, error)) {
    if (entry.is_regular_file(error)) total += entry.file_size(error);
  }
  return total;
}

void RemoveTree(const std::string& path) {
  std::error_code error;
  std::filesystem::remove_all(path, error);
}

}  // namespace e2ebench
