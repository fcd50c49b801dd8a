// tpch_files: every TPC-H table at SF 0.1 through GenerateToDirectory,
// repeated for the run's duration. Generation, formatting, the writer
// stage and the file sink do all the work.

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/cursor.h"
#include "core/engine.h"
#include "core/output/formatter.h"
#include "harness/bench.h"
#include "util/files.h"
#include "util/hash.h"
#include "workloads/tpch.h"

namespace e2ebench {
namespace {

constexpr const char* kScaleFactor = "0.1";
// Generation workers; with the writer thread, 3 busy threads.
constexpr int kWorkers = 2;
constexpr const char* kGoldenScaleFactor = "0.01";
constexpr size_t kReadChunk = 1 << 20;

Rendered ReadFileBytes(const std::string& path) {
  Rendered out;
  std::ifstream in(path, std::ios::binary);
  pdgf::ByteStreamHash hash;
  std::string chunk(kReadChunk, '\0');
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const size_t got = static_cast<size_t>(in.gcount());
    if (got == 0) break;
    std::string_view view(chunk.data(), got);
    hash.Update(view);
    out.bytes += got;
    for (char c : view) out.rows += c == '\n' ? 1 : 0;
  }
  out.hash = hash.Finish();
  return out;
}

void CheckFilesAgainstCursor(const pdgf::GenerationSession& session,
                             const std::string& dir, Result* result) {
  uint64_t csv_bytes = 0;
  for (size_t t = 0; t < session.schema().tables.size(); ++t) {
    const std::string& name = session.schema().tables[t].name;
    const int table = static_cast<int>(t);
    const Rendered expected =
        RenderRows(session, table, 0, session.TableRows(table));
    const Rendered actual = ReadFileBytes(pdgf::JoinPath(dir, name + ".csv"));
    csv_bytes += expected.bytes;
    std::ostringstream detail;
    detail << "file rows=" << actual.rows << " bytes=" << actual.bytes
           << " hash=" << actual.hash.Hex() << "; cursor rows="
           << expected.rows << " bytes=" << expected.bytes
           << " hash=" << expected.hash.Hex();
    result->Check("files.matches_cursor." + name,
                  actual.rows == expected.rows &&
                      actual.bytes == expected.bytes &&
                      actual.hash == expected.hash,
                  detail.str());
  }
  result->scalars["csv_bytes"] = static_cast<double>(csv_bytes);
  result->scalars["disk_bytes"] = static_cast<double>(DirectoryBytes(dir));
}

// At the model's default project seed, SF 0.01 table digests must equal
// the committed golden fixture.
void CheckGolden(const Settings& settings, Result* result) {
  std::ifstream in(settings.golden_path);
  if (!in) {
    result->Check("files.golden", false,
                  "cannot read " + settings.golden_path);
    return;
  }
  std::map<std::string, std::string> golden;  // table -> "rows bytes hex"
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string table, rows, bytes, hex;
    fields >> table >> rows >> bytes >> hex;
    golden[table] = rows + " " + bytes + " " + hex;
  }
  const pdgf::SchemaDef schema = workloads::BuildTpchSchema();
  auto session = OpenSession(schema, kGoldenScaleFactor);
  if (!session.ok()) {
    result->Check("files.golden", false, session.status().ToString());
    return;
  }
  pdgf::CsvFormatter formatter;
  std::string buffer;
  std::vector<size_t> offsets;
  for (size_t t = 0; t < schema.tables.size(); ++t) {
    pdgf::RowRangeCursor cursor(session->get(), static_cast<int>(t), 0,
                                (*session)->TableRows(static_cast<int>(t)));
    pdgf::TableDigest digest;
    while (cursor.Next()) {
      buffer.clear();
      formatter.AppendBatch(schema.tables[t], cursor.batch(), &buffer,
                            &offsets);
      pdgf::FoldBatchIntoDigest(cursor.batch(), buffer, offsets, &digest);
    }
    const std::string actual = std::to_string(digest.rows()) + " " +
                               std::to_string(digest.bytes()) + " " +
                               digest.Hex();
    const std::string& name = schema.tables[t].name;
    result->Check("files.golden." + name, golden[name] == actual,
                  "golden '" + golden[name] + "' actual '" + actual + "'");
  }
}

// Engine throughput with the sink removed, against which the files
// iterations give the writer-plus-sink share.
pdgf::Status RunNullIteration(const pdgf::GenerationSession& session,
                              const pdgf::RowFormatter& formatter,
                              const pdgf::GenerationOptions& options,
                              uint64_t total_rows, uint64_t op,
                              Tracer* tracer, Result* result) {
  const int64_t start = NowNs();
  pdgf::StatusOr<pdgf::GenerationEngine::Stats> stats =
      pdgf::InternalError("not run");
  {
    Tracer::Scope span(tracer, "core.engine.generate_to_null", op);
    stats = pdgf::GenerateToNull(session, formatter, options);
  }
  PDGF_RETURN_IF_ERROR(stats.status());
  const double seconds = (NowNs() - start) / 1e9;
  if (stats->rows != total_rows) {
    result->Check("files.null_totals", false,
                  "GenerateToNull rows=" + std::to_string(stats->rows));
  }
  result->Add("null_iteration_s", seconds);
  return pdgf::Status::Ok();
}

}  // namespace

pdgf::Status RunFiles(const Settings& settings, Result* result) {
  const std::string out_dir = pdgf::JoinPath(settings.work_dir, "files");
  const pdgf::CsvFormatter formatter;
  Model model;
  Tracer tracer;
  pdgf::GenerationOptions options;
  options.worker_count = kWorkers;
  uint64_t total_rows = 0;
  uint64_t first_bytes = 0;
  uint64_t mismatches = 0;
  std::string first_error;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(settings.seconds * 1e9);
  for (uint64_t op = 0; NowNs() < deadline; ++op) {
    // The traced run cycles through untraced and traced file iterations
    // and traced null-sink iterations, so the tracing overhead and the
    // sink's share are measured under the same host conditions.
    const uint64_t kind = settings.trace ? op % 3 : 0;
    const bool traced = kind != 0;
    tracer.enabled = traced;
    options.metrics_enabled = kind == 1;
    Tracer::Scope iteration(&tracer, "bench.iteration", op);
    if (kind == 2) {
      PDGF_RETURN_IF_ERROR(RunNullIteration(*model.session, formatter,
                                            options, total_rows, op, &tracer,
                                            result));
      continue;
    }
    if (op != 0) {
      Tracer::Scope span(&tracer, "bench.cleanup", op);
      RemoveTree(out_dir);
    }
    // Set-up is repeated before every iteration so setup_s samples the
    // whole run, not one instant of it.
    int64_t start = NowNs();
    {
      Tracer::Scope span(&tracer, "core.session.create", op);
      PDGF_ASSIGN_OR_RETURN(model, SetUpModel(settings.seed, kScaleFactor));
    }
    result->Add("setup_s", (NowNs() - start) / 1e9);
    if (total_rows == 0) {
      for (size_t t = 0; t < model.schema->tables.size(); ++t) {
        total_rows += model.session->TableRows(static_cast<int>(t));
      }
    }
    ResetPeakRss();
    start = NowNs();
    pdgf::StatusOr<pdgf::GenerationEngine::Stats> stats =
        pdgf::InternalError("not run");
    {
      Tracer::Scope span(&tracer, "core.engine.generate_to_directory", op);
      stats = pdgf::GenerateToDirectory(*model.session, formatter, out_dir,
                                        options);
    }
    const double seconds = (NowNs() - start) / 1e9;
    result->Add("peak_rss_mb", PeakRssMb());
    ++result->attempted;
    if (!stats.ok() || stats->rows != total_rows ||
        (first_bytes != 0 && stats->bytes != first_bytes)) {
      ++result->failed;
      ++mismatches;
      if (first_error.empty()) {
        first_error = stats.ok() ? "rows=" + std::to_string(stats->rows) +
                                       " bytes=" + std::to_string(stats->bytes)
                                 : stats.status().ToString();
      }
      continue;
    }
    if (first_bytes == 0) first_bytes = stats->bytes;
    result->Add(traced ? "traced.iteration_s" : "iteration_s", seconds);
    if (traced) {
      const pdgf::MetricsReport& metrics = stats->metrics;
      for (int p = 0; p < pdgf::kPhaseCount; ++p) {
        const auto phase = static_cast<pdgf::Phase>(p);
        if (phase == pdgf::Phase::kWriterIdle) continue;
        result->Add(std::string("engine.phase.") + pdgf::PhaseName(phase),
                    metrics.phase_seconds[p]);
      }
      double idle = 0;
      for (const auto& writer : metrics.writer_threads) {
        idle += writer.idle_seconds;
      }
      result->Add("engine.phase.writer_idle", idle);
    }
  }
  result->scalars["rows_per_iteration"] = static_cast<double>(total_rows);
  tracer.enabled = settings.trace;
  result->Check("files.iteration_totals", mismatches == 0,
                mismatches == 0 ? "" : first_error);
  result->scalars["bytes_per_iteration"] = static_cast<double>(first_bytes);

  if (settings.trace) {
    RunLayerProbes(settings, &tracer, result);
    result->spans = std::move(tracer.spans());
  }

  CheckFilesAgainstCursor(*model.session, out_dir, result);
  CheckGolden(settings, result);
  RemoveTree(out_dir);
  return pdgf::Status::Ok();
}

}  // namespace e2ebench
